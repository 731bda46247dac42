"""K-step and infinite-step weak opacity via state trees over the observer.

A tree node splits an estimate by ancestry: ``x1`` descends from the root's
secret part, ``x2`` from its nonsecret part.  The system is K-step weak
opaque exactly when every node of every tree rooted at a secret-intersecting
estimate keeps ``x2`` nonempty.

Verdict-level checks walk the pair graph with breadth-first search and pair
deduplication: a child pair depends only on its parent pair and the event,
and BFS visits each pair at its shallowest depth, so reachability of an
empty-``x2`` pair within the depth budget is decided exactly without
materializing duplicate subtrees.

The walk does not store ``x1``.  ``x1 | x2`` is always the node's
estimate, and neither the step of ``x2`` nor the violation test (an empty
``x2``) reads ``x1``, so a node is (estimate, ``x2``), as in SST and
verifier walks, and pairs that differ only in ``x1`` share one subtree.
The walk also drops dead pairs, those with ``x2 == estimate`` (``x1``
within ``x2``).  Both steps are monotone, so every descendant of a dead
pair is dead too; an empty ``x2`` would then force an empty estimate, which
no observation reaches.  Every ancestor of a violation is live, so the live
nodes keep their BFS discovery order and their parents: verdicts and
witnesses are those of the full walk.  The rule is weak-only: an SST or
verifier pair whose ``x2`` is its whole estimate can still lose every state
to a secret later.  Tree exports keep every node, ``x1`` included.

The weak and SST searches also drop every root and child whose ``x2``
meets the persistent core of their rows (``RowTable.reach_core`` and
``avoid_core``): the greatest set P of nonsecret states each of whose
members has, under every observable event, a row that meets P.  Along a
move x2 becomes ``step(x2) & masks[j]``; the step distributes over union
and lies within the target estimate, so the child holds the row of each
P-member of x2, which meets P.  Neither such a node nor a descendant can
empty x2, and no node without a P-state descends from one, so the kept
nodes keep their BFS order, depths and parents, as with dead pairs.  The
verifier walk, which must meet every verifier state, takes no core, nor do
the batch's refill walks, which look for edges out of empty nodes.

The same cores certify opacity before any walk.  A search that prunes by
a core P first tests whether the initial estimate meets P.  If it does,
every reachable estimate meets P, since a P-member's row under each event
meets P and lies within the next estimate.  P holds nonsecret states only,
so every root's x2, its estimate's nonsecret part, meets P as well, and
the walk would drop every root and visit nothing.  The search returns
opaque at once instead: before it builds an observer when the caller
passed none or takes a pass over the roots.
No walk would have run, so no cap could have been passed.  A core over all
states would not do: a secret member keeps every estimate nonempty while
their nonsecret parts may empty, as in ``p -a-> q -a-> p`` with ``q``
secret.  On a model where one nonsecret state lies in the initial estimate
and loops on every event, as nth-last's ``0`` does, the current-state,
K-step weak and strong and infinite-step weak searches read no estimate.

Every walk takes its roots as observer positions and their x2s, at most
one per estimate.  The weak and SST searches root every estimate at its
nonsecret part, and the walk drops a root exactly when it would drop a
child there: when it is dead (weak only) or meets the core, in one pass
before any root counts against the cap.  A root at a secret-free estimate
has x2 equal to its estimate, so it is dead from the start, which is why
the paper's weak trees start at secret-intersecting estimates only; an SST
root there is kept, since a window may open before the secret it loses
to.  The walk keeps, per estimate, the x2 of the first node met there: its
root, or else the first live child that reaches it.  A child whose x2 is
that first x2 is that node, found by position, and a child at an estimate
with no node yet becomes its first node; only a second, different x2 at an
estimate is hashed into the walk's visited dict.  So a walk that meets
each estimate with one x2, as the verifier does when every estimate
carries one secret-avoiding subset, hashes nothing, and an SST walk, which
roots every estimate, costs one list read for a child that repeats a
window's start.
"""

from __future__ import annotations

from functools import cache
from itertools import islice, repeat
from typing import Callable, NamedTuple, Sequence

from .core import (
    EventTables, InvariantError, Nfa, ResourceLimitError, RowTable, StateSet, dot_graph, format_pair,
    format_state_set, row_table,
)
from .observer import Observer, build_observer

Pair = tuple[StateSet, StateSet]
# A row table's ``reach_steps`` or ``avoid_steps``: one mask step per event.
Steps = Sequence[Callable[[int], int]]


class Walk(NamedTuple):
    """A pair walk's nodes in discovery order, as parallel lists.

    Node n is (observer position ``estimate[n]``, mask ``x2[n]``), found from
    node ``parent[n]`` on event position ``event[n]`` (both -1 at a root).
    The roots come first, in observer position order, at most one per
    estimate.  Depth d holds the positions from ``levels[d]`` to
    ``levels[d + 1]`` (or to the end).
    """

    estimate: list[int]
    x2: list[int]
    parent: list[int]
    event: list[int]
    levels: list[int]


class Witness(NamedTuple):
    """Replayable evidence for a non-opacity verdict.

    ``prefix`` reaches the root estimate, ``continuation`` descends to the
    violating node, whose pair is recorded in ``node``.
    """

    prefix: tuple[str, ...]
    continuation: tuple[str, ...]
    node: Pair

    @property
    def observation(self) -> tuple[str, ...]:
        return self.prefix + self.continuation


class _VerdictFields(NamedTuple):
    opaque: bool
    witness: Witness | None = None


class Verdict(_VerdictFields):
    """A property's verdict: opaque, or not opaque with a witness."""

    __slots__ = ()

    def __new__(cls, opaque: bool, witness: Witness | None = None) -> Verdict:
        if opaque != (witness is None):
            raise InvariantError("a verdict has a witness exactly when it is not opaque")
        return super().__new__(cls, opaque, witness)

    @classmethod
    def _make(cls, iterable) -> Verdict:
        # The NamedTuple _make, which _replace calls, skips __new__.
        return cls(*iterable)


def verdict_to_dict(property_name: str, k: int | None, verdict: Verdict) -> dict:
    """Serialize a verdict as {property, k, opaque, witness{prefix, continuation}}."""
    out: dict = {"property": property_name, "k": k, "opaque": verdict.opaque}
    if verdict.witness is None:
        out["witness"] = None
    else:
        out["witness"] = {
            "prefix": list(verdict.witness.prefix),
            "continuation": list(verdict.witness.continuation),
        }
    return out


class StateTree(NamedTuple):
    """Rooted, edge-labeled tree of (x1, x2) pairs of depth at most K, as parallel lists.

    Node n, in creation (BFS) order, holds (``x1[n]``, ``x2[n]``) at depth
    ``depth[n]``; edge n - 1 is (``parent[n]``, ``event[n]``, n).  The root,
    node 0, has parent -1 and event None.
    """

    x1: list[StateSet]
    x2: list[StateSet]
    parent: list[int]
    event: list[str | None]
    depth: list[int]

    @property
    def node_count(self) -> int:
        return len(self.x2)


def _grow_tree(
    table: RowTable,
    obs: Observer,
    root: tuple[int, int, int],
    k: int,
    steps: Steps,
) -> StateTree:
    # Duplicate pairs within one tree are deliberately not merged; the node
    # count stays within the structural cap 1+|Eo|+...+|Eo|^K.  Each mask
    # is named once per tree; nodes share the immutable StateSet tuples.
    # x1 follows the observation, x2 takes *steps* inside the new estimate.
    # The frontier holds one level's (position, x1, x2) masks; its entry t
    # is node start + t, since each level is appended in frontier order.
    name = cache(table.state_set)
    reach, masks, moves, events = table.reach_steps, obs.masks, obs.moves, obs.events
    _, x1, x2 = root
    tree = StateTree([name(x1)], [name(x2)], [-1], [None], [0])
    x1s, x2s, parents, labels, depths = tree
    frontier = [root]
    start = 0
    for depth in range(1, k + 1):
        if not frontier:
            break
        nxt = []
        for n, (i, x1, x2) in enumerate(frontier, start):
            for e, j in enumerate(moves[i]):
                if j < 0:
                    continue
                c1, c2 = reach[e](x1), steps[e](x2) & masks[j]
                x1s.append(name(c1))
                x2s.append(name(c2))
                parents.append(n)
                labels.append(events[e])
                depths.append(depth)
                nxt.append((j, c1, c2))
        start += len(frontier)
        frontier = nxt
    return tree


def _tree_root(nfa: Nfa, obs: Observer, root_state: StateSet, k: int, max_states: int | None) -> tuple[RowTable, int, int]:
    """The row table, and the position and mask of a valid tree root; ValueError otherwise.

    A depth-K tree of more than *max_states* nodes raises ResourceLimitError
    before anything is built: ``_path_count`` counts its nodes.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    table, order = row_table(nfa), nfa._order
    mask = sum(1 << order[s] for s in root_state if s in order)
    # An unknown, repeated or misplaced name makes *root_state* other than
    # its mask's canonical form.
    if table.state_set(mask) != tuple(root_state) or mask not in obs.masks:
        raise ValueError(f"root {format_state_set(root_state)} is not a reachable observer state")
    if not mask & table.secret:
        raise ValueError("root estimate contains no secret state")
    i = obs.masks.index(mask)
    if max_states is not None and _path_count(obs, (i,), k, max_states) > max_states:
        raise ResourceLimitError(f"state tree exceeded {max_states} nodes")
    return table, i, mask


def build_weak_state_tree(
    nfa: Nfa, obs: Observer, root_state: StateSet, k: int, max_states: int | None = None
) -> StateTree:
    """Materialize the depth-K tree rooted at a secret-intersecting estimate.

    More than *max_states* nodes raise ResourceLimitError before anything
    is built.
    """
    table, i, m = _tree_root(nfa, obs, root_state, k, max_states)
    return _grow_tree(table, obs, (i, m & table.secret, m & table.nonsecret), k, table.reach_steps)


def tree_node_count(obs: Observer, k: int, cap: float = float("inf")) -> int:
    """Summed node count of the depth-K trees over every secret-intersecting root.

    See ``_path_count``: past *cap* the count may stop, and the number it
    returns is then above *cap* but need not be the count.
    """
    return _path_count(obs, obs.secret_positions, k, cap)


def _path_count(obs: Observer, roots: Sequence[int], k: int, cap: float = float("inf")) -> int:
    """Observer paths of length at most K from the estimates at positions *roots*.

    A tree node stands for an observation string of length at most K that
    the observer accepts from the root, for weak trees and SSTs alike, so a
    count of observer paths gives a tree's node count without building it.
    Past K = 0 one pass reads each estimate's number of moves.  When all
    have the same d, as on every complete observer, the count is
    len(*roots*) * (1 + d + ... + d^K): direct for d <= 1, else summed
    level by level, passing *cap* within log2(*cap*) levels.  Otherwise
    counts propagate per estimate, at K times the observer's transitions,
    not |Eo|^K: only nonzero counts propagate, and the last level is each
    count times its estimate's moves, so depth K needs K - 1 propagations.
    The propagation is a fixed map, so a level equal to the one p depths
    back repeats with period p.  Each level is compared with the one saved
    at the last power-of-two depth (Brent's cycle detection); on a match
    the rest of the count is its whole periods, each adding the last p
    levels' sum, then the first levels of one more.  Either way the count
    stops once a level adds nothing or the total passes *cap*.
    """
    total = len(roots)
    moves = obs.moves
    if not k or not total:
        return total
    missing = {row.count(-1) for row in moves}
    if len(missing) == 1:
        degree = len(obs.events) - missing.pop()
        if degree <= 1:
            return total * (k + 1) if degree else total
        level = total
        for _ in range(k):
            if total > cap:
                break
            level *= degree
            total += level
        return total
    paths = [0] * len(moves)
    for i in roots:
        paths[i] = 1
    # The level saved at depth mark, and the totals from depth mark on.
    saved, mark, totals = paths, 0, [total]
    for depth in range(1, k + 1):
        if total > cap:
            break
        if depth == k:
            return total + sum(
                count * (len(row) - row.count(-1)) for count, row in zip(paths, moves) if count
            )
        # One slot past the end, index -1, takes the missing moves.
        nxt = [0] * (len(paths) + 1)
        for count, row in zip(paths, moves):
            if count:
                for j in row:
                    nxt[j] += count
        nxt.pop()
        level = sum(nxt)
        if not level:
            break
        total += level
        if nxt == saved:
            period, rest = depth - mark, k - depth
            return total + rest // period * (total - totals[0]) + totals[rest % period] - totals[0]
        totals.append(total)
        if not depth & depth - 1:
            saved, mark, totals = nxt, depth, [total]
        paths = nxt
    return total


def _explore(
    obs: Observer,
    estimate: Sequence[int],
    x2s: Sequence[int],
    steps: Steps,
    k: int | None,
    stop_at_empty: bool,
    *,
    tables: EventTables | None = None,
    weak: bool = False,
    core: int = 0,
    edges: list[tuple[int, int, int]] | None = None,
    max_states: int | None = None,
    search: str = "verifier",
) -> tuple[Walk, int | None]:
    """Multi-source BFS over (estimate, x2) nodes, each visited once.

    This one walk is behind every verdict, the verifier and the batch's
    refill check.  Root n is (observer position ``estimate[n]``, ``x2s[n]``),
    at most one per estimate; the roots it keeps, copied, seed the queue in
    that order, and events expand in declaration order.  On move (e, j) a
    node's child is (j, ``steps[e](x2) & masks[j]``).  With *tables*, the
    prefilled byte tables of the rows *steps* take (``RowTable.reach_tables``
    or ``avoid_tables``, 9 to 16 states; see :func:`~opaq.core.byte_tables`),
    a second node loop reads each child's step inline, from the node's two
    bytes taken once for all events; it is the step loop line for line
    otherwise, so both give the same walk.  ``first[j]`` holds the x2
    of the first node met at position j, seeded from the roots, and an edge
    walk keeps that node's position in ``node_at[j]``.  A child whose x2 is
    ``first[j]`` is that node, found by one list read; a live child at a
    position with no node yet becomes its first node.  Only a second,
    different x2 at a position is keyed by the int ``x2 << w | j`` in the
    walk's visited dict.  New nodes from either path are appended, then
    checked for the hit and the cap alike.  BFS meets each node at its
    shallowest depth, so reachability of an empty-``x2`` node within depth
    *k* (None: unbounded) is decided exactly.

    With *stop_at_empty* the walk returns the position of the first node
    whose ``x2`` is empty, which gives the shortest (then lexicographically
    least by construction) witness.  Otherwise it runs to exhaustion,
    appending every (node, event position, node) edge to *edges* when
    given.  More than *max_states* nodes raise ResourceLimitError, whose
    message names the *search*.  With *weak*, dead roots and children
    (``x2`` equal to the estimate, see the module docstring) are neither
    queued, recorded nor counted.  Roots and children whose ``x2`` meets
    *core*, the persistent core of the rows *steps* take (see the module
    docstring), are dropped the same way and do not count against
    *max_states* either; a dropped root leaves its position to the first
    kept child that reaches it.
    """
    masks, moves = obs.masks, obs.moves
    limit = float("inf") if max_states is None else max_states
    # Roots are dropped by the children's rule, before they count.
    roots = [(j, x2) for j, x2 in zip(estimate, x2s) if not (weak and x2 == masks[j] or x2 & core)]
    estimate, x2s = [j for j, _ in roots], [x2 for _, x2 in roots]
    # The roots go in as a block, checked as if one at a time: an empty
    # root at position p is the hit when the p roots before it fit under
    # the cap, and the cap is passed otherwise.
    hit = x2s.index(0) if stop_at_empty and 0 in x2s else None
    if hit is not None and hit <= limit:
        del estimate[hit + 1:], x2s[hit + 1:]
    elif len(x2s) > limit:
        raise ResourceLimitError(f"{search} exceeded {max_states} states")
    walk = Walk(estimate, x2s, [-1] * len(x2s), [-1] * len(x2s), [0])
    # A K = 0 walk only seeds its roots.
    if hit is not None or k == 0 or not x2s:
        return walk, hit
    _, _, parent, event, levels = walk
    w = len(masks).bit_length()
    seen: dict[int, int] = {}
    by_event = tuple(enumerate(steps if tables is None else tables))
    first = [-1] * len(masks)
    for j, x2 in zip(estimate, x2s):
        first[j] = x2
    # One test, false in the verifier and refill walks, skips both rules.
    drops = weak or core
    node_at = None
    if edges is not None:
        node_at = [-1] * len(masks)
        for n, j in enumerate(estimate):
            node_at[j] = n
    start = 0
    # Each pass expands one level and appends the next behind it.
    while start < len(x2s) and (k is None or len(levels) <= k):
        end = len(x2s)
        levels.append(end)
        if tables is None:
            for n in range(start, end):
                x2, row = x2s[n], moves[estimate[n]]
                for e, step in by_event:
                    j = row[e]
                    if j < 0:
                        continue
                    c2 = step(x2) & masks[j]
                    f = first[j]
                    if c2 == f:
                        if edges is not None:
                            edges.append((n, e, node_at[j]))
                        continue
                    if drops and (weak and c2 == masks[j] or c2 & core):
                        continue
                    if f < 0:
                        m = len(x2s)
                        first[j] = c2
                        if node_at is not None:
                            node_at[j] = m
                    else:
                        key = c2 << w | j
                        m = seen.get(key)
                        if m is not None:
                            if edges is not None:
                                edges.append((n, e, m))
                            continue
                        m = seen[key] = len(x2s)
                    estimate.append(j)
                    x2s.append(c2)
                    parent.append(n)
                    event.append(e)
                    if stop_at_empty and not c2:
                        return walk, m
                    if m >= limit:
                        raise ResourceLimitError(f"{search} exceeded {max_states} states")
                    if edges is not None:
                        edges.append((n, e, m))
        else:
            # The step loop above with each step read inline from the
            # node's two bytes; every other line is the same.
            for n in range(start, end):
                x2, row = x2s[n], moves[estimate[n]]
                low, high = x2 & 255, x2 >> 8
                for e, (lo, hi) in by_event:
                    j = row[e]
                    if j < 0:
                        continue
                    c2 = (lo[low] | hi[high]) & masks[j]
                    f = first[j]
                    if c2 == f:
                        if edges is not None:
                            edges.append((n, e, node_at[j]))
                        continue
                    if drops and (weak and c2 == masks[j] or c2 & core):
                        continue
                    if f < 0:
                        m = len(x2s)
                        first[j] = c2
                        if node_at is not None:
                            node_at[j] = m
                    else:
                        key = c2 << w | j
                        m = seen.get(key)
                        if m is not None:
                            if edges is not None:
                                edges.append((n, e, m))
                            continue
                        m = seen[key] = len(x2s)
                    estimate.append(j)
                    x2s.append(c2)
                    parent.append(n)
                    event.append(e)
                    if stop_at_empty and not c2:
                        return walk, m
                    if m >= limit:
                        raise ResourceLimitError(f"{search} exceeded {max_states} states")
                    if edges is not None:
                        edges.append((n, e, m))
        start = end
    return walk, None


def _verdict(table: RowTable, obs: Observer, walk: Walk, hit: int | None) -> Verdict:
    """Verdict of a walk whose first empty-x2 node is *hit* (None: opaque).

    The witness follows *hit*'s parents, then the observer's.
    """
    if hit is None:
        return Verdict(True)
    continuation = []
    n = hit
    while walk.parent[n] >= 0:
        continuation.append(obs.events[walk.event[n]])
        n = walk.parent[n]
    prefix = []
    j = walk.estimate[n]
    while j:
        i = obs.parents[j]
        prefix.append(obs.events[obs.moves[i].index(j)])
        j = i
    node = (table.state_set(obs.masks[walk.estimate[hit]]), table.state_set(walk.x2[hit]))
    return Verdict(False, Witness(tuple(reversed(prefix)), tuple(reversed(continuation)), node))


def _search(
    nfa: Nfa, obs: Observer | None, k: int | None, weak: bool, max_states: int | None, search: str
) -> Verdict:
    """The weak search (*weak*) or the K-step strong one, to depth *k* (None: unbounded).

    Every estimate roots a walk at its nonsecret part; see the module
    docstring for the core and the roots that :func:`_explore` drops.
    """
    if k is not None and k < 0:
        raise ValueError("k must be nonnegative")
    table = row_table(nfa)
    core = table.reach_core if weak else table.avoid_core
    # Certified by the core; see the module docstring.
    if table.initial & core:
        return Verdict(True)
    if obs is None:
        obs = build_observer(nfa)
    steps, tables = (table.reach_steps, table.reach_tables) if weak else (table.avoid_steps, table.avoid_tables)
    nonsecret = table.nonsecret
    walk, hit = _explore(
        obs, range(len(obs.masks)), [m & nonsecret for m in obs.masks], steps, k, True,
        tables=tables, weak=weak, core=core, max_states=max_states, search=search,
    )
    return _verdict(table, obs, walk, hit)


def verify_k_step_weak(
    nfa: Nfa, k: int, obs: Observer | None = None, max_states: int | None = None
) -> Verdict:
    """Opaque iff every tree node over every secret-intersecting root keeps x2 nonempty.

    More than *max_states* visited pairs raise ResourceLimitError, here and
    in the other verdict searches.
    """
    return _search(nfa, obs, k, True, max_states, "k-step weak search")


def verify_current_state_opacity(nfa: Nfa, obs: Observer | None = None) -> Verdict:
    """No reachable estimate may consist of secret states only.

    This is the weak check at K=0: a root's x2 is empty exactly when its
    estimate has no nonsecret state.  Its nodes are the roots alone, one per
    estimate, so the observer's state cap already bounds it.
    """
    return _search(nfa, obs, 0, True, None, "")


def verify_infinite_step_weak(
    nfa: Nfa, obs: Observer | None = None, max_states: int | None = None
) -> Verdict:
    """Unbounded pair-graph exploration with global deduplication.

    Pairs number at most 3^|X| - 1 (x2 lies within its estimate, which is
    never empty), so the search terminates without an explicit depth bound;
    opaque iff no reachable pair has an empty second component.
    """
    return _search(nfa, obs, None, True, max_states, "infinite-step weak search")


def tree_dot(tree: StateTree, name: str) -> str:
    """Deterministic DOT rendering of *tree* as the graph *name*.

    The exports name a weak tree ``weak_tree`` and an SST ``sst``; nodes are
    numbered in creation order, and edge n - 1 ends at node n.
    """
    n = tree.node_count
    edges = zip(islice(tree.parent, 1, None), islice(tree.event, 1, None), range(1, n))
    return dot_graph(name, "TB", map(format_pair, tree.x1, tree.x2), repeat("box", n), edges, numbered=True)
