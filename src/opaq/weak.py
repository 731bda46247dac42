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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable

from .core import (
    InvariantError, Nfa, ResourceLimitError, RowTable, StateSet, dot_quote, format_pair, row_table, union,
)
from .observer import Observer, build_observer

Pair = tuple[StateSet, StateSet]

# A pair-search node over the observer: (estimate position, x1 mask, x2
# mask, parent node position or -1, event position from the parent, depth).
Node = tuple[int, int, int, int, int, int]
# Child pair of (x1, x2) on event position e into estimate position j.
Child = Callable[[int, int, int, int], tuple[int, int]]


@dataclass(frozen=True)
class Witness:
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


@dataclass(frozen=True)
class Verdict:
    opaque: bool
    witness: Witness | None = None

    def __post_init__(self) -> None:
        if self.opaque != (self.witness is None):
            raise InvariantError("a verdict has a witness exactly when it is not opaque")


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


@dataclass(eq=False)
class TreeNode:
    x1: StateSet
    x2: StateSet
    depth: int


@dataclass(eq=False)
class StateTree:
    """Rooted, edge-labeled tree of (x1, x2) pairs of depth at most K."""

    root_state: StateSet
    root: TreeNode
    nodes: tuple[TreeNode, ...]
    edges: tuple[tuple[TreeNode, str, TreeNode], ...]

    @property
    def node_count(self) -> int:
        return len(self.nodes)


def _weak_roots(table: RowTable, obs: Observer) -> list[tuple[int, int, int]]:
    # Each secret-intersecting estimate, split into its secret part (x1)
    # and its nonsecret part (x2).
    secret, nonsecret = table.secret, table.nonsecret
    return [(i, m & secret, m & nonsecret) for i, m in enumerate(obs.masks) if m & secret]


def _weak_child(table: RowTable) -> Child:
    reach, support = table.reach, table.support
    return lambda e, j, x1, x2: (
        union(reach[e], x1 & support[e]),
        union(reach[e], x2 & support[e]),
    )


def _grow_tree(
    table: RowTable,
    obs: Observer,
    root: tuple[int, int, int],
    k: int,
    child: Child,
) -> StateTree:
    # Duplicate pairs within one tree are deliberately not merged; the node
    # count stays within the structural cap 1+|Eo|+...+|Eo|^K.  Each mask
    # is named once per tree; nodes share the immutable StateSet tuples.
    name = cache(table.state_set)
    i, x1, x2 = root
    root_node = TreeNode(name(x1), name(x2), 0)
    nodes = [root_node]
    edges = []
    frontier = [(root_node, i, x1, x2)]
    for depth in range(1, k + 1):
        nxt = []
        for node, i, x1, x2 in frontier:
            for e, j in obs.moves[i]:
                c1, c2 = child(e, j, x1, x2)
                new = TreeNode(name(c1), name(c2), depth)
                nodes.append(new)
                edges.append((node, obs.events[e], new))
                nxt.append((new, j, c1, c2))
        frontier = nxt
    return StateTree(obs.states[root[0]], root_node, tuple(nodes), tuple(edges))


def _tree_root(nfa: Nfa, obs: Observer, root_state: StateSet, k: int) -> int:
    """Position of a valid tree root in ``obs.states``; ValueError otherwise."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    i = obs.index.get(root_state)
    if i is None:
        raise ValueError(f"root {format_pair(root_state, ())} is not a reachable observer state")
    if not obs.masks[i] & row_table(nfa).secret:
        raise ValueError("root estimate contains no secret state")
    return i


def build_weak_state_tree(nfa: Nfa, obs: Observer, root_state: StateSet, k: int) -> StateTree:
    """Materialize the depth-K tree rooted at a secret-intersecting estimate."""
    i = _tree_root(nfa, obs, root_state, k)
    table = row_table(nfa)
    m = obs.masks[i]
    return _grow_tree(table, obs, (i, m & table.secret, m & table.nonsecret), k, _weak_child(table))


def secret_intersecting_roots(nfa: Nfa, obs: Observer) -> tuple[StateSet, ...]:
    secret = row_table(nfa).secret
    return tuple(s for s, m in zip(obs.states, obs.masks) if m & secret)


def tree_node_count(nfa: Nfa, obs: Observer, k: int) -> int:
    """Summed node count of the depth-K trees over every secret-intersecting root.

    A tree node stands for an observation string of length at most K that
    the observer accepts from the root, for weak trees and SSTs alike, so a
    per-depth count of observer paths gives the total without building a
    tree: the cost grows with K times the observer's transitions, not
    with |Eo|^K.
    """
    secret = row_table(nfa).secret
    paths = [1 if m & secret else 0 for m in obs.masks]
    total = sum(paths)
    for _ in range(k):
        nxt = [0] * len(paths)
        for count, out in zip(paths, obs.moves):
            for _, j in out:
                nxt[j] += count
        paths = nxt
        level = sum(paths)
        if not level:
            break
        total += level
    return total


def _explore(
    obs: Observer,
    roots: list[tuple[int, int, int]],
    child: Child,
    k: int | None,
    stop_at_empty: bool,
    *,
    edges: list[tuple[int, int, int]] | None = None,
    max_states: int | None = None,
    search: str = "verifier",
) -> tuple[list[Node], int | None]:
    """Multi-source BFS over (estimate, x1, x2) nodes with a global visited set.

    This one walk is behind every verdict and the verifier.  Roots seed the
    queue in observer construction order and events expand in declaration
    order; the discovery list is the FIFO queue.  A child pair depends only
    on its parent pair and the event, and BFS meets each pair at its
    shallowest depth, so reachability of an empty-``x2`` node within depth
    *k* (None: unbounded) is decided exactly.

    With *stop_at_empty* the walk returns the position of the first node
    whose ``x2`` is empty, which gives the shortest (then lexicographically
    least by construction) witness.  Otherwise it runs to exhaustion,
    appending every (node, event position, node) edge to *edges* when
    given.  More than *max_states* nodes raise ResourceLimitError, whose
    message names the *search*.
    """
    nodes: list[Node] = []
    seen: dict[tuple[int, int, int], int] = {}
    for root in roots:
        if root not in seen:
            seen[root] = len(nodes)
            nodes.append((*root, -1, -1, 0))
            if stop_at_empty and not root[2]:
                return nodes, len(nodes) - 1
    moves = obs.moves
    # nodes grows while the loop walks it: the walk is the queue.
    for n, (i, x1, x2, _, _, depth) in enumerate(nodes):
        if k is not None and depth >= k:
            continue
        for e, j in moves[i]:
            c1, c2 = child(e, j, x1, x2)
            key = (j, c1, c2)
            m = seen.get(key)
            if m is None:
                m = seen[key] = len(nodes)
                nodes.append((j, c1, c2, n, e, depth + 1))
                if stop_at_empty and not c2:
                    return nodes, m
                if max_states is not None and len(nodes) > max_states:
                    raise ResourceLimitError(f"{search} exceeded {max_states} states")
            if edges is not None:
                edges.append((n, e, m))
    return nodes, None


def _verdict(table: RowTable, obs: Observer, nodes: list[Node], hit: int | None) -> Verdict:
    """Verdict of a stopped walk; the witness follows *hit*'s parents, then the observer's."""
    if hit is None:
        return Verdict(True)
    continuation = []
    n = hit
    while nodes[n][3] >= 0:
        continuation.append(obs.events[nodes[n][4]])
        n = nodes[n][3]
    prefix = []
    j = nodes[n][0]
    while j:
        i = obs.parents[j]
        prefix.append(obs.events[next(e for e, t in obs.moves[i] if t == j)])
        j = i
    _, x1, x2 = nodes[hit][:3]
    node = (table.state_set(x1), table.state_set(x2))
    return Verdict(False, Witness(tuple(reversed(prefix)), tuple(reversed(continuation)), node))


def _weak_search(nfa: Nfa, obs: Observer | None, k: int | None, max_states: int | None = None, search: str = "") -> Verdict:
    if obs is None:
        obs = build_observer(nfa)
    table = row_table(nfa)
    nodes, hit = _explore(
        obs, _weak_roots(table, obs), _weak_child(table), k, True,
        max_states=max_states, search=search,
    )
    return _verdict(table, obs, nodes, hit)


def verify_k_step_weak(
    nfa: Nfa, k: int, obs: Observer | None = None, max_states: int | None = None
) -> Verdict:
    """Opaque iff every tree node over every secret-intersecting root keeps x2 nonempty.

    More than *max_states* visited pairs raise ResourceLimitError, here and
    in the other verdict searches.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _weak_search(nfa, obs, k, max_states, "k-step weak search")


def verify_current_state_opacity(nfa: Nfa, obs: Observer | None = None) -> Verdict:
    """No reachable estimate may consist of secret states only.

    This is the weak check at K=0: a root's x2 is empty exactly when its
    estimate has no nonsecret state.  Its nodes are the roots alone, one per
    estimate, so the observer's state cap already bounds it.
    """
    return _weak_search(nfa, obs, 0)


def verify_infinite_step_weak(
    nfa: Nfa, obs: Observer | None = None, max_states: int | None = None
) -> Verdict:
    """Unbounded pair-graph exploration with global deduplication.

    Pairs number at most 4^|X|, so the search terminates without an explicit
    depth bound; opaque iff no reachable pair has an empty second component.
    """
    return _weak_search(nfa, obs, None, max_states, "infinite-step weak search")


def tree_dot(tree: StateTree, name: str = "state_tree") -> str:
    """Deterministic DOT rendering; nodes are numbered in creation order."""
    ids = {id(node): f"n{i}" for i, node in enumerate(tree.nodes)}
    lines = [f"digraph {name} {{", "  rankdir=TB;"]
    for node in tree.nodes:
        label = dot_quote(format_pair(node.x1, node.x2))
        lines.append(f"  {ids[id(node)]} [shape=box,label={label}];")
    for src, event, dst in tree.edges:
        lines.append(f"  {ids[id(src)]} -> {ids[id(dst)]} [label={dot_quote(event)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
