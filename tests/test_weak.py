from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tracemalloc
from collections import deque

import pytest
from hypothesis import Phase, example, find, given, settings
from hypothesis import strategies as st

import opaq.cli
import opaq.core
import opaq.crosscheck
import opaq.strong
import opaq.weak
from opaq import (
    build_observer,
    build_weak_state_tree,
    load_model,
    tree_dot,
    validate_model,
    verdict_to_dict,
    verify_current_state_opacity,
    verify_infinite_step_strong,
    verify_infinite_step_weak,
    verify_k_step_strong,
    verify_k_step_weak,
)
from opaq.core import InvariantError, ResourceLimitError, model_to_dict, row_table, union
from opaq.oracle import OracleConfig, random_nfa
from opaq.weak import Verdict, Witness

from conftest import structural_checks
from reference import avoid_core, observer_state_after, reach_core, successors
from test_observer import nth_last_dict, random_table_model_dicts
from test_reach import small_models

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def chain(tree):
    # (x1, x2) pairs along the unique path of a linear tree.
    child = {p: n for n, p in enumerate(tree.parent) if p >= 0}
    out = [(tree.x1[0], tree.x2[0])]
    n = 0
    while n in child:
        n = child[n]
        out.append((tree.x1[n], tree.x2[n]))
    return out


def test_g2_tree_from_147(g2):
    obs = build_observer(g2)
    tree = build_weak_state_tree(g2, obs, ("1", "4", "7"), 2)
    assert chain(tree) == [
        (("1",), ("4", "7")),
        (("2",), ("5", "8")),
        (("3",), ("6", "9")),
    ]


def test_g2_tree_from_369_self_loops(g2):
    obs = build_observer(g2)
    tree = build_weak_state_tree(g2, obs, ("3", "6", "9"), 2)
    assert chain(tree) == [(("9",), ("3", "6"))] * 3
    assert tree.node_count == 3


def test_weak_tree_pattern_chains(weak_tree_pattern):
    nfa = weak_tree_pattern
    obs = build_observer(nfa)
    first = build_weak_state_tree(nfa, obs, ("2", "5"), 2)
    assert chain(first) == [
        (("2",), ("5",)),
        (("3",), ("6",)),
        (("4",), ("7",)),
    ]
    second = build_weak_state_tree(nfa, obs, ("4", "7"), 2)
    assert chain(second) == [
        (("7",), ("4",)),
        (("5",), ("2",)),
        (("6",), ("3",)),
    ]
    assert verify_k_step_weak(nfa, 2).opaque


def test_tree_requires_secret_intersecting_reachable_root(g2):
    obs = build_observer(g2)
    with pytest.raises(ValueError, match="no secret"):
        build_weak_state_tree(g2, obs, ("0",), 1)
    with pytest.raises(ValueError, match="not a reachable"):
        build_weak_state_tree(g2, obs, ("1", "4"), 1)
    # The root is named as a set, not as a pair.
    with pytest.raises(ValueError, match=r"^root \{0,1\} is not a reachable observer state$"):
        build_weak_state_tree(g2, obs, ("0", "1"), 1)
    # The root is found by its mask: an unknown name, or a tuple that is not
    # its mask's canonical form, names no estimate.
    for root in (("1", "4", "z"), ("4", "1", "7"), ("1", "4", "4", "7"), ()):
        with pytest.raises(ValueError, match=r" is not a reachable observer state$"):
            build_weak_state_tree(g2, obs, root, 1)
    assert "states" not in vars(obs)


def test_a_tree_names_only_its_own_nodes(g2):
    # The trees find their root by mask, so no other estimate is named.
    obs = build_observer(g2)
    assert build_weak_state_tree(g2, obs, ("1", "4", "7"), 2).node_count == 3
    assert opaq.strong.build_sst(g2, obs, ("1", "4", "7"), 2).node_count == 3
    assert "states" not in vars(obs)


def test_g2_weak_verdicts(g2):
    assert verify_k_step_weak(g2, 2).opaque
    assert verify_k_step_weak(g2, 0).opaque
    assert verify_infinite_step_weak(g2).opaque


def test_current_state_opacity_examples(g2):
    assert verify_current_state_opacity(g2).opaque
    all_secret = validate_model(
        {
            "states": ["0"],
            "events": [{"name": "a", "observable": True}],
            "initial": ["0"],
            "secret": ["0"],
            "transitions": [],
        }
    )
    verdict = verify_current_state_opacity(all_secret)
    assert not verdict.opaque
    assert verdict.witness.observation == ()
    no_secret = validate_model(
        {
            "states": ["0"],
            "events": [{"name": "a", "observable": True}],
            "initial": ["0"],
            "secret": [],
            "transitions": [["0", "a", "0"]],
        }
    )
    assert verify_current_state_opacity(no_secret).opaque
    assert verify_infinite_step_weak(no_secret).opaque


def test_verdict_serialization_shape(g2):
    verdict = verify_k_step_weak(g2, 2)
    payload = verdict_to_dict("k-weak", 2, verdict)
    assert payload == {"property": "k-weak", "k": 2, "opaque": True, "witness": None}


def test_tree_dot_labels_pairs(g2):
    obs = build_observer(g2)
    dot = tree_dot(build_weak_state_tree(g2, obs, ("1", "4", "7"), 2), "weak_tree")
    assert '"({1},{4,7})"' in dot
    assert '"({3},{6,9})"' in dot


def test_duplicate_pairs_in_one_tree_are_kept(g2):
    obs = build_observer(g2)
    tree = build_weak_state_tree(g2, obs, ("3", "6", "9"), 3)
    # The d self-loop repeats the same pair at each depth; nothing merges.
    assert tree.node_count == 4


@pytest.mark.parametrize("structure", ["weak_tree", "sst"])
def test_a_tree_export_costs_a_few_hundred_bytes_per_node(structure):
    # nth_last6's estimates each move on both events, so the depth-12 tree
    # has 2^13 - 1 nodes.  Built and rendered, it peaked at 812-859 bytes
    # per node under tracemalloc with one object and one edge tuple per node
    # (Python 3.10-3.13), at 390-431 with parallel lists and a list of every
    # label for the DOT text, and at 317-342 with the labels streamed into
    # the node lines.
    nfa = load_model(os.path.join(FIXTURES, "nth_last6.json"))
    obs = build_observer(nfa)
    build = build_weak_state_tree if structure == "weak_tree" else opaq.strong.build_sst
    root = ("0", "1", "2", "3", "4", "5", "6", "s")
    # A first build reads the row table's lazily built rows.
    build(nfa, obs, root, 1)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        tree = build(nfa, obs, root, 12)
        text = tree_dot(tree, structure)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert tree.node_count == 2**13 - 1
    assert text.count("\n") == 2 * tree.node_count + 2
    assert peak / tree.node_count < 370


# -- properties --------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(nfa=small_models())
def test_monotone_in_k(nfa):
    verdicts = [verify_k_step_weak(nfa, k).opaque for k in range(5)]
    for earlier, later in zip(verdicts, verdicts[1:]):
        assert not (earlier is False and later is True)


@settings(max_examples=100, deadline=None)
@given(nfa=small_models())
def test_k0_equals_current_state(nfa):
    assert verify_k_step_weak(nfa, 0).opaque == verify_current_state_opacity(nfa).opaque


@settings(max_examples=60, deadline=None)
@given(nfa=small_models())
def test_large_k_equals_infinite(nfa):
    bound = 2 ** len(nfa.states) - 2
    infinite = verify_infinite_step_weak(nfa).opaque
    assert verify_k_step_weak(nfa, max(bound, 0)).opaque == infinite
    assert verify_k_step_weak(nfa, bound + 3).opaque == infinite


@settings(max_examples=80, deadline=None)
@given(nfa=small_models())
def test_tree_nodes_partition_the_estimate(nfa):
    obs = build_observer(nfa)
    secret = set(nfa.secret)
    for root in obs.states:
        if not set(root) & secret:
            continue
        tree = build_weak_state_tree(nfa, obs, root, 3)
        paths = [()]
        for n in range(1, tree.node_count):
            paths.append(paths[tree.parent[n]] + (tree.event[n],))
        access = next(
            w for w in _access_words(obs) if observer_state_after(obs, w) == root
        )
        for x1, x2, path in zip(tree.x1, tree.x2, paths):
            estimate = observer_state_after(obs, access + path)
            assert set(x1) | set(x2) == set(estimate)


def _access_words(obs):
    # Breadth-first enumeration of observations accepted by the observer.
    queue = [((), obs.initial)]
    while queue:
        word, state = queue.pop(0)
        yield word
        for event, target in successors(obs, state):
            if len(word) < 8:
                queue.append((word + (event,), target))


@settings(max_examples=80, deadline=None)
@given(nfa=small_models())
def test_witness_replays_through_the_observer(nfa):
    verdict = verify_k_step_weak(nfa, 3)
    if verdict.opaque:
        return
    w = verdict.witness
    state = observer_state_after(build_observer(nfa), w.observation)
    assert state is not None
    assert set(w.node[0]) | set(w.node[1]) <= set(state)
    assert w.node[1] == ()


def test_verdict_rejects_a_missing_or_stray_witness():
    # Not a ValueError: the CLI reports those as bad input (exit 2), not as a bug.
    assert not issubclass(InvariantError, ValueError)
    with pytest.raises(InvariantError):
        Verdict(False)
    with pytest.raises(InvariantError):
        Verdict(True, Witness(("a",), (), (("1",), ())))
    # _replace and _make build through the same check.
    with pytest.raises(InvariantError):
        Verdict(True)._replace(opaque=False)
    with pytest.raises(InvariantError):
        Verdict._make((False, None))
    assert Verdict(True)._replace(opaque=True) == Verdict(True)


def test_verdict_invariant_holds_under_optimize():
    # Under -O an assert-based check would be stripped and Verdict(False) accepted.
    path = [os.path.join(os.path.dirname(__file__), "..", "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", "from opaq.weak import Verdict; Verdict(False)"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert "InvariantError" in proc.stderr


def bfs_access_strings(obs):
    # FIFO over the observer, successors in event declaration order: the
    # first observation to reach an estimate is its shortest, ties broken
    # by declaration order.
    access = {obs.initial: ()}
    queue = deque([obs.initial])
    while queue:
        current = queue.popleft()
        for event, target in successors(obs, current):
            if target not in access:
                access[target] = access[current] + (event,)
                queue.append(target)
    return access


@settings(max_examples=150, deadline=None)
@given(nfa=small_models(), k=st.integers(0, 3))
def test_witness_prefix_is_the_shortest_access_string(nfa, k):
    obs = build_observer(nfa)
    access = bfs_access_strings(obs)
    verdicts = (
        verify_current_state_opacity(nfa, obs),
        verify_k_step_weak(nfa, k, obs),
        verify_k_step_strong(nfa, k, obs),
        verify_infinite_step_weak(nfa, obs),
        verify_infinite_step_strong(nfa, obs),
    )
    for verdict in verdicts:
        if not verdict.opaque:
            prefix = verdict.witness.prefix
            assert prefix == access[observer_state_after(obs, prefix)]


# -- dead pairs ----------------------------------------------------------------
#
# The weak searches drop every child with x1 within x2, and the weak and SST
# searches drop every root and child whose x2 meets the persistent core.
# The reference below is the walk without those rules, written out from the
# row table for all three families: a FIFO over (estimate, x1, x2) with one
# visited set, roots in observer order, events in declaration order,
# stopping at the first empty x2.  With *pruned* it is instead the
# walk the library takes: nodes keyed on (estimate, x2) alone, a weak walk
# drops its dead children, and a search drops what meets the core, which
# comes from the set-based reference.


def full_walk(obs, roots, step, k, stop=True, weak=False, pruned=False, core=0):
    """Nodes, first empty-x2 position, level starts and edges of the BFS."""

    def key(node):
        return node[::2] if pruned else node

    nodes, seen, levels, edges = [], {}, [0], []
    for root in roots:
        if root[2] & core:
            continue
        if key(root) not in seen:
            seen[key(root)] = len(nodes)
            nodes.append((*root, -1, -1, 0))
            if stop and not root[2]:
                return nodes, len(nodes) - 1, levels, edges
    for n, (i, x1, x2, _, _, depth) in enumerate(nodes):
        if k is not None and depth >= k:
            continue
        if depth == len(levels) - 1:
            levels.append(len(nodes))
        for e, j in enumerate(obs.moves[i]):
            if j < 0:
                continue
            child = (j, *step(e, j, x1, x2))
            if pruned and weak and not child[1] & ~child[2] or child[2] & core:
                continue
            if key(child) not in seen:
                seen[key(child)] = len(nodes)
                nodes.append((*child, n, e, depth + 1))
                if stop and not child[2]:
                    return nodes, len(nodes) - 1, levels, edges
            edges.append((n, e, seen[key(child)]))
    return nodes, None, levels, edges


def state_mask(nfa, states):
    return sum(1 << nfa.states.index(s) for s in states)


def reference_walk(nfa, obs, family, k, stop=True, pruned=False, root=None):
    """The unpruned walk of a weak, SST or verifier search, or with *pruned*
    the library's.  With *root*, an SST walk starts at that estimate alone,
    as the batch's refill walks do; those and the verifier prune nothing by
    the core."""
    table = row_table(nfa)
    reach, avoid, support, masks = table.reach, table.avoid, table.support, obs.masks
    searched = pruned and root is None
    if family == "weak":
        core = state_mask(nfa, reach_core(nfa) if searched else ())
        roots = [(i, m & table.secret, m & table.nonsecret) for i, m in enumerate(masks) if m & table.secret]
        return full_walk(obs, roots, lambda e, j, x1, x2: (
            union(reach[e], x1 & support[e]), union(reach[e], x2 & support[e])
        ), k, stop, True, pruned, core)
    core = state_mask(nfa, avoid_core(nfa) if searched and family == "sst" else ())
    if family == "sst":
        roots = [(i, m, m & table.nonsecret) for i, m in enumerate(masks) if root in (None, i)]
    else:
        roots = [(0, masks[0], table.clean & masks[0])]
    return full_walk(obs, roots, lambda e, j, x1, x2: (
        masks[j], union(avoid[e], x2 & support[e]) & masks[j]
    ), k, stop, False, pruned, core)


def reference(nfa, obs, family, k):
    """The unpruned walk's verdict: its continuation follows its own parents
    back to a root, whose prefix is the root's BFS access string."""
    nodes, hit, _, _ = reference_walk(nfa, obs, family, k)
    if hit is None:
        return Verdict(True)
    continuation = []
    n = hit
    while nodes[n][3] >= 0:
        continuation.append(obs.events[nodes[n][4]])
        n = nodes[n][3]
    prefix = bfs_access_strings(obs)[obs.states[nodes[n][0]]]
    _, x1, x2 = nodes[hit][:3]
    state_set = row_table(nfa).state_set
    return Verdict(False, Witness(prefix, tuple(reversed(continuation)), (state_set(x1), state_set(x2))))


def merging():
    """A secret and a nonsecret branch behind ``a`` that merge on ``b`` and overlap on ``c``.

    From the root ({s},{t}), ``b`` gives the dead pair ({u},{u}) and ``c``
    the live pair ({u,v},{u}), whose ``d`` step empties x2.
    """
    return validate_model(
        {
            "states": ["0", "s", "t", "u", "v", "w"],
            "events": [{"name": e, "observable": True} for e in "abcd"],
            "initial": ["0"],
            "secret": ["s"],
            "transitions": [
                ["0", "a", "s"], ["0", "a", "t"],
                ["s", "b", "u"], ["t", "b", "u"],
                ["s", "c", "u"], ["s", "c", "v"], ["t", "c", "u"],
                ["u", "b", "u"], ["v", "d", "w"],
            ],
        }
    )


def check_against_reference(nfa):
    obs = build_observer(nfa)
    assert verify_current_state_opacity(nfa, obs) == reference(nfa, obs, "weak", 0)
    for k in range(9):
        assert verify_k_step_weak(nfa, k, obs) == reference(nfa, obs, "weak", k)
        assert verify_k_step_strong(nfa, k, obs) == reference(nfa, obs, "sst", k)
    assert verify_infinite_step_weak(nfa, obs) == reference(nfa, obs, "weak", None)
    assert verify_infinite_step_strong(nfa, obs) == reference(nfa, obs, "verifier", None)


@settings(max_examples=200, deadline=None)
@given(nfa=small_models())
def test_dropping_dead_pairs_keeps_every_verdict_and_witness(nfa):
    check_against_reference(nfa)


def test_merging_branches_keep_their_verdicts_and_witness():
    nfa = merging()
    check_against_reference(nfa)
    verdict = verify_infinite_step_weak(nfa)
    assert verdict.witness == Witness(("a",), ("c", "d"), (("w",), ()))
    assert verify_k_step_weak(nfa, 1).opaque
    assert not verify_k_step_weak(nfa, 2).opaque


def every_root(nfa, obs):
    """Every estimate's position and nonsecret part: the roots that the weak
    and SST searches pass :func:`opaq.weak._explore`."""
    nonsecret = row_table(nfa).nonsecret
    return range(len(obs.masks)), [m & nonsecret for m in obs.masks]


def recorded_walks(search):
    """(walk, hit, edges or None) of each pair walk that *search* runs."""
    calls = []
    explore = opaq.weak._explore

    def recorded(*args, **kwargs):
        walk, hit = explore(*args, **kwargs)
        calls.append((walk, hit, kwargs.get("edges")))
        return walk, hit

    with pytest.MonkeyPatch.context() as patch:
        for module in (opaq.weak, opaq.strong, opaq.crosscheck):
            patch.setattr(module, "_explore", recorded)
        search()
    return calls


def walked_pairs(search):
    """Node count of each pair walk that *search* runs."""
    return [len(walk.x2) for walk, _, _ in recorded_walks(search)]


def nth_last6_without_core():
    """nth_last6 with one more observable event, ``c``, on which no state moves.

    Its observer and its walks are nth_last6's without the core rule: ``c``
    adds no move, but no state moves on every event any more, so both
    persistent cores are empty.  Every estimate of nth_last6 holds ``0``,
    which loops on ``a`` and ``b``, so its own weak and SST searches visit
    no pair.
    """
    with open(os.path.join(FIXTURES, "nth_last6.json"), encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["events"].append({"name": "c", "observable": True})
    nfa = validate_model(raw)
    assert row_table(nfa).reach_core == row_table(nfa).avoid_core == 0
    return nfa


def test_weak_walks_visit_live_pairs_only(g2):
    # nth_last6's secret state is a dead end, so without the core rule its
    # 32 roots are its only live pairs (the unpruned walks visit 96); every
    # pair of g2 is live.  nth_last6's initial estimate meets its core, so
    # its weak searches are certified and run no walk.
    nth_last = load_model(os.path.join(FIXTURES, "nth_last6.json"))
    obs = build_observer(nth_last)
    assert walked_pairs(lambda: verify_k_step_weak(nth_last, 2, obs)) == []
    assert walked_pairs(lambda: verify_infinite_step_weak(nth_last, obs)) == []
    assert verify_k_step_weak(nth_last, 2, obs) == verify_infinite_step_weak(nth_last, obs) == Verdict(True)
    for nfa, live, every in ((nth_last6_without_core(), 32, 96), (g2, 6, 6)):
        obs = build_observer(nfa)
        assert walked_pairs(lambda: verify_k_step_weak(nfa, 2, obs)) == [live]
        assert walked_pairs(lambda: verify_infinite_step_weak(nfa, obs)) == [live]
        assert len(reference_walk(nfa, obs, "weak", None)[0]) == every
    # The merging model's root, its overlapping child and the violation;
    # the unpruned walk also visits the dead ({u},{u}) second.
    nfa = merging()
    assert walked_pairs(lambda: verify_infinite_step_weak(nfa)) == [3]
    nodes, *_ = reference_walk(nfa, build_observer(nfa), "weak", None)
    named = [(row_table(nfa).state_set(x1), row_table(nfa).state_set(x2)) for _, x1, x2, *_ in nodes]
    assert named == [(("s",), ("t",)), (("u",), ("u",)), (("u", "v"), ("u",)), (("w",), ())]


def test_a_search_whose_roots_all_meet_the_core_walks_nothing():
    # Every estimate of nth_last6 holds 0, which is in both cores, so every
    # root meets the core.  The initial estimate holds 0 too, so both
    # searches are certified and run no walk, and the verdict is the
    # unpruned walk's.
    nth_last = load_model(os.path.join(FIXTURES, "nth_last6.json"))
    obs = build_observer(nth_last)
    table = row_table(nth_last)
    walks = ((table.reach_steps, True, table.reach_core), (table.avoid_steps, False, table.avoid_core))
    for steps, weak, core in walks:
        walk, hit = opaq.weak._explore(obs, *every_root(nth_last, obs), steps, 0, True, weak=weak, core=core)
        assert walk == ([], [], [], [], [0]) and hit is None
    for search, family in ((verify_k_step_weak, "weak"), (verify_k_step_strong, "sst")):
        assert recorded_walks(lambda: search(nth_last, 2, obs)) == []
        assert search(nth_last, 2, obs) == reference(nth_last, obs, family, 2) == Verdict(True)


def test_dead_pairs_do_not_count_against_the_cap():
    # Without the core rule, nth_last6's 32 roots are its only live pairs;
    # the unpruned walk has 96.
    assert verify_infinite_step_weak(nth_last6_without_core(), max_states=32).opaque
    # The merging model's walk stops at its third live pair; the dead one
    # would have been the second.
    nfa = merging()
    assert not verify_infinite_step_weak(nfa, max_states=2).opaque
    with pytest.raises(ResourceLimitError, match="infinite-step weak search exceeded 1 states"):
        verify_infinite_step_weak(nfa, max_states=1)


def test_roots_count_against_the_cap():
    # Without the core rule, nth_last6's weak walk visits its 32 roots and
    # nothing else, and its SST walk its 64 roots at K = 0: one fewer
    # allowed pair stops each walk while it seeds the roots.
    without_core = nth_last6_without_core()
    with pytest.raises(ResourceLimitError, match="infinite-step weak search exceeded 31 states"):
        verify_infinite_step_weak(without_core, max_states=31)
    with pytest.raises(ResourceLimitError, match="k-step strong search exceeded 63 states"):
        verify_k_step_strong(without_core, 0, max_states=63)
    assert verify_k_step_strong(without_core, 0, max_states=64).opaque
    # nth_last6's own searches are certified by the core at every K, K = 0
    # included, so they walk nothing and no cap is passed.
    nth_last = load_model(os.path.join(FIXTURES, "nth_last6.json"))
    assert verify_infinite_step_weak(nth_last, max_states=0).opaque
    for k in (0, 2):
        assert verify_k_step_weak(nth_last, k, max_states=0).opaque
        assert verify_k_step_strong(nth_last, k, max_states=0).opaque


def secret_last():
    """Three secret-free estimates, then the all-secret {s}.

    ``0 -a-> 1 -a-> s`` and ``0 -b-> 2``; no state moves on both events, so
    both cores are empty.  The observer is {0}, {1}, {2}, {s} in position
    order, so {s} roots the only live weak root and is the hit at K = 0.
    """
    return validate_model({
        "states": ["0", "1", "2", "s"],
        "events": [{"name": e, "observable": True} for e in "ab"],
        "initial": ["0"],
        "secret": ["s"],
        "transitions": [["0", "a", "1"], ["0", "b", "2"], ["1", "a", "s"]],
    })


def test_dead_roots_count_against_no_cap():
    # Both models start at a secret-free estimate and are not certified.
    # The weak searches root every estimate and drop the dead roots before
    # the cap: nth_last6_without_core keeps its 32 secret-intersecting
    # roots of 64, and one pair fewer stops it while it seeds them.
    nfa = nth_last6_without_core()
    obs = build_observer(nfa)
    assert not obs.masks[0] & row_table(nfa).secret and not certified(nfa, "weak")
    live = 32
    assert len(obs.secret_positions) == live
    searches = (
        (lambda cap: verify_k_step_weak(nfa, 0, obs, cap), 0, "k-step weak search"),
        (lambda cap: verify_infinite_step_weak(nfa, obs, cap), None, "infinite-step weak search"),
    )
    for search, k, name in searches:
        [(walk, hit, _)] = recorded_walks(lambda: search(live))
        assert walk.estimate == list(obs.secret_positions)
        assert hit is None and search(live) == reference(nfa, obs, "weak", k) == Verdict(True)
        with pytest.raises(ResourceLimitError, match=f"^{name} exceeded {live - 1} states$"):
            search(live - 1)
    # secret_last's one live root, at position 3, is the hit: position 0
    # among the kept roots, so it fits under a cap of one, and of none.
    nfa = secret_last()
    obs = build_observer(nfa)
    assert obs.states == (("0",), ("1",), ("2",), ("s",)) and not certified(nfa, "weak")
    witness = Witness(("a", "a"), (), (("s",), ()))
    for k in (0, None):
        for cap in (1, 0):
            search = lambda k=k, cap=cap: (
                verify_k_step_weak(nfa, k, obs, cap) if k == 0 else verify_infinite_step_weak(nfa, obs, cap)
            )
            [(walk, hit, _)] = recorded_walks(search)
            assert walk.estimate == [3] and hit == reference_walk(nfa, obs, "weak", k)[1] == 0
            assert search() == reference(nfa, obs, "weak", k) == Verdict(False, witness)


def nth_last6_behind_p():
    """nth_last6 behind a fresh nonsecret initial state ``p`` whose only move is ``p -a-> 0``.

    Both cores stay {0}, but ``p`` has no ``b`` move, so it is in neither,
    and the initial estimate {p} misses them: no search is certified.
    Every other estimate holds ``0``.
    """
    with open(os.path.join(FIXTURES, "nth_last6.json"), encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["states"].insert(0, "p")
    raw["initial"] = ["p"]
    raw["transitions"].append(["p", "a", "0"])
    return validate_model(raw)


def test_the_core_prunes_the_searches_it_cannot_certify():
    # Every weak root meets the core, and so does every SST root but {p},
    # whose one child {0} meets it too.  The unpruned walks visit 96 weak
    # and 65 SST pairs.
    nfa = nth_last6_behind_p()
    obs, table = build_observer(nfa), row_table(nfa)
    assert len(obs.masks) == 65
    assert table.reach_core == table.avoid_core == state_mask(nfa, ["0"])
    assert not certified(nfa, "weak") and not certified(nfa, "sst")
    searches = [(lambda: verify_current_state_opacity(nfa, obs), "weak", 0, 0),
                (lambda: verify_infinite_step_weak(nfa, obs), "weak", None, 0)]
    for k in range(4):
        searches.append((lambda k=k: verify_k_step_weak(nfa, k, obs), "weak", k, 0))
        searches.append((lambda k=k: verify_k_step_strong(nfa, k, obs), "sst", k, 1))
    for search, family, k, pairs in searches:
        assert walked_pairs(search) == [pairs]
        assert search() == reference(nfa, obs, family, k) == Verdict(True)
    assert len(reference_walk(nfa, obs, "weak", None)[0]) == 96
    assert len(reference_walk(nfa, obs, "sst", 3)[0]) == 65


# -- root seeding ---------------------------------------------------------------
#
# ``_explore`` takes its roots as observer positions and their x2s, at most
# one per estimate, and seeds them as one block.  The reference is the loop
# it replaced, one root at a time: append the root, stop at it when its x2
# is empty, then raise once more than *max_states* roots are in.


def per_root(x2s, stop_at_empty, max_states):
    """The hit position, "cap" when the cap is passed first, or None."""
    for p, x2 in enumerate(x2s):
        if stop_at_empty and not x2:
            return p
        if p + 1 > max_states:
            return "cap"
    return None


@pytest.mark.parametrize("k", [0, 2, None])
@pytest.mark.parametrize("stop_at_empty", [True, False])
def test_roots_keep_the_per_root_hit_and_cap_order(k, stop_at_empty):
    nth_last = load_model(os.path.join(FIXTURES, "nth_last6.json"))
    obs = build_observer(nth_last)
    steps = row_table(nth_last).avoid_steps
    n = 6
    # Roots at every other estimate.
    picked = list(range(0, 2 * n, 2))
    # An empty root before, at and past each cap, or none at all.
    for empty in (None, *picked):
        x2s = [0 if i == empty else obs.masks[i] for i in picked]
        for cap in range(n + 2):
            expected = per_root(x2s, stop_at_empty, cap)
            if expected == "cap":
                with pytest.raises(ResourceLimitError, match=f"search exceeded {cap} states"):
                    opaq.weak._explore(obs, picked, x2s, steps, k, stop_at_empty, max_states=cap, search="search")
            elif expected is not None:
                walk, hit = opaq.weak._explore(obs, picked, x2s, steps, k, stop_at_empty, max_states=cap)
                assert hit == expected
                assert walk.estimate == picked[:hit + 1]
                assert walk.x2 == x2s[:hit + 1]
                assert walk.parent == walk.event == [-1] * (hit + 1)
            elif k == 0:
                walk, hit = opaq.weak._explore(obs, picked, x2s, steps, k, stop_at_empty, max_states=cap)
                assert hit is None
                assert walk == (picked, x2s, [-1] * n, [-1] * n, [0])


def test_a_k0_walk_returns_its_roots_only():
    nth_last = load_model(os.path.join(FIXTURES, "nth_last6.json"))
    obs = build_observer(nth_last)
    table = row_table(nth_last)
    positions = list(range(len(obs.masks)))
    roots = [m & table.nonsecret for m in obs.masks]
    edges = []
    walk, hit = opaq.weak._explore(obs, positions, roots, table.avoid_steps, 0, False, edges=edges)
    assert hit is None and edges == []
    assert walk.estimate == positions
    assert walk.estimate is not positions
    assert walk.x2 == roots
    assert walk.x2 is not roots
    assert walk.levels == [0]
    # The same roots at K = 1 are expanded.
    opaq.weak._explore(obs, positions, roots, table.avoid_steps, 1, False, edges=edges)
    assert len(edges) == 2 * len(roots)
    assert positions == list(range(len(obs.masks)))
    assert roots == [m & table.nonsecret for m in obs.masks]


def test_sst_children_that_are_roots_add_no_pairs():
    # Every child of an SST root on nth_last6 is the root at its estimate,
    # so without the core rule the walk stays at its 64 roots at any K; its
    # 128 edges end at them.  nth_last6's own SST search is certified by the
    # core and runs no walk.
    nth_last = load_model(os.path.join(FIXTURES, "nth_last6.json"))
    obs = build_observer(nth_last)
    assert len(obs.masks) == 64
    assert walked_pairs(lambda: verify_k_step_strong(nth_last6_without_core(), 2)) == [64]
    assert walked_pairs(lambda: verify_k_step_strong(nth_last, 2)) == []
    table = row_table(nth_last)
    edges = []
    walk, _ = opaq.weak._explore(
        obs, range(64), [m & table.nonsecret for m in obs.masks], table.avoid_steps, 2, False, edges=edges
    )
    assert walk.levels == [0, 64]
    assert len(edges) == 128 and all(m < 64 for _, _, m in edges)


# -- the walk against the reference ---------------------------------------------


def walk_rows(walk):
    return [(i, x2, p, e) for i, x2, p, e in zip(walk.estimate, walk.x2, walk.parent, walk.event)]


def reference_rows(nodes):
    return [(i, x2, p, e) for i, _, x2, p, e, _ in nodes]


def assert_walk_is_the_reference(recorded, expected):
    walk, hit, edges = recorded
    nodes, expected_hit, levels, expected_edges = expected
    assert walk_rows(walk) == reference_rows(nodes)
    assert walk.levels == levels
    assert hit == expected_hit
    if edges is not None:
        assert edges == expected_edges


def into_the_core():
    """A root whose ``a`` child meets the core that the root misses.

    ``0`` loops on both events and is both cores; ``1`` steps into it on
    ``a`` and the secret ``s`` loops on ``a``.  From {1,s} (x2 {1}), ``a``
    leads to {0,s} with x2 {0}: the weak and SST searches skip that child
    and the root at {0,s}, and the SST search the one at {0}.
    """
    return validate_model({
        "states": ["0", "1", "s"],
        "events": [{"name": e, "observable": True} for e in "ab"],
        "initial": ["1", "s"],
        "secret": ["s"],
        "transitions": [["0", "a", "0"], ["0", "b", "0"], ["1", "a", "0"], ["s", "a", "s"]],
    })


def search_walk(nfa, obs, family, k):
    """(walk, hit, None) of the weak or SST search at *k*: ``_explore`` from
    every estimate, as the search runs it past its certificate, and run here
    whether or not the search is certified."""
    table = row_table(nfa)
    if family == "weak":
        steps, tables, core = table.reach_steps, table.reach_tables, table.reach_core
    else:
        steps, tables, core = table.avoid_steps, table.avoid_tables, table.avoid_core
    walk, hit = opaq.weak._explore(
        obs, *every_root(nfa, obs), steps, k, True, tables=tables, weak=family == "weak", core=core,
    )
    return walk, hit, None


def certified(nfa, family):
    """Whether the weak or SST search answers opaque before it walks, at any K."""
    table = row_table(nfa)
    return bool(table.initial & (table.reach_core if family == "weak" else table.avoid_core))


@settings(max_examples=150, deadline=None)
@given(nfa=small_models(), k=st.integers(0, 3))
@example(nfa=into_the_core(), k=2)
def test_every_pair_walk_is_the_reference_walk(nfa, k):
    obs = build_observer(nfa)
    # Each search's walk is compared on every model, certified or not; a
    # certified search runs none.  The verifier walk runs to exhaustion and
    # its verdict reads the first empty x2 off the whole walk.
    searches = (
        (lambda: verify_current_state_opacity(nfa, obs), "weak", 0),
        (lambda: verify_k_step_weak(nfa, k, obs), "weak", k),
        (lambda: verify_k_step_strong(nfa, k, obs), "sst", k),
        (lambda: verify_infinite_step_weak(nfa, obs), "weak", None),
    )
    for search, family, depth in searches:
        walk = search_walk(nfa, obs, family, depth)
        assert_walk_is_the_reference(walk, reference_walk(nfa, obs, family, depth, pruned=True))
        if certified(nfa, family):
            assert walk[1] is None
            assert recorded_walks(search) == [] and search() == Verdict(True)
        else:
            assert recorded_walks(search) == [walk]
    [recorded] = recorded_walks(lambda: verify_infinite_step_strong(nfa, obs))
    assert_walk_is_the_reference(recorded, reference_walk(nfa, obs, "verifier", None, False, True))
    # The batch walks the verifier with edges; its structural checks then
    # walk one refill SST per secret-intersecting root, then the weak walk
    # at K = 2^|X| - 2 unless that search is certified.
    result, infinite = opaq.crosscheck.BatchResult(), verify_infinite_step_weak(nfa, obs)
    calls = recorded_walks(lambda: structural_checks(nfa, 0, (k,), result, obs, infinite))
    secret = row_table(nfa).secret
    refill_roots = [i for i, m in enumerate(obs.masks) if m & secret]
    bound = 2 ** len(nfa.states) - 2
    weak_certified = certified(nfa, "weak")
    assert len(calls) == 1 + len(refill_roots) + (not weak_certified)
    verifier, *refills = calls[:1 + len(refill_roots)]
    assert verifier[2] is not None and all(edges is not None for _, _, edges in refills)
    assert_walk_is_the_reference(verifier, reference_walk(nfa, obs, "verifier", None, False, True))
    for recorded, i in zip(refills, refill_roots):
        assert_walk_is_the_reference(recorded, reference_walk(nfa, obs, "sst", k, False, True, root=i))
    if weak_certified:
        assert calls[1 + len(refill_roots):] == []
    else:
        assert_walk_is_the_reference(calls[-1], reference_walk(nfa, obs, "weak", bound, pruned=True))


# -- first nodes --------------------------------------------------------------
#
# ``_explore`` keeps the x2 of the first node met at each estimate and finds
# a child with that x2 by position; only a second, different x2 at one
# estimate goes into its visited dict.


def two_subsets():
    """A verifier that meets one estimate with two secret-avoiding subsets.

    ``a`` leads to {s,w} (``s`` secret) and ``b`` to {p}; ``c`` from either
    reaches E = {u,v}, from {s,w} with x2 {v} first, from {p} with x2 {u,v}
    second.  ``d`` loops on E and ``f`` leads from E to {y}, so E's second
    node comes before the first node at {y}: node and observer positions
    part from there on.
    """
    return validate_model(
        {
            "states": ["0", "s", "w", "p", "u", "v", "y"],
            "events": [{"name": e, "observable": True} for e in "abcdf"],
            "initial": ["0"],
            "secret": ["s"],
            "transitions": [
                ["0", "a", "s"], ["0", "a", "w"], ["0", "b", "p"],
                ["s", "c", "u"], ["w", "c", "v"], ["p", "c", "u"], ["p", "c", "v"],
                ["u", "d", "u"], ["v", "d", "v"], ["u", "f", "y"], ["v", "f", "y"],
            ],
        }
    )


def named_rows(nfa, obs, walk):
    name = row_table(nfa).state_set
    return [(obs.states[i], name(x2), p, e) for i, x2, p, e in walk_rows(walk)]


def test_a_second_x2_at_an_estimate_is_its_own_node():
    nfa = two_subsets()
    obs = build_observer(nfa)
    assert obs.states == (("0",), ("s", "w"), ("p",), ("u", "v"), ("y",))
    calls = recorded_walks(lambda: opaq.strong.build_verifier(nfa, obs))
    [(walk, hit, edges)] = calls
    assert hit is None
    assert named_rows(nfa, obs, walk) == [
        (("0",), ("0",), -1, -1),
        (("s", "w"), ("w",), 0, 0),
        (("p",), ("p",), 0, 1),
        (("u", "v"), ("v",), 1, 2),
        (("u", "v"), ("u", "v"), 2, 2),
        (("y",), ("y",), 3, 4),
    ]
    assert walk.levels == [0, 1, 3, 5, 6]
    # d ends at each node at E on itself; f ends at {y}'s first node, 5,
    # from both, though {y} is observer position 4.
    assert edges == [(0, 0, 1), (0, 1, 2), (1, 2, 3), (2, 2, 4), (3, 3, 3), (3, 4, 5), (4, 3, 4), (4, 4, 5)]
    assert_walk_is_the_reference((walk, hit, edges), reference_walk(nfa, obs, "verifier", None, False, True))
    ver = opaq.strong.build_verifier(nfa, obs)
    first, second, y = ver.states[3:]
    assert ver.transitions[(first, "d")] is first and ver.transitions[(second, "d")] is second
    assert ver.transitions[(first, "f")] is y and ver.transitions[(second, "f")] is y


def dead_first():
    """A weak walk whose first child at an estimate is dead.

    The root ({s},{t}) reaches E = {u,v} on ``b`` as the dead ({u,v},{u,v})
    and then on ``c`` as the live ({u},{u}); ``d`` loops on E, and ``g``
    from E empties x2 at {w}.
    """
    return validate_model(
        {
            "states": ["0", "s", "t", "u", "v", "w"],
            "events": [{"name": e, "observable": True} for e in "abcdg"],
            "initial": ["0"],
            "secret": ["s"],
            "transitions": [
                ["0", "a", "s"], ["0", "a", "t"],
                ["s", "b", "u"], ["t", "b", "u"], ["t", "b", "v"],
                ["s", "c", "u"], ["s", "c", "v"], ["t", "c", "u"],
                ["u", "d", "u"], ["v", "d", "v"], ["v", "g", "w"],
            ],
        }
    )


def test_a_dead_first_child_leaves_the_estimate_to_a_live_one():
    nfa = dead_first()
    obs = build_observer(nfa)
    table = row_table(nfa)
    [(walk, hit, _)] = recorded_walks(lambda: verify_infinite_step_weak(nfa, obs))
    assert named_rows(nfa, obs, walk) == [
        (("s", "t"), ("t",), -1, -1),
        (("u", "v"), ("u",), 0, 2),
        (("w",), (), 1, 4),
    ]
    # The empty x2 is the first node at {w}, and it is the hit.
    assert hit == 2
    assert verify_infinite_step_weak(nfa, obs).witness == Witness(("a",), ("c", "g"), (("w",), ()))
    # With edges: b's dead child is dropped, and d ends at the live node.
    edges = []
    walk, _ = opaq.weak._explore(obs, *every_root(nfa, obs), table.reach_steps, None, False, weak=True, edges=edges)
    assert len(walk.x2) == 3
    assert edges == [(0, 2, 1), (1, 3, 1), (1, 4, 2)]
    check_against_reference(nfa)


def test_a_first_node_counts_against_the_cap():
    # The live node at {u,v} is the second node, met as a first node: a cap
    # of one raises there, and a cap of two lets the walk reach the hit.
    nfa = dead_first()
    with pytest.raises(ResourceLimitError, match="infinite-step weak search exceeded 1 states"):
        verify_infinite_step_weak(nfa, max_states=1)
    assert not verify_infinite_step_weak(nfa, max_states=2).opaque
    # The first node at {y} is two_subsets' sixth node.
    nfa = two_subsets()
    with pytest.raises(ResourceLimitError, match="verifier exceeded 5 states"):
        opaq.strong.walk_verifier(nfa, max_states=5)
    verdict, walk = opaq.strong.walk_verifier(nfa, max_states=6)
    assert verdict == Verdict(True) and len(walk.x2) == 6


def test_the_nth_last_verifier_has_one_node_per_estimate():
    nth_last = load_model(os.path.join(FIXTURES, "nth_last6.json"))
    obs = build_observer(nth_last)
    [(walk, hit, edges)] = recorded_walks(lambda: opaq.strong.build_verifier(nth_last, obs))
    assert hit is None
    assert sorted(walk.estimate) == list(range(64))
    assert len(edges) == 128
    # Each edge ends at the one node of its move's target estimate.
    assert all(walk.estimate[m] == obs.moves[walk.estimate[n]][e] for n, e, m in edges)


# -- persistent cores -----------------------------------------------------------
#
# The weak and SST searches skip every root and child whose x2 meets the
# persistent core of their rows, and answer opaque before any walk when the
# initial estimate meets it.  The row table's cores are pinned against the
# set-based greatest fixpoint of tests/reference.py; the walks that skip
# them are pinned by the reference walk above, and the certificate by the
# walks without a core below.


def nothing_observable():
    """Two states joined by a silent event: no event is observable, so every
    nonsecret state is in both cores, vacuously."""
    return validate_model({
        "states": ["0", "1"],
        "events": [{"name": "u", "observable": False}],
        "initial": ["0"],
        "secret": ["1"],
        "transitions": [["0", "u", "1"]],
    })


def leaves_on_b():
    """``t`` moves on every event, but only into the core on ``a``.

    From the initial {s,t} (``s`` secret), ``b`` leads to {v,w} with x2
    {w}, and ``a`` from there to {v} with x2 empty: the weak and the strong
    K-step properties fail at K = 2.  ``v`` loops on both events, and the
    secret ``s`` steps to itself on ``a`` and to ``v`` on ``b``, so a
    reach core over all states would be {s,v}; both cores, which hold
    nonsecret states only, are {v}.  ``t`` moves on both events, but its
    ``b`` row {w} misses the core, and ``w`` moves on nothing.
    """
    return validate_model({
        "states": ["s", "t", "v", "w"],
        "events": [{"name": e, "observable": True} for e in "ab"],
        "initial": ["s", "t"],
        "secret": ["s"],
        "transitions": [
            ["s", "a", "s"], ["s", "b", "v"], ["v", "a", "v"], ["v", "b", "v"],
            ["t", "a", "t"], ["t", "b", "w"],
        ],
    })


def core_problems(nfa):
    """Each row-table core that differs from the set-based one, by name."""
    table = row_table(nfa)
    return [
        name for name, mask, expected in (
            ("reach", table.reach_core, reach_core(nfa)),
            ("avoid", table.avoid_core, avoid_core(nfa)),
        )
        if table.state_set(mask) != expected
    ]


def pruned_nodes(nfa, family, k=3):
    """Roots that the *family* search at *k* skips by the core, and the
    nodes that the walk from its other roots then skips: the children that
    meet the core and their descendants.  The roots are those of K = 0
    walks from every estimate, without the core and with it."""
    table = row_table(nfa)
    obs = build_observer(nfa)
    weak = family == "weak"
    steps, core = (table.reach_steps, table.reach_core) if weak else (table.avoid_steps, table.avoid_core)
    roots = every_root(nfa, obs)
    live, _ = opaq.weak._explore(obs, *roots, steps, 0, False, weak=weak)
    kept, _ = opaq.weak._explore(obs, *roots, steps, 0, False, weak=weak, core=core)
    walk, _ = opaq.weak._explore(obs, *roots, steps, k, False, weak=weak, core=core)
    unpruned, _ = opaq.weak._explore(obs, kept.estimate, kept.x2, steps, k, False, weak=weak)
    return len(live.x2) - len(kept.x2), len(unpruned.x2) - len(walk.x2)


@settings(max_examples=200, deadline=None)
@given(nfa=small_models())
@example(nfa=nothing_observable())
@example(nfa=leaves_on_b())
def test_the_row_table_cores_are_the_set_based_cores(nfa):
    assert core_problems(nfa) == []
    table = row_table(nfa)
    assert not (table.reach_core | table.avoid_core) & table.secret
    if not table.events:
        assert table.reach_core == table.avoid_core == table.nonsecret
    else:
        # Secret states have empty avoid rows, so the avoid core is the one
        # over all states.
        every = (1 << len(nfa.states)) - 1
        assert table.avoid_core == opaq.core.persistent_core(table.avoid, table.support, every)


def test_the_core_examples():
    table = row_table(leaves_on_b())
    assert table.state_set(table.reach_core) == table.state_set(table.avoid_core) == ("v",)
    every = (1 << len(table.states)) - 1
    assert table.state_set(opaq.core.persistent_core(table.reach, table.support, every)) == ("s", "v")
    nth_last = load_model(os.path.join(FIXTURES, "nth_last6.json"))
    assert row_table(nth_last).state_set(row_table(nth_last).reach_core) == ("0",)
    assert row_table(nth_last).state_set(row_table(nth_last).avoid_core) == ("0",)
    # The SST search also skips the b child of the skipped child, at {0}.
    assert pruned_nodes(into_the_core(), "weak") == (1, 1)
    assert pruned_nodes(into_the_core(), "sst") == (2, 2)


def test_the_drawn_models_prune_roots_and_children():
    # The hypothesis tests above pin the walks only on the models they
    # draw; those include a weak search that skips a root and an SST search
    # that skips a child by a nonempty core.  find raises NoSuchExample when
    # no model drawn from its fixed generator qualifies.
    drawn = settings(database=None, max_examples=2000, phases=[Phase.generate])
    find(small_models(), lambda nfa: pruned_nodes(nfa, "weak")[0] > 0, settings=drawn, random=random.Random(0))
    find(small_models(), lambda nfa: pruned_nodes(nfa, "sst")[1] > 0, settings=drawn, random=random.Random(0))


def test_a_core_read_off_the_first_event_alone_is_caught(monkeypatch, tmp_path):
    # The mutant keeps the states that move on every event but tests each
    # one's row under the first event only.  The set-based core test above
    # catches it on leaves_on_b, which keeps t in both cores: the initial
    # estimate {s,t} then certifies the searches, which report the model
    # opaque, and a batch of that one model disagrees with the oracle five
    # times.
    nfa = leaves_on_b()
    assert not verify_k_step_weak(nfa, 2).opaque and not verify_k_step_strong(nfa, 2).opaque
    persistent_core = opaq.core.persistent_core
    monkeypatch.setattr(opaq.core, "persistent_core", lambda rows, support, states: persistent_core(rows[:1], support, states))
    assert core_problems(leaves_on_b()) == ["reach", "avoid"]
    monkeypatch.setattr(opaq.crosscheck, "random_nfa", lambda cfg: leaves_on_b())
    result = opaq.crosscheck.run_crosscheck(models=1, max_states=4, ks=(0, 1, 2, 3), seed=0, fixtures_dir=str(tmp_path))
    assert [(row["property"], row["k"]) for row in result.disagreements] == [
        ("k-weak", 2), ("k-strong", 2), ("k-weak", 3), ("k-strong", 3), ("inf-weak", None),
    ]


# -- certificates ---------------------------------------------------------------
#
# A search whose initial estimate meets its core answers opaque before it
# walks.  Without the core, its walk must then find no empty x2, and every
# estimate must move under every event.


def nth_last(n, loop=False):
    return validate_model(nth_last_dict(n, loop))


@settings(max_examples=80, deadline=None)
@given(nfa=st.one_of(small_models(max_states=16), st.builds(nth_last, st.integers(7, 14), st.booleans())))
@example(nfa=nth_last(9))
def test_a_certified_search_finds_no_empty_x2_without_the_core(nfa):
    table, obs = row_table(nfa), build_observer(nfa)
    searches = (
        (table.reach_core, table.reach_steps, True, verify_k_step_weak),
        (table.avoid_core, table.avoid_steps, False, verify_k_step_strong),
    )
    roots = every_root(nfa, obs)
    for core, steps, weak, verify in searches:
        if not table.initial & core:
            continue
        assert all(j >= 0 for row in obs.moves for j in row)
        for k in (1, 2, 3, None):
            _, hit = opaq.weak._explore(obs, *roots, steps, k, True, weak=weak)
            assert hit is None
            if k is not None:
                assert verify(nfa, k, obs) == Verdict(True)
        if weak:
            assert verify_infinite_step_weak(nfa, obs) == Verdict(True)


def two_cycle():
    """``p -a-> q -a-> p`` with ``q`` secret: the estimate {q} is all secret.

    The reach core over all states is {p,q}, and the initial {p} meets it,
    but over the nonsecret states both cores are empty: ``p``'s row {q}
    misses {p}.
    """
    return validate_model({
        "states": ["p", "q"],
        "events": [{"name": "a", "observable": True}],
        "initial": ["p"],
        "secret": ["q"],
        "transitions": [["p", "a", "q"], ["q", "a", "p"]],
    })


def secret_start_unobserved():
    """No observable event, and the one estimate, {s}, is all secret."""
    return validate_model({
        "states": ["s"],
        "events": [{"name": "u", "observable": False}],
        "initial": ["s"],
        "secret": ["s"],
        "transitions": [],
    })


def test_a_core_over_all_states_would_certify_a_violation():
    nfa = two_cycle()
    table = row_table(nfa)
    every = (1 << len(nfa.states)) - 1
    assert table.initial & opaq.core.persistent_core(table.reach, table.support, every)
    assert table.reach_core == table.avoid_core == 0
    witness = Witness(("a",), (), (("q",), ()))
    assert verify_k_step_weak(nfa, 1) == verify_infinite_step_weak(nfa) == Verdict(False, witness)
    assert verify_k_step_strong(nfa, 1) == Verdict(False, witness)
    # With no observable event every state is in a core over all states,
    # vacuously; over the nonsecret states the core here is empty.
    nfa = secret_start_unobserved()
    table = row_table(nfa)
    assert table.initial & opaq.core.persistent_core(table.avoid, table.support, every)
    assert table.reach_core == table.avoid_core == 0
    for k in (1, 2, 3):
        assert verify_k_step_strong(nfa, k) == Verdict(False, Witness((), (), (("s",), ())))


class ObserverBuilt(Exception):
    pass


def test_a_certified_search_builds_no_observer(monkeypatch, capsys, g2):
    # nth_last28's observer has 2^28 estimates; its initial estimate holds
    # 0, which lies in both cores.
    path = os.path.join(FIXTURES, "nth_last28.json")
    nth_last = load_model(path)

    def refuse(nfa, max_states=None):
        raise ObserverBuilt

    with pytest.MonkeyPatch.context() as patch:
        for module in (opaq.weak, opaq.strong):
            patch.setattr(module, "build_observer", refuse)
        for k in (0, 3):
            assert verify_k_step_weak(nth_last, k) == Verdict(True)
            assert verify_k_step_strong(nth_last, k) == Verdict(True)
        assert verify_current_state_opacity(nth_last) == Verdict(True)
        assert verify_infinite_step_weak(nth_last) == Verdict(True)
        # g2 is not certified, so its searches build the observer.
        with pytest.raises(ObserverBuilt):
            verify_k_step_weak(g2, 3)
    # The CLI builds the observer for its sizes, as before.
    for args in (["--property", "k-weak", "--k", "3"], ["--property", "cs"]):
        assert opaq.cli.main(["verify", *args, "--state-cap", "1000", path]) == 3
        assert capsys.readouterr().err == "error: observer exceeded 1000 states\n"


# -- the table loop against the step loop ---------------------------------------
#
# For 9 to 16 states the verifier, SST and weak walks read their rows' byte
# tables inline; other walks call the steps.  The two node loops must give
# the same walks, hits, edges and caps.


def pair_walk_runs(nfa):
    """Each walk of a verdict on *nfa*: roots, steps, tables, K, and the
    keyword arguments, with the cores the searches pass."""
    table, obs = row_table(nfa), build_observer(nfa)
    runs = [([0], [table.clean & obs.masks[0]], table.avoid_steps, table.avoid_tables, None, {})]
    roots = every_root(nfa, obs)
    for k in (0, 1, 2, 3, None):
        if k is not None:
            runs.append((*roots, table.avoid_steps, table.avoid_tables, k, {"core": table.avoid_core}))
        runs.append((*roots, table.reach_steps, table.reach_tables, k, {"weak": True, "core": table.reach_core}))
    return obs, runs


def explore_both_ways(obs, run, stop_at_empty, max_states=None):
    """(walk, hit, edges) of *run* through its tables, then through its steps."""
    positions, x2s, steps, tables, k, kwargs = run
    out = []
    for by_tables in (tables, None):
        edges = []
        walk, hit = opaq.weak._explore(
            obs, positions, x2s, steps, k, stop_at_empty, tables=by_tables, edges=edges,
            max_states=max_states, search="pair walk", **kwargs,
        )
        out.append((walk, hit, edges))
    return out


def verdicts(nfa):
    return (
        verify_current_state_opacity(nfa), verify_infinite_step_weak(nfa), verify_infinite_step_strong(nfa),
        *(verify(nfa, k) for verify in (verify_k_step_weak, verify_k_step_strong) for k in (1, 2, 3)),
    )


# A 9-state model whose SST walk at K = 3 meets an estimate with two x2s.
TWO_X2S_AT_A_POSITION = model_to_dict(random_nfa(OracleConfig(
    n_states=9, n_events=2, unobservable_fraction=0.3, secret_fraction=0.25, density=1.5, seed=0,
)))


@settings(max_examples=60, deadline=None)
@given(raw=st.one_of(random_table_model_dicts(), st.builds(nth_last_dict, st.integers(7, 14), st.booleans())))
@example(raw=TWO_X2S_AT_A_POSITION)
def test_the_table_walk_is_the_step_walk(raw):
    nfa = validate_model(raw)
    table = row_table(nfa)
    assert table.reach_tables is not None and table.avoid_tables is not None
    obs, runs = pair_walk_runs(nfa)
    repeats = False
    for run in runs:
        for stop_at_empty in (False, True):
            both = explore_both_ways(obs, run, stop_at_empty)
            assert both[0] == both[1]
            walk, hit, _ = both[0]
            repeats |= len(set(walk.estimate)) < len(walk.estimate)
            # Both loops stop at the same node: the first one past the cap.
            n = len(walk.x2)
            if n:
                assert explore_both_ways(obs, run, stop_at_empty, n) == both
            if n and hit is None:
                positions, x2s, steps, tables, k, kwargs = run
                for by_tables in (tables, None):
                    with pytest.raises(ResourceLimitError, match=f"^pair walk exceeded {n - 1} states$"):
                        opaq.weak._explore(obs, positions, x2s, steps, k, stop_at_empty, tables=by_tables,
                                           max_states=n - 1, search="pair walk", **kwargs)
    if raw is TWO_X2S_AT_A_POSITION:
        assert repeats
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(opaq.core, "TABLE_STEP_STATES", range(0))
        by_bits = validate_model(raw)
        assert verdicts(by_bits) == verdicts(nfa)
        assert row_table(by_bits).reach_tables is row_table(by_bits).avoid_tables is None
