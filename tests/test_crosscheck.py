"""The crosscheck batch's structural tree checks.

The batch builds one weak tree and one SST per secret-intersecting root, at
the largest K, and reads every smaller K's node cap and absorbing-emptiness
check off node depths.  These tests pin that derivation against the checks
made on a separate tree per K.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opaq.crosscheck as crosscheck
from opaq import build_observer, build_sipa, build_sst, build_weak_state_tree, random_nfa
from opaq.crosscheck import BatchResult, model_config, run_crosscheck
from opaq.weak import StateTree, TreeNode, secret_intersecting_roots

from test_reach import small_models

KS = (0, 1, 2, 3)


def emptiness_absorbing(tree) -> bool:
    # Reference: no node with a nonempty x2 below a node with an empty one.
    children: dict[int, list] = {}
    for src, _, dst in tree.edges:
        children.setdefault(id(src), []).append(dst)
    stack = [(tree.root, False)]
    while stack:
        node, saw_empty = stack.pop()
        if saw_empty and node.x2:
            return False
        for child in children.get(id(node), ()):
            stack.append((child, saw_empty or not node.x2))
    return True


def per_k_failures(nfa, seed, ks, obs, sipa):
    """(cap, absorbing) messages of the structural tree checks with one tree per (root, K)."""
    cap_failures, absorbing_failures = [], []
    n_eo = len(nfa.observable_events)
    for k in ks:
        cap = sum(n_eo**i for i in range(k + 1))
        for root in secret_intersecting_roots(nfa, obs):
            if crosscheck.build_weak_state_tree(nfa, obs, root, k).node_count > cap:
                cap_failures.append(f"seed {seed}: weak tree exceeds node cap at k={k}")
            sst = crosscheck.build_sst(nfa, obs, sipa, root, k)
            if sst.node_count > cap:
                cap_failures.append(f"seed {seed}: sst exceeds node cap at k={k}")
            if not emptiness_absorbing(sst):
                absorbing_failures.append(f"seed {seed}: sst emptiness not absorbing at k={k}")
    return cap_failures, absorbing_failures


def tree_failures(nfa, seed, ks, obs, sipa):
    result = BatchResult()
    crosscheck._structural_checks(nfa, seed, ks, result, obs, sipa)
    return result.cap_failures, result.absorbing_failures


def shape(tree, k):
    """Nodes of depth <= k as (x1, x2, depth), and edges between them as (src, event, dst) positions."""
    kept = [node for node in tree.nodes if node.depth <= k]
    position = {id(node): i for i, node in enumerate(kept)}
    edges = [
        (position[id(src)], event, position[id(dst)])
        for src, event, dst in tree.edges
        if dst.depth <= k
    ]
    return [(node.x1, node.x2, node.depth) for node in kept], edges


@settings(max_examples=100, deadline=None)
@given(nfa=small_models(), k=st.integers(0, 3))
def test_tree_at_k_is_the_depth_k_prefix_of_the_tree_at_3(nfa, k):
    obs = build_observer(nfa)
    sipa = build_sipa(nfa)
    for root in secret_intersecting_roots(nfa, obs):
        weak = build_weak_state_tree(nfa, obs, root, k)
        assert shape(build_weak_state_tree(nfa, obs, root, 3), k) == shape(weak, k)
        sst = build_sst(nfa, obs, sipa, root, k)
        assert shape(build_sst(nfa, obs, sipa, root, 3), k) == shape(sst, k)


def broom(root_state, k, fan, refill):
    """Level-order tree of depth *k* with *fan* children per node.

    x2 is empty at depth ``refill - 1`` only, so edges from an empty x2 to a
    nonempty one end at depth *refill* (None: x2 is never empty).
    """

    def node(depth):
        empty = refill is not None and depth == refill - 1
        return TreeNode(("s",), () if empty else ("n",), depth)

    root = node(0)
    nodes, edges, frontier = [root], [], [root]
    for depth in range(1, k + 1):
        nxt = []
        for parent in frontier:
            for _ in range(fan):
                child = node(depth)
                nodes.append(child)
                edges.append((parent, "a", child))
                nxt.append(child)
        frontier = nxt
    return StateTree(root_state, root, tuple(nodes), tuple(edges))


@pytest.mark.parametrize(
    "weak_fan, sst_fan, refill",
    [(5, 1, 1), (1, 5, 2), (5, 5, 3), (1, 1, None), (4, 4, 1)],
)
def test_structural_failures_are_unchanged(g2, monkeypatch, weak_fan, sst_fan, refill):
    # g2 has three secret-intersecting roots and four observable events, so
    # a fan of 5 breaks the node cap at every k >= 1 and a fan of 4 meets it.
    monkeypatch.setattr(
        crosscheck, "build_weak_state_tree",
        lambda nfa, obs, root, k: broom(root, k, weak_fan, None),
    )
    monkeypatch.setattr(
        crosscheck, "build_sst",
        lambda nfa, obs, sipa, root, k: broom(root, k, sst_fan, refill),
    )
    obs = build_observer(g2)
    sipa = build_sipa(g2)
    cap, absorbing = tree_failures(g2, 9, KS, obs, sipa)
    assert (cap, absorbing) == per_k_failures(g2, 9, KS, obs, sipa)

    roots = len(secret_intersecting_roots(g2, obs))
    assert roots == 3
    expected_cap = []
    for k in KS:
        per_root = []
        if weak_fan > 4 and k >= 1:
            per_root.append(f"seed 9: weak tree exceeds node cap at k={k}")
        if sst_fan > 4 and k >= 1:
            per_root.append(f"seed 9: sst exceeds node cap at k={k}")
        expected_cap += per_root * roots
    assert cap == expected_cap
    assert absorbing == [
        f"seed 9: sst emptiness not absorbing at k={k}"
        for k in KS
        if refill is not None and k >= refill
        for _ in range(roots)
    ]


def test_each_tree_is_built_once_per_root(monkeypatch):
    calls = Counter()

    def counted(name, build):
        def wrapper(*args):
            calls[name, args[-1]] += 1
            return build(*args)

        return wrapper

    monkeypatch.setattr(crosscheck, "build_weak_state_tree", counted("weak", build_weak_state_tree))
    monkeypatch.setattr(crosscheck, "build_sst", counted("sst", build_sst))
    result = run_crosscheck(models=100, max_states=8, ks=KS, seed=7)
    assert result.ok
    roots = sum(
        len(secret_intersecting_roots(nfa, build_observer(nfa)))
        for nfa in (random_nfa(model_config(7, i, 8)) for i in range(100))
    )
    assert roots > 0
    assert calls == {("weak", 3): roots, ("sst", 3): roots}


def test_an_empty_k_range_is_rejected():
    with pytest.raises(ValueError, match="empty"):
        run_crosscheck(models=1, max_states=2, ks=(), seed=0)
