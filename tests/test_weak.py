from __future__ import annotations

import os
import subprocess
import sys
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opaq import (
    build_observer,
    build_sipa,
    build_weak_state_tree,
    observer_state_after,
    tree_dot,
    validate_model,
    verdict_to_dict,
    verify_current_state_opacity,
    verify_infinite_step_strong,
    verify_infinite_step_weak,
    verify_k_step_strong,
    verify_k_step_weak,
)
from opaq.core import InvariantError
from opaq.weak import Verdict, Witness

from test_reach import small_models


def chain(tree):
    # (x1, x2) pairs along the unique path of a linear tree.
    out = [(tree.root.x1, tree.root.x2)]
    node = tree.root
    edges = {id(src): (ev, dst) for src, ev, dst in tree.edges}
    while id(node) in edges:
        ev, node = edges[id(node)]
        out.append((node.x1, node.x2))
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
    dot = tree_dot(build_weak_state_tree(g2, obs, ("1", "4", "7"), 2))
    assert '"({1},{4,7})"' in dot
    assert '"({3},{6,9})"' in dot


def test_duplicate_pairs_in_one_tree_are_kept(g2):
    obs = build_observer(g2)
    tree = build_weak_state_tree(g2, obs, ("3", "6", "9"), 3)
    # The d self-loop repeats the same pair at each depth; nothing merges.
    assert tree.node_count == 4


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
        paths = {id(tree.root): ()}
        for src, ev, dst in tree.edges:
            paths[id(dst)] = paths[id(src)] + (ev,)
        access = next(
            w for w in _access_words(obs) if observer_state_after(obs, w) == root
        )
        for node in tree.nodes:
            estimate = observer_state_after(obs, access + paths[id(node)])
            assert set(node.x1) | set(node.x2) == set(estimate)


def _access_words(obs):
    # Breadth-first enumeration of observations accepted by the observer.
    queue = [((), obs.initial)]
    while queue:
        word, state = queue.pop(0)
        yield word
        for event, target in obs.successors(state):
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
        for event, target in obs.successors(current):
            if target not in access:
                access[target] = access[current] + (event,)
                queue.append(target)
    return access


@settings(max_examples=150, deadline=None)
@given(nfa=small_models(), k=st.integers(0, 3))
def test_witness_prefix_is_the_shortest_access_string(nfa, k):
    obs = build_observer(nfa)
    sipa = build_sipa(nfa)
    access = bfs_access_strings(obs)
    verdicts = (
        verify_current_state_opacity(nfa, obs),
        verify_k_step_weak(nfa, k, obs),
        verify_k_step_strong(nfa, k, obs, sipa),
        verify_infinite_step_weak(nfa, obs),
        verify_infinite_step_strong(nfa, obs, sipa),
    )
    for verdict in verdicts:
        if not verdict.opaque:
            prefix = verdict.witness.prefix
            assert prefix == access[observer_state_after(obs, prefix)]
