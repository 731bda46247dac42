from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opaq import (
    VerifierState,
    build_observer,
    build_sipa,
    build_sst,
    build_verifier,
    check_verifier_observer_language_equality,
    nonsecret_unobservable_reach,
    observable_reach,
    secret_avoiding_reach,
    sipa_state_count,
    validate_model,
    verifier_dot,
    verify_infinite_step_strong,
    verify_k_step_strong,
    verify_k_step_weak,
    walk_verifier,
)
from opaq.core import row_table, union
from opaq.oracle import MaskEngine
from opaq.projection import TAG_N

from test_reach import small_models, subset_of_states
from test_weak import chain


def test_g2_sst_from_147(g2):
    obs = build_observer(g2)
    tree = build_sst(g2, obs, ("1", "4", "7"), 2)
    assert chain(tree) == [
        (("1", "4", "7"), ("4", "7")),
        (("2", "5", "8"), ("8",)),
        (("3", "6", "9"), ()),
    ]


def test_tagged_pattern_sst_chain(tagged_pattern):
    nfa = tagged_pattern
    obs = build_observer(nfa)
    tree = build_sst(nfa, obs, ("0", "1"), 3)
    assert chain(tree) == [
        (("0", "1"), ("0",)),
        (("2", "4"), ("2", "4")),
        (("3", "5"), ("3", "5")),
        (("3",), ("3",)),
    ]
    assert verify_k_step_strong(nfa, 3).opaque


def test_sst_requires_secret_root(g8frag):
    obs = build_observer(g8frag)
    with pytest.raises(ValueError, match="no secret"):
        build_sst(g8frag, obs, ("0", "1"), 1)


def test_g2_strong_verdicts(g2):
    assert verify_k_step_strong(g2, 1).opaque
    verdict = verify_k_step_strong(g2, 2)
    assert not verdict.opaque
    assert verdict.witness.prefix == ("a",)
    assert verdict.witness.continuation == ("b", "c")


def test_g2_verifier_exact(g2):
    obs = build_observer(g2)
    ver = build_verifier(g2, obs)
    s0 = VerifierState(("0",), ("0",))
    s1 = VerifierState(("1", "4", "7"), ("4", "7"))
    s2 = VerifierState(("2", "5", "8"), ("8",))
    s3 = VerifierState(("3", "6", "9"), ())
    assert ver.states == (s0, s1, s2, s3)
    assert ver.transitions == {
        (s0, "a"): s1,
        (s1, "b"): s2,
        (s2, "c"): s3,
        (s3, "d"): s3,
    }


def test_verifier_pattern_first_step(verifier_pattern):
    nfa = verifier_pattern
    ver = build_verifier(nfa)
    assert ver.initial == VerifierState(("0", "1"), ("0", "1"))
    target = ver.transitions[(ver.initial, "a")]
    assert target == VerifierState(("2", "3", "5", "6"), ("2", "5"))


def test_no_secrets_make_both_components_equal():
    nfa = validate_model(
        {
            "states": ["0", "1"],
            "events": [{"name": "a", "observable": True}],
            "initial": ["0"],
            "secret": [],
            "transitions": [["0", "a", "1"], ["1", "a", "0"]],
        }
    )
    ver = build_verifier(nfa)
    for state in ver.states:
        assert state.x1 == state.x2
    assert verify_infinite_step_strong(nfa).opaque


def test_g2_infinite_strong_witness(g2):
    verdict = verify_infinite_step_strong(g2)
    assert not verdict.opaque
    assert verdict.witness.observation == ("a", "b", "c")


def test_language_equality_check(g2, g8frag):
    obs = build_observer(g2)
    ver = build_verifier(g2, obs)
    ok, certificate = check_verifier_observer_language_equality(obs, ver)
    assert ok and certificate == []
    other_obs = build_observer(g8frag)
    ok, certificate = check_verifier_observer_language_equality(other_obs, ver)
    assert not ok
    assert certificate


def test_verifier_dot_shows_empty_component(g2):
    dot = verifier_dot(build_verifier(g2))
    assert '"({3,6,9},{})"' in dot
    assert dot == verifier_dot(build_verifier(g2))


# -- properties ----------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(nfa=small_models())
def test_sst_emptiness_is_absorbing(nfa):
    obs = build_observer(nfa)
    secret = set(nfa.secret)
    for root in obs.states:
        if not set(root) & secret:
            continue
        tree = build_sst(nfa, obs, root, 3)
        children = {}
        for src, _, dst in tree.edges:
            children.setdefault(id(src), []).append(dst)
        stack = [(tree.root, False)]
        while stack:
            node, saw_empty = stack.pop()
            assert not (saw_empty and node.x2), "second component revived after emptiness"
            assert set(node.x2) <= set(node.x1) - secret
            for child in children.get(id(node), ()):
                stack.append((child, saw_empty or not node.x2))


@settings(max_examples=100, deadline=None)
@given(nfa=small_models())
def test_sst_second_components_are_avoiding_chains(nfa):
    # Each node's x2 must equal the iterated secret-avoiding reach of the
    # root's x2 along the edge word, recomputed independently on bitmasks;
    # membership therefore witnesses a run whose projection matches the edge
    # word and whose every post-event state is nonsecret.
    obs = build_observer(nfa)
    eng = MaskEngine(nfa)
    secret = set(nfa.secret)
    for root in obs.states:
        if not set(root) & secret:
            continue
        tree = build_sst(nfa, obs, root, 3)
        masks = {id(tree.root): eng._mask(tree.root.x2)}
        for src, ev, dst in tree.edges:
            masks[id(dst)] = eng.avoid_reach(masks[id(src)], ev)
        for node in tree.nodes:
            assert eng._mask(node.x2) == masks[id(node)]


def test_tree_stops_at_the_horizon():
    nfa = validate_model(
        {
            "states": ["0", "1"],
            "events": [{"name": "a", "observable": True}],
            "initial": ["0"],
            "secret": ["1"],
            "transitions": [["0", "a", "1"]],
        }
    )
    obs = build_observer(nfa)
    tree = build_sst(nfa, obs, ("1",), 5)
    assert tree.node_count == 1


@settings(max_examples=100, deadline=None)
@given(nfa=small_models(), k=st.integers(0, 3))
def test_strong_opacity_implies_weak_opacity(nfa, k):
    if verify_k_step_strong(nfa, k).opaque:
        assert verify_k_step_weak(nfa, k).opaque


@settings(max_examples=100, deadline=None)
@given(nfa=small_models())
def test_strong_verdicts_monotone_in_k(nfa):
    verdicts = [verify_k_step_strong(nfa, k).opaque for k in range(5)]
    for earlier, later in zip(verdicts, verdicts[1:]):
        assert not (earlier is False and later is True)


@settings(max_examples=100, deadline=None)
@given(nfa=small_models(), k=st.integers(0, 4))
def test_infinite_strong_implies_k_step_strong(nfa, k):
    if verify_infinite_step_strong(nfa).opaque:
        assert verify_k_step_strong(nfa, k).opaque


@settings(max_examples=100, deadline=None)
@given(nfa=small_models())
def test_verifier_second_component_matches_flagged_chains(nfa):
    # The verifier's second component must equal the set of states reachable
    # by everywhere-secret-avoiding runs from nonsecret initial states, which
    # the mask engine recomputes independently per observation.
    obs = build_observer(nfa)
    ver = build_verifier(nfa, obs)
    eng = MaskEngine(nfa)
    stack = [(ver.initial, eng.ur_nonsecret(eng.initial & eng.nonsecret), 0)]
    seen = {ver.initial}
    while stack:
        state, avoid, depth = stack.pop()
        assert eng._mask(state.x2) == avoid
        if depth >= 6:
            continue
        for event, target in ver.successors(state):
            if target not in seen:
                seen.add(target)
                stack.append((target, eng.avoid_reach(avoid, event), depth + 1))


@settings(max_examples=100, deadline=None)
@given(nfa=small_models())
def test_verifier_size_and_projection(nfa):
    obs = build_observer(nfa)
    ver = build_verifier(nfa, obs)
    assert len(ver.states) <= 4 ** len(nfa.states)
    ok, certificate = check_verifier_observer_language_equality(obs, ver)
    assert ok, certificate


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_row_steps_equal_the_set_based_steps(data):
    # Every construction steps by ORing rows of the model's row table; the
    # set-based reach functions and the N-to-N edges of the untrimmed tagged
    # automaton are the definitions those rows must reproduce on every subset.
    nfa = data.draw(small_models())
    table = row_table(nfa)
    sipa = build_sipa(nfa, trimmed=False)
    n_to_n = {}
    for src, event, dst in sipa.transitions:
        if src.tag == dst.tag == TAG_N:
            n_to_n.setdefault((src.base, event), set()).add(dst.base)
    subset = data.draw(subset_of_states(nfa))
    nonsecret = {s for s in subset if s not in nfa.secret_set}

    def mask(members):
        return sum(1 << nfa.states.index(s) for s in members)

    for e, event in enumerate(table.events):
        reach = union(table.reach[e], mask(subset))
        assert table.state_set(reach) == observable_reach(nfa, subset, event)
        avoid = table.state_set(union(table.avoid[e], mask(nonsecret)))
        assert avoid == secret_avoiding_reach(nfa, nonsecret, event)
        assert set(avoid) == set().union(*(n_to_n.get((s, event), ()) for s in nonsecret))
    tagged_n = [ts.base for ts in sipa.initial if ts.tag == TAG_N]
    clean = nonsecret_unobservable_reach(nfa, [s for s in nfa.initial if s not in nfa.secret_set])
    assert tuple(tagged_n) == clean == table.state_set(table.clean)


@settings(max_examples=100, deadline=None)
@given(nfa=small_models())
def test_counts_equal_the_built_structures(nfa):
    # `opaq verify` reports these sizes without building the structures.
    assert sipa_state_count(nfa) == len(build_sipa(nfa).states)
    verdict, states = walk_verifier(nfa)
    assert states == len(build_verifier(nfa).states)
    assert verdict == verify_infinite_step_strong(nfa)
