from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opaq import (
    VerifierAutomaton,
    VerifierState,
    build_observer,
    build_sipa,
    build_sst,
    build_verifier,
    sipa_state_count,
    validate_model,
    verifier_dot,
    verify_infinite_step_strong,
    verify_k_step_strong,
    verify_k_step_weak,
    walk_verifier,
)
from opaq.core import TABLE_STEP_STATES, ResourceLimitError, row_table, union
from opaq.crosscheck import _projection_problems
from opaq.oracle import MaskEngine
from opaq.projection import TAG_N, sipa_size

from conftest import g2_dict, wide_chain_dict
from reference import (
    nonsecret_unobservable_reach,
    observable_reach,
    secret_avoiding_reach,
    unobservable_reach,
    untrimmed_sipa,
)
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


def test_an_unreachable_sst_root_is_named_as_a_set(g2):
    obs = build_observer(g2)
    with pytest.raises(ValueError, match=r"^root \{0,1\} is not a reachable observer state$"):
        build_sst(g2, obs, ("0", "1"), 1)


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


def test_infinite_strong_stops_at_max_states(g2):
    # g2's verifier has 4 states; the SIPA still goes by position, before the cap.
    with pytest.raises(ResourceLimitError, match="^verifier exceeded 3 states$"):
        verify_infinite_step_strong(g2, max_states=3)
    verdict = verify_infinite_step_strong(g2, build_observer(g2), build_sipa(g2), 4)
    assert verdict == verify_infinite_step_strong(g2)


def walk_with_edges(nfa):
    """The model's observer, and its verifier walk run to exhaustion with its edges."""
    obs = build_observer(nfa)
    edges = []
    _, walk = walk_verifier(nfa, obs, edges=edges)
    return obs, walk, edges


def test_language_equality_check(g2, g8frag):
    for nfa in (g2, g8frag):
        obs, walk, edges = walk_with_edges(nfa)
        assert _projection_problems(obs, walk, edges, MaskEngine(nfa)) == []
    # Stepped by the engine of g2 without secrets, the walk's second
    # components are wrong from the first edge on.
    obs, walk, edges = walk_with_edges(g2)
    other = validate_model(dict(g2_dict(), secret=[]))
    certificate = _projection_problems(obs, walk, edges, MaskEngine(other))
    assert certificate[0] == (
        "transition x2 mismatch at ({0},{0}) on 'a': the oracle's secret-avoiding step gives {1,4,7}"
    )


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
        for n in range(1, tree.node_count):
            children.setdefault(tree.parent[n], []).append(n)
        stack = [(0, False)]
        while stack:
            n, saw_empty = stack.pop()
            x1, x2 = tree.x1[n], tree.x2[n]
            assert not (saw_empty and x2), "second component revived after emptiness"
            assert set(x2) <= set(x1) - secret
            for child in children.get(n, ()):
                stack.append((child, saw_empty or not x2))


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
        masks = [eng._mask(tree.x2[0])]
        for n in range(1, tree.node_count):
            masks.append(eng.avoid_reach(masks[tree.parent[n]], tree.event[n]))
        for x2, mask in zip(tree.x2, masks):
            assert eng._mask(x2) == mask


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
        for event in ver.events:
            target = ver.transitions.get((state, event))
            if target is not None and target not in seen:
                seen.add(target)
                stack.append((target, eng.avoid_reach(avoid, event), depth + 1))


def test_verifier_dot_lists_edges_by_state_then_event():
    # Transitions inserted out of order; events declared out of name order.
    start = VerifierState(("0",), ("0",))
    other = VerifierState(("1",), ())
    ver = VerifierAutomaton(
        states=(start, other),
        initial=start,
        transitions={(other, "a"): start, (start, "a"): other, (other, "b"): other, (start, "b"): start},
        events=("b", "a"),
    )
    assert verifier_dot(ver).splitlines() == [
        "digraph verifier {",
        "  rankdir=LR;",
        '  "({0},{0})" [shape=doublecircle];',
        '  "({1},{})" [shape=circle];',
        '  "({0},{0})" -> "({0},{0})" [label="b"];',
        '  "({0},{0})" -> "({1},{})" [label="a"];',
        '  "({1},{})" -> "({1},{})" [label="b"];',
        '  "({1},{})" -> "({0},{0})" [label="a"];',
        "}",
    ]


@settings(max_examples=100, deadline=None)
@given(nfa=small_models())
def test_verifier_size_and_projection(nfa):
    obs, walk, edges = walk_with_edges(nfa)
    assert len(walk.x2) <= 3 ** len(nfa.states) - 1
    assert _projection_problems(obs, walk, edges, MaskEngine(nfa)) == []


@settings(max_examples=100, deadline=None)
@given(nfa=small_models())
def test_the_verifier_automaton_is_the_walk(nfa):
    # build_verifier names the walk's nodes and edges, in walk order.
    obs, walk, edges = walk_with_edges(nfa)
    ver = build_verifier(nfa, obs)
    name = row_table(nfa).state_set
    states = [(obs.states[i], name(x2)) for i, x2 in zip(walk.estimate, walk.x2)]
    assert list(ver.states) == states
    assert ver.initial == states[0]
    assert list(ver.transitions.items()) == [
        ((states[n], obs.events[e]), states[m]) for n, e, m in edges
    ]
    assert ver.events == obs.events


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_row_steps_equal_the_set_based_steps(data):
    # Every construction steps by ORing rows of the model's row table; the
    # set-based reach functions and the N-to-N edges of the untrimmed tagged
    # automaton are the definitions those rows must reproduce on every subset.
    nfa = data.draw(small_models())
    table = row_table(nfa)
    sipa = untrimmed_sipa(nfa)
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


@st.composite
def silent_heavy_models(draw, max_states=16):
    # Silent runs of 2 to 6 states, some closed into cycles, over up to 16
    # states, with secrets drawn inside the runs: the row table's full
    # closures and its one-step ones both get work, and rows both hold and
    # lack members with silent successors.
    n = draw(st.integers(2, max_states))
    states = [str(i) for i in range(n)]
    index = st.integers(0, n - 1)
    edges = set()
    secret = set(draw(st.sets(index, max_size=n // 3)))
    for _ in range(draw(st.integers(1, 4))):
        run = draw(st.lists(index, min_size=2, max_size=6, unique=True))
        event = draw(st.sampled_from("uv"))
        edges.update((p, event, q) for p, q in zip(run, run[1:]))
        if draw(st.booleans()):
            edges.add((run[-1], event, run[0]))
        if draw(st.booleans()):
            secret.add(draw(st.sampled_from(run)))
    edges.update(draw(st.lists(st.tuples(index, st.sampled_from("abuv"), index), max_size=3 * n)))
    return validate_model({
        "states": states,
        "events": [{"name": e, "observable": e in "ab"} for e in "abuv"],
        "initial": [states[i] for i in sorted(draw(st.sets(index, min_size=1, max_size=2)))],
        "secret": [states[i] for i in sorted(secret)],
        "transitions": [[states[p], e, states[q]] for p, e, q in sorted(edges)],
    })


def assert_rows_match_the_set_based_steps(nfa, sources):
    table = row_table(nfa)
    for e, event in enumerate(table.events):
        for x in sources:
            i = nfa.states.index(x)
            assert table.state_set(table.reach[e][i]) == observable_reach(nfa, [x], event)
            assert bool(table.reach[e][i]) == bool(table.support[e] >> i & 1)
            expected = secret_avoiding_reach(nfa, [x], event) if x not in nfa.secret_set else ()
            assert table.state_set(table.avoid[e][i]) == expected
    assert table.state_set(table.initial) == unobservable_reach(nfa, nfa.initial)
    clean = nonsecret_unobservable_reach(nfa, [s for s in nfa.initial if s not in nfa.secret_set])
    assert table.state_set(table.clean) == clean


@settings(max_examples=300, deadline=None)
@given(nfa=silent_heavy_models())
def test_rows_through_silent_runs_equal_the_set_based_steps(nfa):
    assert_rows_match_the_set_based_steps(nfa, nfa.states)
    sipa = build_sipa(nfa)
    assert sipa_state_count(nfa) == len(sipa.states)
    assert sipa_size(nfa) == (len(sipa.states), len(sipa.transitions))


def test_wide_chain_rows_equal_the_set_based_steps():
    nfa = validate_model(wide_chain_dict())
    assert len(nfa.states) > TABLE_STEP_STATES[-1]
    assert_rows_match_the_set_based_steps(nfa, nfa.states)
    sipa = build_sipa(nfa)
    assert sipa_state_count(nfa) == len(sipa.states)
    assert sipa_size(nfa) == (len(sipa.states), len(sipa.transitions))


def cascading_wide_model(seed, n=150):
    # Silent runs of 5 to 30 states spread over all n bits, some closed into
    # cycles and joined where they share a state, with a fifth of the states
    # secret: closures take many BFS rounds, and clean ones stop at secrets
    # inside the runs.
    rng = random.Random(seed)
    states = [f"q{i}" for i in range(n)]
    edges = set()
    for _ in range(12):
        run = rng.sample(range(n), rng.randint(5, 30))
        event = rng.choice("uv")
        edges.update((p, event, q) for p, q in zip(run, run[1:]))
        if rng.random() < 0.5:
            edges.add((run[-1], event, rng.choice(run)))
    edges.update((rng.randrange(n), rng.choice("ab"), rng.randrange(n)) for _ in range(2 * n))
    return validate_model({
        "states": states,
        "events": [{"name": e, "observable": e in "ab"} for e in "abuv"],
        "initial": [states[i] for i in sorted(rng.sample(range(n), 3))],
        "secret": [states[i] for i in sorted(rng.sample(range(n), n // 5))],
        "transitions": [[states[p], e, states[q]] for p, e, q in sorted(edges)],
    })


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_wide_rows_through_cascading_silent_runs_equal_the_set_based_steps(seed):
    nfa = cascading_wide_model(seed)
    assert len(nfa.states) > TABLE_STEP_STATES[-1]
    silent = {}
    for src, ev, dst in nfa.transitions:
        if ev in "uv":
            silent.setdefault(src, set()).add(dst)
    # Some closure runs past a state's direct silent successors, and some
    # clean closure from a nonsecret state is cut short by a secret.
    assert any(len(unobservable_reach(nfa, [x])) > 1 + len(silent.get(x, ())) for x in nfa.states)
    assert any(
        nonsecret_unobservable_reach(nfa, [x]) != unobservable_reach(nfa, [x])
        for x in nfa.states if x not in nfa.secret_set
    )
    assert_rows_match_the_set_based_steps(nfa, nfa.states)


@settings(max_examples=100, deadline=None)
@given(nfa=small_models())
def test_counts_equal_the_built_structures(nfa):
    # `opaq verify` reports these sizes without building the structures.
    assert sipa_state_count(nfa) == len(build_sipa(nfa).states)
    verdict, walk = walk_verifier(nfa)
    assert len(walk.x2) == len(build_verifier(nfa).states)
    assert verdict == verify_infinite_step_strong(nfa)
