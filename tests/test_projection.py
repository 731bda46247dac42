from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from opaq import (
    OracleConfig,
    TaggedState,
    build_sipa,
    random_nfa,
    sipa_dot,
    validate_model,
)
from opaq.core import Nfa, bits, row_table
from opaq.projection import TAG_N, TAG_Y, sipa_size

from reference import untrimmed_sipa
from test_reach import small_models


def T(base, tag):
    return TaggedState(base, tag)


def projected(nfa):
    """The projected automaton's initial states and edges, read off the row
    table: the closed initial estimate, and one edge per member of each
    reach row, by state, then event, then target."""
    table = row_table(nfa)
    edges = [
        (nfa.states[x], event, nfa.states[t])
        for x in range(len(nfa.states))
        for event, rows in zip(table.events, table.reach)
        for t in bits(rows[x])
    ]
    return table.state_set(table.initial), edges


def test_projected_automaton_of_g2_is_g2(g2):
    initial, edges = projected(g2)
    assert set(edges) == set(g2.transitions)
    assert initial == ("0",)
    assert len(edges) == len(g2.transitions)


def test_projected_automaton_of_fragment(g8frag):
    initial, edges = projected(g8frag)
    assert initial == ("0", "1")
    assert edges == []


def test_projected_automaton_compresses_silence():
    nfa = validate_model(
        {
            "states": ["0", "1", "2"],
            "events": [
                {"name": "u", "observable": False},
                {"name": "a", "observable": True},
            ],
            "initial": ["0"],
            "secret": [],
            "transitions": [["0", "u", "1"], ["1", "a", "2"]],
        }
    )
    _, edges = projected(nfa)
    assert ("0", "a", "2") in edges


def test_g2_sipa_exact(g2):
    sipa = build_sipa(g2)
    assert sipa.initial == (T("0", TAG_N),)
    expected = {
        (T("0", TAG_N), "a", T("1", TAG_Y)),
        (T("0", TAG_N), "a", T("4", TAG_N)),
        (T("0", TAG_N), "a", T("7", TAG_N)),
        (T("1", TAG_Y), "b", T("2", TAG_Y)),
        (T("4", TAG_N), "b", T("5", TAG_Y)),
        (T("7", TAG_N), "b", T("8", TAG_N)),
        (T("2", TAG_Y), "c", T("3", TAG_N)),
        (T("5", TAG_Y), "c", T("6", TAG_Y)),
        (T("8", TAG_N), "c", T("9", TAG_Y)),
        (T("3", TAG_N), "d", T("3", TAG_N)),
        (T("6", TAG_Y), "d", T("6", TAG_N)),
        (T("6", TAG_N), "d", T("6", TAG_N)),
        (T("9", TAG_Y), "d", T("9", TAG_Y)),
    }
    assert set(sipa.transitions) == expected


def test_tagged_pattern_initials_and_edges(tagged_pattern):
    sipa = build_sipa(tagged_pattern)
    assert set(sipa.initial) == {T("0", TAG_N), T("1", TAG_Y)}
    transitions = set(sipa.transitions)
    assert (T("0", TAG_N), "a", T("2", TAG_N)) in transitions
    assert (T("1", TAG_Y), "a", T("2", TAG_Y)) in transitions
    assert (T("2", TAG_N), "b", T("3", TAG_N)) in transitions
    assert (T("2", TAG_Y), "b", T("3", TAG_N)) in transitions


def test_no_secrets_means_all_tags_n(g8frag):
    sipa = build_sipa(g8frag)
    assert all(ts.tag == TAG_N for ts in sipa.initial)
    assert all(src.tag == TAG_N and dst.tag == TAG_N for src, _, dst in sipa.transitions)


@settings(max_examples=120, deadline=None)
@given(nfa=small_models())
def test_no_tagged_state_pairs_n_with_a_secret_base(nfa):
    sipa = build_sipa(nfa)
    secret = set(nfa.secret)
    for ts in sipa.states:
        assert not (ts.tag == TAG_N and ts.base in secret)
    for src, _, dst in sipa.transitions:
        for ts in (src, dst):
            assert not (ts.tag == TAG_N and ts.base in secret)


@settings(max_examples=120, deadline=None)
@given(nfa=small_models())
def test_the_sipa_is_the_reachable_part_of_the_reference(nfa):
    # The set-based tagged automaton over every tagged state, trimmed to
    # the states its initial ones reach, in (declaration, tag) order.
    reference = untrimmed_sipa(nfa)
    reachable = set(reference.initial)
    frontier = list(reachable)
    while frontier:
        src = frontier.pop()
        for dst in (dst for s, _, dst in reference.transitions if s == src and dst not in reachable):
            reachable.add(dst)
            frontier.append(dst)
    sipa = build_sipa(nfa)
    assert sipa.states == tuple(sorted(reachable, key=lambda ts: (nfa.states.index(ts.base), ts.tag)))
    assert sipa.initial == reference.initial
    assert sipa.events == reference.events
    assert sipa.transitions == tuple(t for t in reference.transitions if t[0] in reachable)


@settings(max_examples=120, deadline=None)
@given(nfa=small_models())
def test_sipa_size_caps(nfa):
    sipa = untrimmed_sipa(nfa)
    n = len(nfa.states)
    assert len(sipa.states) <= 2 * n
    assert len(sipa.transitions) <= 4 * n * n * len(nfa.observable_events)


@settings(max_examples=200, deadline=None)
@given(nfa=small_models(max_states=8))
def test_sipa_size_counts_the_built_automaton(nfa):
    sipa = build_sipa(nfa)
    assert sipa_size(nfa) == (len(sipa.states), len(sipa.transitions))


@settings(max_examples=120, deadline=None)
@given(nfa=small_models())
def test_branch_exclusivity_per_target(nfa):
    # From a nonsecret base the two branch families never mix for one target.
    sipa = untrimmed_sipa(nfa)
    secret = set(nfa.secret)
    tags = {}
    for src, ev, dst in sipa.transitions:
        if src.base in secret:
            continue
        tags.setdefault((src.base, ev, dst.base), set()).add(dst.tag)
    for observed in tags.values():
        assert len(observed) == 1


@settings(max_examples=120, deadline=None)
@given(nfa=small_models())
def test_y_to_n_edges_need_a_nonsecret_source_base(nfa):
    sipa = untrimmed_sipa(nfa)
    secret = set(nfa.secret)
    for src, _, dst in sipa.transitions:
        if src.tag == TAG_Y and dst.tag == TAG_N:
            assert src.base not in secret


def _restrict_to_nonsecret(nfa: Nfa) -> Nfa | None:
    keep = [s for s in nfa.states if s not in set(nfa.secret)]
    initial = [s for s in nfa.initial if s in keep]
    if not initial:
        return None
    kept = set(keep)
    return Nfa(
        states=tuple(keep),
        events=nfa.events,
        transitions=tuple(t for t in nfa.transitions if t[0] in kept and t[2] in kept),
        initial=tuple(initial),
        secret=(),
    )


@settings(max_examples=120, deadline=None)
@given(nfa=small_models())
def test_n_fragment_equals_projected_automaton_of_nonsecret_subautomaton(nfa):
    sipa = untrimmed_sipa(nfa)
    sub = _restrict_to_nonsecret(nfa)
    n_edges = {
        (src.base, ev, dst.base)
        for src, ev, dst in sipa.transitions
        if src.tag == TAG_N and dst.tag == TAG_N
    }
    if sub is None:
        # No nonsecret initial: the N fragment still exists over nonsecret
        # bases, so compare against a sub-model with a dummy initial pick.
        keep = [s for s in nfa.states if s not in set(nfa.secret)]
        if not keep:
            assert n_edges == set()
            return
        sub = Nfa(
            states=tuple(keep),
            events=nfa.events,
            transitions=tuple(
                t for t in nfa.transitions if t[0] in set(keep) and t[2] in set(keep)
            ),
            initial=(keep[0],),
            secret=(),
        )
        assert n_edges == set(projected(sub)[1])
        return
    initial, edges = projected(sub)
    assert n_edges == set(edges)
    initial_n = {ts.base for ts in sipa.initial if ts.tag == TAG_N}
    assert initial_n == set(initial)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_construction_is_deterministic(seed):
    cfg = OracleConfig(seed=seed)
    a = build_sipa(random_nfa(cfg))
    b = build_sipa(random_nfa(cfg))
    assert a.states == b.states
    assert a.initial == b.initial
    assert a.transitions == b.transitions
    assert sipa_dot(a) == sipa_dot(b)


def test_dot_uses_tag_suffixes(g2):
    dot = sipa_dot(build_sipa(g2))
    assert '"0_N"' in dot
    assert '"1_Y"' in dot
