from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opaq import build_observer, observer_dot, validate_model
from opaq.core import row_table

from reference import observer_state_after
from test_reach import small_models


def observation_feasible_by_product(nfa, w):
    """Reachability in the product of the model with the string automaton."""
    seen = {(x, 0) for x in nfa.initial}
    frontier = list(seen)
    unobservable = set(nfa.unobservable_events)
    while frontier:
        state, pos = frontier.pop()
        for src, ev, dst in nfa.transitions:
            if src != state:
                continue
            if ev in unobservable:
                nxt = (dst, pos)
            elif pos < len(w) and ev == w[pos]:
                nxt = (dst, pos + 1)
            else:
                continue
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return {x for x, pos in seen if pos == len(w)}


def test_g2_observer_chain(g2):
    obs = build_observer(g2)
    assert obs.states == (
        ("0",),
        ("1", "4", "7"),
        ("2", "5", "8"),
        ("3", "6", "9"),
    )
    assert obs.transitions == {
        (("0",), "a"): ("1", "4", "7"),
        (("1", "4", "7"), "b"): ("2", "5", "8"),
        (("2", "5", "8"), "c"): ("3", "6", "9"),
        (("3", "6", "9"), "d"): ("3", "6", "9"),
    }
    # One row per estimate, one target per event a..d, -1 for no move.
    assert obs.moves == ((1, -1, -1, -1), (-1, 2, -1, -1), (-1, -1, 3, -1), (-1, -1, -1, 3))
    # Each estimate past the first holds one of the secret states 1, 5, 9.
    assert obs.secret_positions == (1, 2, 3)


def test_an_observer_is_immutable(g2):
    # Its named views are cached on first access, so its fields stay fixed.
    obs = build_observer(g2)
    states = obs.states
    for name in ("masks", "moves", "table", "states"):
        with pytest.raises(AttributeError):
            setattr(obs, name, ())
    with pytest.raises(AttributeError):
        del obs.masks
    assert obs.states is states and len(obs.masks) == len(states)


def test_observer_without_observable_events():
    nfa = validate_model(
        {
            "states": ["0", "1"],
            "events": [{"name": "u", "observable": False}],
            "initial": ["0"],
            "secret": [],
            "transitions": [["0", "u", "1"], ["1", "u", "0"]],
        }
    )
    obs = build_observer(nfa)
    assert obs.states == (("0", "1"),)
    assert obs.transitions == {}
    assert obs.moves == ((),)
    # An unobservable or undeclared event moves no estimate.
    assert observer_state_after(obs, ("u",)) is None
    assert observer_state_after(obs, ("x",)) is None
    assert observer_state_after(obs, ()) == ("0", "1")


def test_g8frag_observer(g8frag):
    obs = build_observer(g8frag)
    assert obs.initial == ("0", "1")
    assert obs.transitions == {}


def test_observer_state_after_examples(g2):
    obs = build_observer(g2)
    assert observer_state_after(obs, ("a", "b")) == ("2", "5", "8")
    assert observer_state_after(obs, ()) == ("0",)
    assert observer_state_after(obs, ("b",)) is None


def test_observer_dot_names_estimates(g2):
    dot = observer_dot(build_observer(g2))
    assert '"{2,5,8}"' in dot
    assert '"{1,4,7}" -> "{2,5,8}" [label="b"];' in dot
    assert dot == observer_dot(build_observer(g2))


@settings(max_examples=100, deadline=None)
@given(nfa=small_models())
def test_each_estimate_has_one_dense_row(nfa):
    # moves[i][e] is the target position of estimate i under event e, or -1
    # exactly when that reach is empty.
    obs = build_observer(nfa)
    steps = row_table(nfa).reach_steps
    assert len(obs.moves) == len(obs.masks)
    for i, row in enumerate(obs.moves):
        assert len(row) == len(obs.events)
        for e, j in enumerate(row):
            if not steps[e](obs.masks[i]):
                assert j == -1
                assert (obs.states[i], obs.events[e]) not in obs.transitions
            else:
                assert j == obs.index[obs.transitions[(obs.states[i], obs.events[e])]]
    assert sum(j >= 0 for row in obs.moves for j in row) == len(obs.transitions)


@settings(max_examples=100, deadline=None)
@given(nfa=small_models())
def test_secret_positions_are_the_estimates_that_meet_a_secret(nfa):
    obs = build_observer(nfa)
    secret = set(nfa.secret)
    assert obs.secret_positions == tuple(i for i, state in enumerate(obs.states) if secret & set(state))


@settings(max_examples=100, deadline=None)
@given(nfa=small_models())
def test_observer_language_matches_product_reachability(nfa):
    obs = build_observer(nfa)
    for length in range(0, 3):
        for w in itertools.product(nfa.observable_events, repeat=length):
            via_observer = observer_state_after(obs, w)
            endpoints = observation_feasible_by_product(nfa, w)
            assert (via_observer is not None) == bool(endpoints)
            if via_observer is not None:
                assert set(via_observer) == endpoints


@settings(max_examples=100, deadline=None)
@given(nfa=small_models(), data=st.data())
def test_observer_replay_is_deterministic(nfa, data):
    obs = build_observer(nfa)
    if not nfa.observable_events:
        return
    w = tuple(data.draw(st.lists(st.sampled_from(nfa.observable_events), max_size=4)))
    assert observer_state_after(obs, w) == observer_state_after(obs, w)
