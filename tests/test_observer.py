from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opaq.core
from opaq import build_observer, observer_dot, validate_model
from opaq.core import ResourceLimitError, model_to_dict, row_table
from opaq.oracle import OracleConfig, random_nfa

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
                assert j == obs.states.index(obs.transitions[(obs.states[i], obs.events[e])])
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


# -- the byte-table loop against the bit loop --------------------------------


def nth_last_dict(n, loop=False):
    """The n-th-from-last-symbol model of ``fixtures/nth_last12.json`` for any
    n: n + 2 states and 2^n estimates.

    With *loop*, a third event ``c`` loops on n alone, so every estimate
    without n has an empty reach under ``c``, and {n} one under ``a`` and
    ``b``.
    """
    transitions = [["0", "a", "0"], ["0", "b", "0"], ["0", "a", "1"]]
    for i in range(1, n):
        transitions += [[str(i), "a", str(i + 1)], [str(i), "b", str(i + 1)]]
    transitions += [["0", "u", "s"], ["s", "a", "0"]]
    return {
        "states": [str(i) for i in range(n + 1)] + ["s"],
        "events": [{"name": e, "observable": True} for e in "abc"[:3 if loop else 2]]
        + [{"name": "u", "observable": False}],
        "initial": ["0"],
        "secret": [str(n)],
        "transitions": transitions + ([[str(n), "c", str(n)]] if loop else []),
    }


def silent_chain_dict(n=12):
    """n states on a chain of unobservable moves: one estimate, no event."""
    return {
        "states": [f"q{i}" for i in range(n)],
        "events": [{"name": "u", "observable": False}],
        "initial": ["q0"],
        "secret": [f"q{n - 1}"],
        "transitions": [[f"q{i}", "u", f"q{i + 1}"] for i in range(n - 1)],
    }


@st.composite
def random_table_model_dicts(draw):
    cfg = OracleConfig(
        n_states=draw(st.integers(9, 16)),
        n_events=draw(st.integers(1, 4)),
        unobservable_fraction=draw(st.sampled_from([0.0, 0.3, 0.6])),
        secret_fraction=draw(st.sampled_from([0.0, 0.25, 0.5])),
        density=draw(st.sampled_from([1.0, 1.5, 2.0, 2.5])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return model_to_dict(random_nfa(cfg))


def observer_fields(obs):
    return obs.masks, obs.moves, obs.parents


# nth-last for n = 7..14 has 9 to 16 states and crosses the switch from the
# dict index to the list at 2^(n - 4) of its 2^n estimates; with the c loop
# it meets empty reaches on both sides of the switch.
@settings(max_examples=60, deadline=None)
@given(raw=st.one_of(
    random_table_model_dicts(), st.builds(nth_last_dict, st.integers(7, 14), st.booleans()),
    st.just(silent_chain_dict()),
))
def test_the_table_loop_builds_the_bit_loops_observer(raw):
    nfa = validate_model(raw)
    assert row_table(nfa).reach_tables is not None
    obs = build_observer(nfa)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(opaq.core, "TABLE_STEP_STATES", range(0))
        by_bits = validate_model(raw)
        assert row_table(by_bits).reach_tables is None
        assert observer_fields(build_observer(by_bits)) == observer_fields(obs)
    assert type(obs.moves) is tuple and all(type(row) is tuple for row in obs.moves)
    # Both loops stop at the same estimate: the first one past the cap.
    n = len(obs.masks)
    for model in (nfa, by_bits):
        assert observer_fields(build_observer(model, max_states=n)) == observer_fields(obs)
        if n > 1:
            with pytest.raises(ResourceLimitError, match=f"^observer exceeded {n - 1} states$"):
                build_observer(model, max_states=n - 1)
