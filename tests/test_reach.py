from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opaq import ModelError, OracleConfig, random_nfa, validate_model
from opaq.core import TABLE_STEP_STATES, bits, row_table, set_step, union

from reference import (
    observable_events_at,
    observable_reach,
    secret_avoiding_reach,
    step,
    unobservable_reach,
)


def small_models(max_states=5, max_events=4):
    @st.composite
    def build(draw):
        cfg = OracleConfig(
            n_states=draw(st.integers(1, max_states)),
            n_events=draw(st.integers(1, max_events)),
            unobservable_fraction=draw(st.sampled_from([0.0, 0.3, 0.6])),
            secret_fraction=draw(st.sampled_from([0.0, 0.25, 0.5])),
            density=draw(st.sampled_from([1.0, 1.5, 2.0, 2.5])),
            seed=draw(st.integers(0, 2**32 - 1)),
        )
        return random_nfa(cfg)

    return build()


def subset_of_states(nfa):
    return st.sets(st.sampled_from(nfa.states)) if nfa.states else st.just(set())


def reach_by_string_search(nfa, sources, event):
    # Product with the two-phase automaton accepting strings that project
    # to exactly one occurrence of `event`.
    seen = {(x, 0) for x in sources}
    frontier = list(seen)
    unobservable = set(nfa.unobservable_events)
    while frontier:
        state, phase = frontier.pop()
        for src, ev, dst in nfa.transitions:
            if src != state:
                continue
            if ev in unobservable:
                nxt = (dst, phase)
            elif ev == event and phase == 0:
                nxt = (dst, 1)
            else:
                continue
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return nfa.state_set(x for x, phase in seen if phase == 1)


# -- fixture examples ------------------------------------------------------


def test_step_examples(g2):
    assert step(g2, ("0",), "a") == ("1", "4", "7")
    assert step(g2, ("7",), "c") == ()
    assert step(g2, ("2", "8"), "c") == ("3", "9")


def test_unobservable_reach_examples(g2, g8frag):
    assert unobservable_reach(g2, ("0",)) == ("0",)
    assert unobservable_reach(g8frag, ("0",)) == ("0", "1")
    assert unobservable_reach(g2, ()) == ()


def test_observable_reach_examples(g2, g8frag):
    assert observable_reach(g2, ("0",), "a") == ("1", "4", "7")
    assert observable_reach(g2, ("1", "4", "7"), "b") == ("2", "5", "8")
    # The fragment has no a-transitions at all.
    assert observable_reach(g8frag, ("0", "1"), "a") == ()


def test_observable_reach_rejects_unobservable_event(g8frag):
    with pytest.raises(ModelError, match="not observable"):
        observable_reach(g8frag, ("0",), "b")


def test_observable_events_at_examples(g2):
    assert observable_events_at(g2, ("0",)) == ("a",)
    assert observable_events_at(g2, ("3", "6", "9")) == ("d",)
    assert observable_events_at(g2, ()) == ()


def test_secret_avoiding_reach_examples(g2):
    assert secret_avoiding_reach(g2, ("7",), "b") == ("8",)
    assert secret_avoiding_reach(g2, ("4",), "b") == ()
    assert secret_avoiding_reach(g2, ("2", "8"), "c") == ("3",)


# -- properties ------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(data=st.data(), nfa=small_models())
def test_unobservable_reach_is_extensive_monotone_idempotent(data, nfa):
    a = data.draw(subset_of_states(nfa))
    b = data.draw(subset_of_states(nfa))
    ra = unobservable_reach(nfa, a)
    assert set(a) <= set(ra)
    assert unobservable_reach(nfa, ra) == ra
    if a <= b:
        assert set(ra) <= set(unobservable_reach(nfa, b))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), nfa=small_models())
def test_observable_reach_matches_string_search(data, nfa):
    if not nfa.observable_events:
        return
    sources = data.draw(subset_of_states(nfa))
    event = data.draw(st.sampled_from(nfa.observable_events))
    assert observable_reach(nfa, sources, event) == reach_by_string_search(nfa, sources, event)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), nfa=small_models())
def test_secret_avoiding_reach_is_contained_and_nonsecret(data, nfa):
    if not nfa.observable_events:
        return
    sources = data.draw(subset_of_states(nfa))
    event = data.draw(st.sampled_from(nfa.observable_events))
    avoiding = secret_avoiding_reach(nfa, sources, event)
    full = observable_reach(nfa, sources, event)
    assert set(avoiding) <= set(full) - set(nfa.secret)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5))
def test_no_secrets_makes_avoiding_reach_equal_full_reach(data, seed, n):
    nfa = random_nfa(OracleConfig(n_states=n, secret_fraction=0.0, seed=seed))
    if not nfa.observable_events:
        return
    sources = data.draw(subset_of_states(nfa))
    event = data.draw(st.sampled_from(nfa.observable_events))
    assert secret_avoiding_reach(nfa, sources, event) == observable_reach(nfa, sources, event)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), nfa=small_models())
def test_reach_outputs_are_canonical_and_repeatable(data, nfa):
    sources = data.draw(subset_of_states(nfa))
    first = unobservable_reach(nfa, sources)
    again = unobservable_reach(nfa, sorted(sources, reverse=True))
    assert first == again
    assert list(first) == sorted(first, key=nfa.states.index)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.one_of(st.sampled_from([1, 7, 8, 9, 16, 17, 63, 64, 65, 130]), st.integers(1, 130)))
def test_set_step_equals_union(data, n):
    full = 2**n - 1
    rows = data.draw(st.lists(st.one_of(st.just(0), st.integers(0, full)), min_size=n, max_size=n))
    support = sum(1 << i for i, row in enumerate(rows) if row)
    step = set_step(rows, support)
    # Empty and full masks, and masks within the top chunk (the high lookup
    # of a 9-16-row step).  Each mask twice: a 17-64-row step fills table
    # entries on the first pass and reads them back on the second.
    top = full & ~(2 ** (n - 1 & ~7) - 1)
    masks = [0, full, top, 1 << n - 1] + data.draw(st.lists(st.integers(0, full), max_size=8))
    masks += [data.draw(st.integers(0, full)) & top for _ in range(3)]
    for mask in masks + masks:
        assert step(mask) == union(rows, mask & support)


def test_table_steps_serve_9_to_64_states():
    # Only the per-bit path reads the support, so a step that ignores an
    # empty one took the table path.
    for n, tables in ((8, False), (9, True), (64, True), (65, False)):
        rows = [1 << i for i in range(n)]
        assert (set_step(rows, 0)(2**n - 1) != 0) is tables


# -- the set-bit loops against a plain reading -----------------------------


@pytest.mark.parametrize("n", [1, 8, 65, 130, 2401, 4100])
def test_set_bit_loops_equal_a_plain_reading(n):
    # None of these widths takes the byte tables, so set_step is the bit loop.
    assert n not in TABLE_STEP_STATES
    rng = random.Random(n)
    full = 2**n - 1
    rows = [rng.getrandbits(n) if rng.random() < 0.7 else 0 for _ in range(n)]
    support = sum(1 << i for i, row in enumerate(rows) if row)
    step = set_step(rows, support)
    states = [f"s{i}" for i in range(n)]
    table = row_table(validate_model({
        "states": states,
        "events": [{"name": "a", "observable": True}],
        "initial": states[:1],
        "secret": [],
        "transitions": [],
    }))
    sparse = [sum(1 << i for i in rng.sample(range(n), rng.randint(1, min(n, 6)))) for _ in range(8)]
    for mask in [0, 1, 1 << n - 1, full, rng.getrandbits(n)] + sparse:
        members = [i for i in range(n) if mask >> i & 1]
        expected = 0
        for i in members:
            expected |= rows[i]
        assert bits(mask) == members
        assert union(rows, mask) == expected
        assert step(mask) == expected
        assert table.state_set(mask) == tuple(states[i] for i in members)
