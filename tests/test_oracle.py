from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opaq import (
    ModelError,
    OracleConfig,
    observable_reach,
    oracle_current_state,
    oracle_infinite_step_strong,
    oracle_infinite_step_weak,
    oracle_k_step_strong,
    oracle_k_step_weak,
    random_nfa,
    secret_avoiding_reach,
    unobservable_reach,
    validate_model,
    verify_current_state_opacity,
    verify_infinite_step_strong,
    verify_infinite_step_weak,
    verify_k_step_strong,
    verify_k_step_weak,
)
from opaq.core import ResourceLimitError
from opaq.crosscheck import model_config
from opaq.oracle import (
    MaskEngine,
    replay_infinite_strong_violation,
    replay_strong_violation,
    replay_weak_violation,
)

from conftest import wide_chain_dict
from test_reach import small_models


def test_g2_weak_oracle(g2):
    assert oracle_k_step_weak(g2, 2).opaque
    assert oracle_k_step_weak(g2, 0).opaque
    assert oracle_current_state(g2).opaque
    assert oracle_infinite_step_weak(g2).opaque
    assert oracle_infinite_step_weak(g2).exact


def test_g2_strong_oracle(g2):
    assert oracle_k_step_strong(g2, 1).opaque
    verdict = oracle_k_step_strong(g2, 2)
    assert not verdict.opaque
    assert verdict.violation == ("a", "b", "c")
    assert verdict.split == 1
    assert verdict.exact


def test_g2_infinite_strong_oracle(g2):
    verdict = oracle_infinite_step_strong(g2)
    assert not verdict.opaque
    assert verdict.violation == ("a", "b", "c")
    assert verdict.exact


def test_lone_secret_state_violates_at_k0():
    cfg = OracleConfig(seed=0)
    nfa = random_nfa(cfg)
    # Hand-rolled: single reachable secret sink.
    from opaq import validate_model

    nfa = validate_model(
        {
            "states": ["0", "1"],
            "events": [{"name": "a", "observable": True}],
            "initial": ["0"],
            "secret": ["1"],
            "transitions": [["0", "a", "1"]],
        }
    )
    verdict = oracle_k_step_weak(nfa, 0)
    assert not verdict.opaque
    assert verdict.violation == ("a",)
    assert verdict.split == 1


def test_explicit_bound_is_honored(g2):
    verdict = oracle_k_step_weak(g2, 2, OracleConfig(max_len=6))
    assert verdict.opaque and verdict.exact and verdict.bound == 6
    shallow = oracle_k_step_weak(g2, 2, OracleConfig(max_len=2))
    assert shallow.opaque and not shallow.exact


def test_secret_only_estimate_breaks_infinite_weak():
    from opaq import validate_model

    nfa = validate_model(
        {
            "states": ["0", "1"],
            "events": [{"name": "a", "observable": True}],
            "initial": ["0"],
            "secret": ["1"],
            "transitions": [["0", "a", "1"]],
        }
    )
    verdict = oracle_infinite_step_weak(nfa)
    assert not verdict.opaque
    assert verdict.violation == ("a",)


def test_replays_reject_bogus_claims(g2):
    assert not replay_weak_violation(g2, ("a", "b"), 1, 1)
    assert not replay_strong_violation(g2, ("a", "b"), 1)
    assert replay_strong_violation(g2, ("a", "b", "c"), 2)


def test_random_nfa_is_reproducible():
    cfg = OracleConfig(n_states=4, seed=1)
    assert random_nfa(cfg) == random_nfa(cfg)


def test_random_nfa_respects_fractions():
    no_silence = random_nfa(OracleConfig(unobservable_fraction=0.0, seed=5))
    assert no_silence.unobservable_events == ()
    with_silence = random_nfa(OracleConfig(unobservable_fraction=0.4, seed=5))
    assert with_silence.unobservable_events


def test_random_nfa_rejects_degenerate_config():
    with pytest.raises(ModelError):
        random_nfa(OracleConfig(n_states=0))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5))
def test_no_secrets_opaque_under_all_properties(seed, n):
    nfa = random_nfa(OracleConfig(n_states=n, secret_fraction=0.0, seed=seed))
    assert oracle_k_step_weak(nfa, 2).opaque
    assert oracle_k_step_strong(nfa, 2).opaque
    assert oracle_infinite_step_weak(nfa).opaque
    assert oracle_infinite_step_strong(nfa).opaque


@settings(max_examples=100, deadline=None)
@given(nfa=small_models(), k=st.integers(0, 3))
def test_strong_oracle_opaque_implies_weak_oracle_opaque(nfa, k):
    if oracle_k_step_strong(nfa, k).opaque:
        assert oracle_k_step_weak(nfa, k).opaque


@settings(max_examples=100, deadline=None)
@given(nfa=small_models())
def test_strong_oracle_at_k0_is_current_state_opacity(nfa):
    from opaq import verify_current_state_opacity

    assert oracle_k_step_strong(nfa, 0).opaque == verify_current_state_opacity(nfa).opaque


@settings(max_examples=120, deadline=None)
@given(nfa=small_models(), data=st.data())
def test_mask_engine_matches_set_primitives(nfa, data):
    eng = MaskEngine(nfa)
    sources = data.draw(st.sets(st.sampled_from(nfa.states)))
    mask = eng._mask(sources)
    assert eng.to_states(eng.ur(mask)) == unobservable_reach(nfa, sources)
    if not nfa.observable_events:
        return
    pairs = data.draw(
        st.lists(
            st.tuples(st.sets(st.sampled_from(nfa.states)), st.sampled_from(nfa.observable_events)),
            min_size=1,
            max_size=6,
        )
    )
    # The second pass answers every query from the engine's memo.
    for second in (False, True):
        for sources, event in pairs:
            mask = eng._mask(sources)
            if second:
                assert (mask, event) in eng._reach_memo and (mask, event) in eng._avoid_memo
            assert eng.to_states(eng.reach(mask, event)) == observable_reach(nfa, sources, event)
            assert eng.to_states(eng.avoid_reach(mask, event)) == secret_avoiding_reach(
                nfa, sources, event
            )


@settings(max_examples=60, deadline=None)
@given(nfa=small_models(), k=st.integers(0, 3))
def test_violations_come_with_replayable_observations(nfa, k):
    weak = oracle_k_step_weak(nfa, k)
    if not weak.opaque:
        assert replay_weak_violation(nfa, weak.violation, weak.split, k)
    strong = oracle_k_step_strong(nfa, k)
    if not strong.opaque:
        assert replay_strong_violation(nfa, strong.violation, k)


def test_k_searches_run_iteratively_at_large_k():
    # One event; a nonsecret and a secret state each loop, so every search
    # walks a single path 1500 observations deep and never finds a violation.
    nfa = validate_model(
        {
            "states": ["n", "s"],
            "events": [{"name": "a", "observable": True}],
            "initial": ["n", "s"],
            "secret": ["s"],
            "transitions": [["n", "a", "n"], ["s", "a", "s"]],
        }
    )
    for search in (oracle_k_step_weak, oracle_k_step_strong):
        verdict = search(nfa, 1500)
        assert verdict.opaque and verdict.exact and verdict.bound == 1500


@settings(max_examples=150, deadline=None)
@given(nfa=small_models())
def test_k_step_oracles_are_monotone_in_k(nfa):
    # The batch asks the oracle at two K per family and fills in the rest,
    # which holds only if a violation within K is one within K + 1.
    for search in (oracle_k_step_weak, oracle_k_step_strong):
        eng = MaskEngine(nfa)
        opaque = [search(nfa, k, eng=eng).opaque for k in range(7)]
        assert opaque == sorted(opaque, reverse=True), search.__name__


def two_loops():
    # Two events looping on a nonsecret and a secret initial state: opaque
    # at every K, with 2^(K+1) - 1 strings per anchor.
    return validate_model(
        {
            "states": ["n", "s"],
            "events": [{"name": e, "observable": True} for e in "ab"],
            "initial": ["n", "s"],
            "secret": ["s"],
            "transitions": [[q, e, q] for q in "ns" for e in "ab"],
        }
    )


@pytest.mark.parametrize("search, name", [
    (oracle_k_step_weak, "oracle k-step weak search"),
    (oracle_k_step_strong, "oracle k-step strong search"),
])
def test_k_searches_stop_at_the_cap(search, name):
    nfa = two_loops()
    # At K = 3 the one anchor's walk examines 15 strings.
    assert search(nfa, 3, max_states=15).opaque
    with pytest.raises(ResourceLimitError, match=f"^{name} exceeded 14 strings$"):
        search(nfa, 3, max_states=14)
    with pytest.raises(ResourceLimitError, match=f"^{name} exceeded 1000 strings$"):
        search(nfa, 30, max_states=1000)


@pytest.mark.parametrize("search", [oracle_k_step_weak, oracle_k_step_strong])
def test_the_cap_counts_the_strings_of_every_anchor(search):
    # Two estimates, {n,s} and {m,t}, each hold a secret; one event, so
    # each anchor's walk examines K + 1 strings and the search 2(K + 1).
    nfa = validate_model(
        {
            "states": ["n", "s", "m", "t"],
            "events": [{"name": "a", "observable": True}],
            "initial": ["n", "s"],
            "secret": ["s", "t"],
            "transitions": [["n", "a", "m"], ["s", "a", "t"], ["m", "a", "m"], ["t", "a", "t"]],
        }
    )
    assert len(MaskEngine(nfa).reach_bfs()[0]) == 2
    assert search(nfa, 3, max_states=8).opaque
    with pytest.raises(ResourceLimitError, match="exceeded 7 strings"):
        search(nfa, 3, max_states=7)


GOLDEN_BATCH = os.path.join(os.path.dirname(__file__), "fixtures", "golden", "oracle_batch.json")


def _oracle_search(nfa, prop, k, eng):
    if prop == "k-weak":
        return oracle_k_step_weak(nfa, k, eng=eng)
    if prop == "k-strong":
        return oracle_k_step_strong(nfa, k, eng=eng)
    if prop == "inf-weak":
        return oracle_infinite_step_weak(nfa, eng=eng)
    return oracle_infinite_step_strong(nfa, eng=eng)


@pytest.mark.parametrize("shared", [False, True], ids=["fresh-engine", "shared-engine"])
def test_oracle_batch_matches_golden(shared):
    """Every oracle verdict on a 60-model batch, pinned before the engine memo existed.

    With ``shared`` one engine per model serves every search, in the order
    of a per-K sweep: cs (k-weak at 0), then k-weak and k-strong per K, then
    inf-weak and inf-strong.  The batch asks fewer K, in another order, and
    the memo makes no verdict depend on the order.
    """
    with open(GOLDEN_BATCH, encoding="utf-8") as fh:
        golden = json.load(fh)
    searches = [tuple(s) for s in golden["searches"]]
    order = [("k-weak", 0)] + [(p, k) for k in range(4) for p in ("k-weak", "k-strong")]
    order += [("inf-weak", None), ("inf-strong", None)]
    assert set(order) == set(searches)
    assert len(golden["verdicts"]) == golden["models"]
    for index, expected in enumerate(golden["verdicts"]):
        nfa = random_nfa(model_config(golden["base_seed"], index, golden["max_states"]))
        eng = MaskEngine(nfa) if shared else None
        got = {}
        for prop, k in order:
            v = _oracle_search(nfa, prop, k, eng)
            row = [v.opaque, None if v.violation is None else list(v.violation), v.split, v.bound, v.exact]
            assert got.setdefault((prop, k), row) == row
        assert [got[s] for s in searches] == expected, f"model {index}"


def test_engine_of_another_model_is_rejected(g2, g8frag):
    with pytest.raises(ValueError):
        oracle_k_step_weak(g2, 1, eng=MaskEngine(g8frag))


def test_wide_chain_verdicts_and_witnesses_match_the_oracle():
    # 241 states with silent runs: the constructions step by the bit loop
    # over rows built with both kinds of closure.
    nfa = validate_model(wide_chain_dict())
    eng = MaskEngine(nfa)
    k = 3
    checks = [
        (verify_current_state_opacity(nfa), oracle_current_state(nfa),
         lambda w: replay_weak_violation(nfa, w.prefix + w.continuation, len(w.prefix), 0, eng=eng)),
        (verify_k_step_weak(nfa, k), oracle_k_step_weak(nfa, k),
         lambda w: replay_weak_violation(nfa, w.prefix + w.continuation, len(w.prefix), k, eng=eng)),
        (verify_k_step_strong(nfa, k), oracle_k_step_strong(nfa, k),
         lambda w: replay_strong_violation(nfa, w.prefix + w.continuation, k, eng=eng)),
        (verify_infinite_step_weak(nfa), oracle_infinite_step_weak(nfa),
         lambda w: replay_weak_violation(nfa, w.prefix + w.continuation, len(w.prefix), None, eng=eng)),
        (verify_infinite_step_strong(nfa), oracle_infinite_step_strong(nfa),
         lambda w: replay_infinite_strong_violation(nfa, w.prefix + w.continuation, eng=eng)),
    ]
    assert [verdict.opaque for verdict, _, _ in checks] == [True, False, False, False, False]
    for verdict, oracle, replays in checks:
        assert oracle.exact
        assert verdict.opaque == oracle.opaque
        assert verdict.opaque or replays(verdict.witness)
