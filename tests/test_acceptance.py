"""Acceptance suite: one test per criterion, one printed verdict line each.

The batch (criterion 3) runs once per session and feeds criteria 3 through 7;
its JSONL report, written under the session's temporary directory, is pinned
by its sha256.
Criterion 3 demands that every construction verdict agrees with the oracle.
A disagreement is serialized under tests/_artifacts/divergences/ (ignored by
git) and fails the criterion.  The K-step strong hidden-crossing family
that once diverged at seed 7 is closed (README, "Known divergence
(closed)"); the message below still names it should it ever return.
"""

from __future__ import annotations

import hashlib
import os
import time

import pytest

from opaq import (
    VerifierState,
    build_observer,
    build_verifier,
    verifier_dot,
    verify_current_state_opacity,
    verify_infinite_step_strong,
    verify_infinite_step_weak,
    verify_k_step_strong,
    verify_k_step_weak,
)
from opaq.crosscheck import model_config, run_crosscheck
from opaq.oracle import random_nfa

ARTIFACTS = os.path.join(os.path.dirname(__file__), "_artifacts", "divergences")

BATCH_MODELS = 500
BATCH_SEED = 7
BATCH_KS = (0, 1, 2, 3)
BATCH_MAX_STATES = 5
# sha256 of the batch's JSONL report, as `opaq crosscheck` writes it with its
# defaults (500 models, --max-states 5, --k 0..3, --seed 7).
BATCH_REPORT_SHA256 = "698be602107867ebf91061e9e20043ffa0e55df8e2113116780253cecd5496d5"


def _verdict_line(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"criterion {criterion}: {status}{suffix}")


@pytest.fixture(scope="session")
def batch_report(tmp_path_factory):
    return tmp_path_factory.mktemp("batch") / "crosscheck_report.jsonl"


@pytest.fixture(scope="session")
def batch(batch_report):
    result = run_crosscheck(
        models=BATCH_MODELS,
        max_states=BATCH_MAX_STATES,
        ks=BATCH_KS,
        seed=BATCH_SEED,
        report_path=str(batch_report),
        fixtures_dir=ARTIFACTS,
        structural=True,
    )
    return result


def test_criterion_1_g2_verdict_matrix(g2):
    started = time.monotonic()
    obs = build_observer(g2)
    expectations = [
        ("current-state", verify_current_state_opacity(g2, obs).opaque, True),
        ("1-step weak", verify_k_step_weak(g2, 1, obs).opaque, True),
        ("2-step weak", verify_k_step_weak(g2, 2, obs).opaque, True),
        ("1-step strong", verify_k_step_strong(g2, 1, obs).opaque, True),
        ("2-step strong", verify_k_step_strong(g2, 2, obs).opaque, False),
        ("infinite-step weak", verify_infinite_step_weak(g2, obs).opaque, True),
        ("infinite-step strong", verify_infinite_step_strong(g2, obs).opaque, False),
    ]
    elapsed = time.monotonic() - started
    witness = verify_infinite_step_strong(g2, obs).witness
    ok = (
        all(actual == wanted for _, actual, wanted in expectations)
        and witness.observation == ("a", "b", "c")
        and elapsed < 1.0
    )
    _verdict_line("1 (fixture verdict matrix)", ok, f"{elapsed * 1000:.0f} ms")
    for name, actual, wanted in expectations:
        assert actual == wanted, name
    assert witness.observation == ("a", "b", "c")
    assert elapsed < 1.0


def test_criterion_2_verifier_hand_trace(g2):
    ver = build_verifier(g2)
    s0 = VerifierState(("0",), ("0",))
    s1 = VerifierState(("1", "4", "7"), ("4", "7"))
    s2 = VerifierState(("2", "5", "8"), ("8",))
    s3 = VerifierState(("3", "6", "9"), ())
    states_ok = ver.states == (s0, s1, s2, s3)
    transitions_ok = ver.transitions == {
        (s0, "a"): s1,
        (s1, "b"): s2,
        (s2, "c"): s3,
        (s3, "d"): s3,
    }
    dot_ok = verifier_dot(build_verifier(g2)) == verifier_dot(build_verifier(g2))
    _verdict_line("2 (verifier hand-trace)", states_ok and transitions_ok and dot_ok)
    assert states_ok
    assert transitions_ok
    assert dot_ok


def test_criterion_3_oracle_agreement(batch):
    silent_half = sum(
        1
        for i in range(BATCH_MODELS)
        if random_nfa(model_config(BATCH_SEED, i, BATCH_MAX_STATES)).unobservable_events
    )
    bad = batch.disagreements
    ok = not bad and batch.elapsed < 300 and silent_half >= BATCH_MODELS // 2
    detail = (
        f"{len(batch.rows)} checks, {len(bad)} disagreements, "
        f"{batch.elapsed:.1f}s, {silent_half} models with silence"
    )
    _verdict_line("3 (oracle agreement)", ok, detail)
    assert silent_half >= BATCH_MODELS // 2
    assert batch.elapsed < 300
    if bad:
        known_family = all(
            d["property"] == "k-strong" and d["verify_opaque"] and not d["oracle_opaque"]
            for d in bad
        )
        message = (
            f"{len(bad)} verdict disagreements; divergent models serialized to "
            f"{ARTIFACTS} ({len(batch.divergence_fixtures)} fixtures). "
            + (
                "All are the documented one-directional k-strong hidden-crossing "
                "family (tree check opaque, definitional check violated); see "
                "README 'Known divergence' and tests/test_divergence_regression.py."
                if known_family
                else "UNEXPECTED disagreement family; investigate immediately."
            )
        )
        pytest.fail(message)


def test_the_batch_report_is_byte_identical(batch, batch_report):
    # The rows and their JSONL encoding are pinned, not only the verdicts.
    assert len(batch.rows) == 11 * BATCH_MODELS
    assert hashlib.sha256(batch_report.read_bytes()).hexdigest() == BATCH_REPORT_SHA256


def test_criterion_4_verifier_projects_onto_observer(batch):
    ok = not batch.projection_failures
    _verdict_line("4 (verifier/observer projection)", ok)
    assert ok, batch.projection_failures[:5]


def test_criterion_5_sst_emptiness_absorbing(batch):
    ok = not batch.absorbing_failures
    _verdict_line("5 (absorbing emptiness)", ok)
    assert ok, batch.absorbing_failures[:5]


def test_criterion_6_structural_size_caps(batch):
    ok = not batch.cap_failures
    _verdict_line("6 (structural size caps)", ok)
    assert ok, batch.cap_failures[:5]


def test_criterion_7_finite_bound_matches_infinite_weak(batch):
    ok = not batch.weak_bound_failures
    _verdict_line("7 (finite/infinite weak consistency)", ok)
    assert ok, batch.weak_bound_failures[:5]
