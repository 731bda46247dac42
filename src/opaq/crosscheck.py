"""Seeded batch cross-validation of the constructions against the oracles.

Each batch model is checked on all five properties; verdicts must agree.
Structural assertions (size caps, absorbing emptiness on trees, the
verifier/observer projection, and the finite/infinite weak consistency
bound) run on the same models.  Any disagreement, or a construction
witness that does not replay, is serialized as a standalone model fixture
before the batch is reported as failed.
"""

from __future__ import annotations

import json
import os
import time
from bisect import bisect_right
from dataclasses import dataclass, field

from .core import Nfa, model_to_dict
from .observer import Observer, build_observer
from .oracle import (
    MaskEngine,
    OracleConfig,
    OracleVerdict,
    oracle_infinite_step_strong,
    oracle_infinite_step_weak,
    oracle_k_step_strong,
    oracle_k_step_weak,
    random_nfa,
    replay_infinite_strong_violation,
    replay_strong_violation,
    replay_weak_violation,
)
from .projection import build_sipa
from .strong import (
    build_sst,
    build_verifier,
    check_verifier_observer_language_equality,
    verify_infinite_step_strong,
    verify_k_step_strong,
)
from .weak import (
    Verdict,
    build_weak_state_tree,
    secret_intersecting_roots,
    verify_current_state_opacity,
    verify_infinite_step_weak,
    verify_k_step_weak,
)

PROPERTIES = ("cs", "k-weak", "k-strong", "inf-weak", "inf-strong")


@dataclass
class BatchResult:
    rows: list[dict] = field(default_factory=list)
    disagreements: list[dict] = field(default_factory=list)
    projection_failures: list[str] = field(default_factory=list)
    absorbing_failures: list[str] = field(default_factory=list)
    cap_failures: list[str] = field(default_factory=list)
    weak_bound_failures: list[str] = field(default_factory=list)
    divergence_fixtures: list[str] = field(default_factory=list)
    models: int = 0
    elapsed: float = 0.0

    @property
    def structural_failures(self) -> list[str]:
        return (
            self.projection_failures
            + self.absorbing_failures
            + self.cap_failures
            + self.weak_bound_failures
        )

    @property
    def ok(self) -> bool:
        return not self.disagreements and not self.structural_failures


def model_config(base_seed: int, index: int, max_states: int, max_events: int = 4) -> OracleConfig:
    """Per-model generator parameters; every other model gets silence."""
    seed = base_seed * 1_000_003 + index
    local = (seed * 2654435761) % 2**32
    n_states = 2 + local % (max_states - 1) if max_states > 1 else 1
    n_events = 2 + (local >> 8) % (max_events - 1) if max_events > 1 else 1
    unobs = 0.0 if index % 2 == 0 else 0.35
    density = 1.2 + ((local >> 16) % 5) * 0.25
    secret = 0.2 + ((local >> 20) % 3) * 0.1
    return OracleConfig(
        n_states=n_states,
        n_events=n_events,
        unobservable_fraction=unobs,
        secret_fraction=secret,
        density=density,
        seed=seed,
    )


def _witness_replays(
    nfa: Nfa, prop: str, k: int | None, verdict: Verdict, eng: MaskEngine
) -> bool:
    if verdict.opaque:
        return True
    w = verdict.witness
    obs = w.prefix + w.continuation
    if prop in ("cs", "k-weak"):
        return replay_weak_violation(nfa, obs, len(w.prefix), k if prop == "k-weak" else 0, eng=eng)
    if prop == "inf-weak":
        return replay_weak_violation(nfa, obs, len(w.prefix), None, eng=eng)
    if prop == "k-strong":
        return replay_strong_violation(nfa, obs, k, eng=eng)
    return replay_infinite_strong_violation(nfa, obs, eng=eng)


def _agreement_rows(nfa: Nfa, seed: int, ks: tuple[int, ...], obs: Observer) -> list[dict]:
    # One oracle engine per model: the model's oracle searches and witness
    # replays share its memoized steps and estimate BFS.
    eng = MaskEngine(nfa)
    rows = []

    def row(prop: str, k: int | None, verify: Verdict, oracle: OracleVerdict) -> dict:
        return {
            "seed": seed,
            "property": prop,
            "k": k,
            "verify_opaque": verify.opaque,
            "oracle_opaque": oracle.opaque,
            "oracle_exact": oracle.exact,
            "agree": verify.opaque == oracle.opaque,
            "witness_replays": _witness_replays(nfa, prop, k, verify, eng),
        }

    rows.append(row("cs", None, verify_current_state_opacity(nfa, obs), oracle_k_step_weak(nfa, 0, eng=eng)))
    for k in ks:
        rows.append(row("k-weak", k, verify_k_step_weak(nfa, k, obs), oracle_k_step_weak(nfa, k, eng=eng)))
        rows.append(row("k-strong", k, verify_k_step_strong(nfa, k, obs), oracle_k_step_strong(nfa, k, eng=eng)))
    rows.append(
        row("inf-weak", None, verify_infinite_step_weak(nfa, obs), oracle_infinite_step_weak(nfa, eng=eng))
    )
    rows.append(
        row("inf-strong", None, verify_infinite_step_strong(nfa, obs), oracle_infinite_step_strong(nfa, eng=eng))
    )
    return rows


def _structural_checks(
    nfa: Nfa, seed: int, ks: tuple[int, ...], result: BatchResult, obs: Observer
) -> None:
    sipa = build_sipa(nfa)
    ver = build_verifier(nfa, obs)
    n = len(nfa.states)
    n_eo = len(nfa.observable_events)

    if len(obs.masks) > 2**n:
        result.cap_failures.append(f"seed {seed}: observer exceeds 2^|X| states")
    if len(sipa.states) > 2 * n:
        result.cap_failures.append(f"seed {seed}: tagged automaton exceeds 2|X| states")
    if len(sipa.transitions) > 4 * n * n * n_eo:
        result.cap_failures.append(f"seed {seed}: tagged automaton exceeds 4|X|^2|Eo| transitions")
    if len(ver.states) > 4**n:
        result.cap_failures.append(f"seed {seed}: verifier exceeds 4^|X| states")

    ok, certificate = check_verifier_observer_language_equality(obs, ver)
    if not ok:
        result.projection_failures.append(
            f"seed {seed}: verifier/observer projection failed: {certificate[0]}"
        )

    # One tree of each kind per root, at the largest K; the tree at k is its
    # depth-<=k prefix (nodes are in level order).  Emptiness is not absorbing
    # at k when an edge from an empty x2 to a nonempty one ends at depth <= k.
    top = max(ks)
    trees = []
    for root in secret_intersecting_roots(nfa, obs):
        weak = build_weak_state_tree(nfa, obs, root, top)
        sst = build_sst(nfa, obs, root, top)
        refill = min((d.depth for s, _, d in sst.edges if d.x2 and not s.x2), default=top + 1)
        trees.append(([n.depth for n in weak.nodes], [n.depth for n in sst.nodes], refill))
    for k in ks:
        cap = sum(n_eo**i for i in range(k + 1))
        for weak_depths, sst_depths, refill in trees:
            if bisect_right(weak_depths, k) > cap:
                result.cap_failures.append(f"seed {seed}: weak tree exceeds node cap at k={k}")
            if bisect_right(sst_depths, k) > cap:
                result.cap_failures.append(f"seed {seed}: sst exceeds node cap at k={k}")
            if refill <= k:
                result.absorbing_failures.append(
                    f"seed {seed}: sst emptiness not absorbing at k={k}"
                )

    if n <= 4:
        bound_k = 2**n - 2
        finite = verify_k_step_weak(nfa, bound_k, obs)
        infinite = verify_infinite_step_weak(nfa, obs)
        if finite.opaque != infinite.opaque:
            result.weak_bound_failures.append(
                f"seed {seed}: weak verdict at k=2^|X|-2 disagrees with the infinite check"
            )


def run_crosscheck(
    models: int,
    max_states: int,
    ks: tuple[int, ...],
    seed: int,
    report_path: str | None = None,
    fixtures_dir: str | None = None,
    structural: bool = True,
) -> BatchResult:
    """Run the seeded agreement batch; write a JSONL report when asked.

    One record per (seed, property, k) with both verdicts and an agreement
    flag.  Records are emitted in seed order regardless of scheduling.
    """
    if not ks:
        raise ValueError("the K range is empty")
    started = time.monotonic()
    result = BatchResult()
    for index in range(models):
        cfg = model_config(seed, index, max_states)
        nfa = random_nfa(cfg)
        result.models += 1
        obs = build_observer(nfa)
        rows = _agreement_rows(nfa, cfg.seed, ks, obs)
        result.rows.extend(rows)
        for r in rows:
            if not r["agree"] or not r["witness_replays"]:
                record = dict(r)
                record["model"] = model_to_dict(nfa)
                result.disagreements.append(record)
                if fixtures_dir is not None:
                    os.makedirs(fixtures_dir, exist_ok=True)
                    path = os.path.join(
                        fixtures_dir,
                        f"divergence_{r['property']}_seed{cfg.seed}_k{r['k']}.json",
                    )
                    with open(path, "w", encoding="utf-8") as fh:
                        json.dump(record, fh, indent=2, sort_keys=True)
                    result.divergence_fixtures.append(path)
        if structural:
            _structural_checks(nfa, cfg.seed, ks, result, obs)
    result.elapsed = time.monotonic() - started
    if report_path is not None:
        with open(report_path, "w", encoding="utf-8") as fh:
            for r in result.rows:
                fh.write(json.dumps(r, sort_keys=True) + "\n")
    return result
