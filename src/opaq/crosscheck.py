"""Seeded batch cross-validation of the constructions against the oracles.

Each batch model is checked on all five properties; verdicts must agree,
and one weak and one strong walk give every K's verdict (see _at_depth).
The oracle's K-step searches run at the two K per family that decide
agreement, and at every K only when they disagree there (see _oracle_at).
Structural assertions (size caps, absorbing emptiness on trees, the
verifier/observer projection, and the finite/infinite weak consistency
bound) run on every model, the tree checks without building a tree.
Each model walks its verifier once, with edges, and that walk gives the
inf-strong row, the verifier's state count and the projection check; the
projection is stepped by the model's oracle engine, so a walk edge whose
target estimate or secret-avoiding subset differs from the oracle's step
is reported (see _projection_problems).
Any disagreement, or a construction witness that does not replay, is
serialized as a standalone model fixture before the batch is reported as
failed.
"""

from __future__ import annotations

import json
import os
import time
from bisect import bisect_right
from typing import Callable, Iterator

from .core import Nfa, format_pair, format_state_set, model_to_dict, row_table
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
from .projection import sipa_size
from .strong import verify_k_step_strong, walk_verifier
from .weak import (
    Steps,
    Verdict,
    Walk,
    _explore,
    verify_infinite_step_weak,
    verify_k_step_weak,
)


class BatchResult:
    def __init__(self) -> None:
        self.rows: list[dict] = []
        self.disagreements: list[dict] = []
        self.projection_failures: list[str] = []
        self.absorbing_failures: list[str] = []
        self.cap_failures: list[str] = []
        self.weak_bound_failures: list[str] = []
        self.divergence_fixtures: list[str] = []
        self.models = 0
        self.elapsed = 0.0

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


# Batch models have 2..MAX_EVENTS events.
MAX_EVENTS = 4


def model_config(base_seed: int, index: int, max_states: int) -> OracleConfig:
    """Per-model generator parameters; every other model gets silence."""
    seed = base_seed * 1_000_003 + index
    local = (seed * 2654435761) % 2**32
    n_states = 2 + local % (max_states - 1) if max_states > 1 else 1
    n_events = 2 + (local >> 8) % (MAX_EVENTS - 1)
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


def _at_depth(verdict: Verdict, k: int) -> Verdict:
    """The verdict of the same walk capped at depth *k*.

    BFS meets the first empty-x2 node at its least depth d, the length of
    the witness's continuation, and a cap K >= d leaves the discovery order
    up to that node unchanged: the capped walk stops there when d <= K and
    finds no empty node otherwise.
    """
    return verdict if verdict.opaque or len(verdict.witness.continuation) <= k else Verdict(True)


def _oracle_at(verdicts: dict[int, Verdict], search: Callable[[int], OracleVerdict]) -> dict[int, OracleVerdict]:
    """The oracle's verdict at every K of *verdicts*, the construction's.

    ``search(k)`` runs only at ``lo``, the largest K the construction finds
    opaque, and ``hi``, the smallest it does not.  When both agree there,
    the verdict at ``lo`` stands for every K <= lo and the one at ``hi`` for
    every K >= hi.  This is exact because the oracle's K-step verdicts are
    monotone in K (a violation within K is one within K + 1):

    - Weak: a continuation of at most K events is also one of at most K + 1.
    - Strong: let a violation's K-event window open at estimate a, past the
      initial one.  Prefixed with the last event e of a's BFS access, it is
      a violation whose (K+1)-event window opens at a's BFS parent b: since
      ``avoid_reach(b & N, e)`` lies within ``reach(b, e) & N = a & N`` and
      both steps are monotone, the longer window is empty wherever the
      shorter one is, and the secret it continues is still carried.  A
      window at the initial estimate may be shorter than K, so it also
      counts at K + 1.

    So agreement at ``lo`` and ``hi`` means agreement at every K.  The
    other K reuse the probe's OracleVerdict; rows read only its ``opaque``
    and ``exact``, and ``exact`` is true on every oracle search, which has
    one mode, exact.  When either probe disagrees, every
    other K is asked too, so a failing batch's rows are those of a search
    per K.
    """
    lo = max((k for k, v in verdicts.items() if v.opaque), default=None)
    hi = min((k for k, v in verdicts.items() if not v.opaque), default=None)
    probes = {k: search(k) for k in (lo, hi) if k is not None}
    if all(probe.opaque == verdicts[k].opaque for k, probe in probes.items()):
        return {k: probes[lo if v.opaque else hi] for k, v in verdicts.items()}
    return {k: probes[k] if k in probes else search(k) for k in verdicts}


def _agreement_rows(
    nfa: Nfa,
    seed: int,
    ks: tuple[int, ...],
    obs: Observer,
    eng: MaskEngine,
    weak: Verdict,
    infinite_strong: Verdict,
    state_cap: int | None,
) -> list[dict]:
    # *weak* and *infinite_strong* are the model's inf-weak and inf-strong
    # verdicts.  The model's oracle searches and witness replays share the
    # memoized steps and estimate BFS of its one engine *eng*.  The
    # oracle's K-step searches are called through this module's names,
    # which the benchmark's tracer rebinds.
    strong = verify_k_step_strong(nfa, max(ks), obs, max_states=state_cap)
    weak_at = {k: _at_depth(weak, k) for k in (0, *ks)}
    strong_at = {k: _at_depth(strong, k) for k in ks}
    weak_oracle = _oracle_at(weak_at, lambda k: oracle_k_step_weak(nfa, k, eng=eng, max_states=state_cap))
    strong_oracle = _oracle_at(strong_at, lambda k: oracle_k_step_strong(nfa, k, eng=eng, max_states=state_cap))
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

    rows.append(row("cs", None, weak_at[0], weak_oracle[0]))
    for k in ks:
        rows.append(row("k-weak", k, weak_at[k], weak_oracle[k]))
        rows.append(row("k-strong", k, strong_at[k], strong_oracle[k]))
    rows.append(row("inf-weak", None, weak, oracle_infinite_step_weak(nfa, eng=eng)))
    rows.append(row("inf-strong", None, infinite_strong, oracle_infinite_step_strong(nfa, eng=eng)))
    return rows


def _node_counts(obs: Observer, top: int) -> Iterator[list[int]]:
    """Level k for k = 0..top, one at a time: ``[i]`` is the node count of
    either depth-k tree rooted at estimate i (one node per observer path)."""
    counts = [1] * len(obs.masks)
    yield counts
    for _ in range(top):
        counts = [1 + sum(counts[j] for j in row if j >= 0) for row in obs.moves]
        yield counts


def _refill_depth(obs: Observer, steps: Steps, i: int, x2: int, top: int, max_states: int | None = None) -> int:
    """Least depth of a tree edge from an empty x2 to a nonempty one (top + 1: none).

    The tree is rooted at (observer position *i*, *x2*).  A walk of more
    than *max_states* pairs raises ResourceLimitError.

    BFS meets each pair at its least depth and a child depends only on its
    parent pair, so a deduplicating walk's edges give that depth: an edge
    from node n ends one level below n's, whose number is n's position
    among the level boundaries.
    """
    edges: list[tuple[int, int, int]] = []
    walk, _ = _explore(obs, [i], [x2], steps, top, False, edges=edges, max_states=max_states, search="refill walk")
    x2s = walk.x2
    return min((bisect_right(walk.levels, n) for n, _, m in edges if x2s[m] and not x2s[n]), default=top + 1)


def _projection_problems(
    obs: Observer, walk: Walk, edges: list[tuple[int, int, int]], eng: MaskEngine
) -> list[str]:
    """Criterion 4: the verifier walk projects onto the observer, stepped by the oracle.

    Node n of *walk*, with *edges*, is the verifier state
    (``obs.masks[walk.estimate[n]]``, ``walk.x2[n]``).  Its first
    components must map onto the observer as a functional bisimulation,
    matching moves exactly in both directions, which implies language
    equality with no bound.  The walk follows ``obs.moves`` by
    construction, so the check also steps every edge's x1 and x2 with the
    model's oracle engine, ``eng.reach`` and ``eng.avoid_reach``, and checks
    every estimate against the engine's estimate BFS: a wrong move, a wrong
    reach row or a wrong avoid row then shows.  Returns every problem in
    order: an initial mismatch, then per state one outside the observer or
    a definedness, target or x2 mismatch per edge, then every estimate
    without a preimage.
    """
    masks, moves, events = obs.masks, obs.moves, obs.events
    estimate, x2 = walk.estimate, walk.x2
    name = obs.table.state_set

    def pair(n: int) -> str:
        return format_pair(name(masks[estimate[n]]), name(x2[n]))

    problems: list[str] = []
    order, access, _ = eng.reach_bfs()
    if masks[estimate[0]] != order[0]:
        problems.append(f"initial mismatch: verifier {pair(0)} vs observer {format_pair(name(order[0]), ())}")
    width = len(events)
    target = [-1] * (len(x2) * width)
    for n, e, m in edges:
        target[n * width + e] = m
    covered = [False] * len(masks)
    for n, i in enumerate(estimate):
        x1 = masks[i]
        if x1 not in access:
            problems.append(f"verifier state {pair(n)} projects outside the observer")
            continue
        covered[i] = True
        for e, (event, j) in enumerate(zip(events, moves[i])):
            m = target[n * width + e]
            reach = eng.reach(x1, event)
            if (m < 0) != (j < 0) or (j < 0 and reach):
                problems.append(f"transition definedness mismatch at {pair(n)} on {event!r}")
            elif m >= 0:
                if estimate[m] != j or masks[j] != reach:
                    problems.append(f"transition target mismatch at {pair(n)} on {event!r}")
                avoid = eng.avoid_reach(x2[n], event)
                if x2[m] != avoid:
                    problems.append(
                        f"transition x2 mismatch at {pair(n)} on {event!r}: "
                        f"the oracle's secret-avoiding step gives {format_state_set(name(avoid))}"
                    )
    for i, seen in enumerate(covered):
        if not seen:
            problems.append(f"observer state {format_pair(name(masks[i]), ())} has no verifier preimage")
    return problems


def _structural_checks(
    nfa: Nfa,
    seed: int,
    ks: tuple[int, ...],
    result: BatchResult,
    obs: Observer,
    infinite: Verdict,
    eng: MaskEngine,
    verifier: Walk,
    edges: list[tuple[int, int, int]],
    state_cap: int | None = None,
) -> None:
    # *infinite* is the model's inf-weak verdict, which the weak-bound check
    # compares with a separately bounded walk.  *verifier* is the model's
    # verifier walk run to exhaustion and *edges* its edges; *eng* is the
    # model's oracle engine.  Each walk here stops at *state_cap* states.
    sipa_states, sipa_transitions = sipa_size(nfa)
    n = len(nfa.states)
    n_eo = len(nfa.observable_events)

    if len(obs.masks) > 2**n:
        result.cap_failures.append(f"seed {seed}: observer exceeds 2^|X| states")
    if sipa_states > 2 * n:
        result.cap_failures.append(f"seed {seed}: tagged automaton exceeds 2|X| states")
    if sipa_transitions > 4 * n * n * n_eo:
        result.cap_failures.append(f"seed {seed}: tagged automaton exceeds 4|X|^2|Eo| transitions")
    if len(verifier.x2) > 4**n:
        result.cap_failures.append(f"seed {seed}: verifier exceeds 4^|X| states")

    certificate = _projection_problems(obs, verifier, edges, eng)
    if certificate:
        result.projection_failures.append(
            f"seed {seed}: verifier/observer projection failed: {certificate[0]}"
        )

    # Per secret-intersecting root and k: both trees' node count against the
    # cap 1+|Eo|+...+|Eo|^k, and the depth at which an empty x2 refills.  The
    # counts and the cap grow as |Eo|^k, so they step one level at a time and
    # each k of *ks* is checked as the levels pass it.
    top = max(ks)
    table = row_table(nfa)
    refills = [
        (i, _refill_depth(obs, table.avoid_steps, i, obs.masks[i] & table.nonsecret, top, state_cap))
        for i in obs.secret_positions
    ]
    wanted, failed = set(ks), {}
    cap = 1
    for k, counts in enumerate(_node_counts(obs, top)):
        if k in wanted:
            over, leaks = [], []
            for i, refill in refills:
                if counts[i] > cap:
                    over.append(f"seed {seed}: weak tree exceeds node cap at k={k}")
                    over.append(f"seed {seed}: sst exceeds node cap at k={k}")
                if refill <= k:
                    leaks.append(f"seed {seed}: sst emptiness not absorbing at k={k}")
            if over or leaks:
                failed[k] = over, leaks
        cap = 1 + n_eo * cap
    for k in ks:
        over, leaks = failed.get(k, ((), ()))
        result.cap_failures += over
        result.absorbing_failures += leaks

    if verify_k_step_weak(nfa, 2**n - 2, obs, state_cap).opaque != infinite.opaque:
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
    state_cap: int | None = None,
) -> BatchResult:
    """Run the seeded agreement batch; write a JSONL report when asked.

    One record per (seed, property, k) with both verdicts and an agreement
    flag.  Records are emitted in seed order regardless of scheduling.  A
    report that cannot be opened for writing raises OSError before the
    first model runs.  An observer, walk or tree walk of more than
    *state_cap* states, or an oracle K-step search that examines more than
    *state_cap* strings, raises ResourceLimitError (None: unbounded).
    """
    if not ks:
        raise ValueError("the K range is empty")
    if report_path is not None:
        # An unwritable report raises its OSError before the first model,
        # not after the batch.  Opening for append leaves an old report as
        # it is until the batch ends.
        open(report_path, "a", encoding="utf-8").close()
    started = time.monotonic()
    result = BatchResult()
    for index in range(models):
        cfg = model_config(seed, index, max_states)
        nfa = random_nfa(cfg)
        result.models += 1
        obs = build_observer(nfa, max_states=state_cap)
        eng = MaskEngine(nfa)
        weak = verify_infinite_step_weak(nfa, obs, state_cap)
        # One verifier walk with edges serves the inf-strong row, the 4^|X|
        # cap and the projection check.
        edges: list[tuple[int, int, int]] = []
        strong, verifier = walk_verifier(nfa, obs, state_cap, edges=edges)
        rows = _agreement_rows(nfa, cfg.seed, ks, obs, eng, weak, strong, state_cap)
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
        _structural_checks(nfa, cfg.seed, ks, result, obs, weak, eng, verifier, edges, state_cap)
    result.elapsed = time.monotonic() - started
    if report_path is not None:
        # One encoder for every row: json.dumps would build one per call.
        encode = json.JSONEncoder(sort_keys=True).encode
        with open(report_path, "w", encoding="utf-8") as fh:
            for r in result.rows:
                fh.write(encode(r) + "\n")
    return result
