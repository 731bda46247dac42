"""Workload set-up, measurement passes and output checks.

Every call goes through ``opaq.cli.main`` in-process with stdout captured, the
way a user runs ``opaq verify --format json`` and ``opaq crosscheck``.  A pass
is one ``opaq verify`` call per property and model of the workload, then one
``opaq crosscheck`` batch.  Passes repeat while another fits in the measuring
time.  Every timing is scaled to a fixed host speed (see :func:`calibrate`)
and reported as the median over the run.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

import families
import tracing

PROPERTIES = families.PROPERTIES
K_PROPERTIES = ("k-weak", "k-strong")
VERIFY_METRIC = {p: "verify_" + p.replace("-", "_") + "_s" for p in PROPERTIES}

CROSSCHECK_MAX_STATES = 8
CROSSCHECK_KS = "0..3"
# cs, then k-weak and k-strong for each K in 0..3, then inf-weak and inf-strong.
CROSSCHECK_ROWS_PER_MODEL = 1 + 2 * 4 + 2
CROSSCHECK_SUMMARY = re.compile(r"models: (\d+)  checks: (\d+)  disagreements: (\d+)")
# Set-ups before the first pass; one more follows every pass (or traced pair),
# so that set-up time is sampled across the whole run.
INITIAL_SETUPS = 3
SAMPLE_K = 2
# Known k-strong divergences allowed, as a share of the checks whose expected
# verdict comes from the oracle (crosscheck rows, verify calls on random
# models).  Over 255 batch seeds they were 0.07% of checks on average and
# 0.36% at most; a k-strong check that always says opaque gives 14% or more.
KNOWN_DIVERGENCE_CEILING = 0.01
# Seconds the calibration loop takes on the reference host when nothing
# else slows it: about the fastest of 1,900 timings on a shared 2-vCPU
# Intel Xeon VM at 2.1 GHz, CPython 3.11.7, whose median was 0.0036 s.
# Only the scale of the metrics depends on it.
CALIBRATION_REF_S = 0.002

# End-to-end metrics in report order: (name, unit, higher is better).
END_TO_END = (
    ("setup_s", "s", False),
    *((VERIFY_METRIC[p], "s", False) for p in PROPERTIES),
    ("crosscheck_checks_per_s", "1/s", True),
    ("peak_rss_mb", "MB", False),
)


@dataclass(frozen=True)
class Workload:
    name: str
    k: int  # K for the k-weak and k-strong verify calls
    crosscheck_models: int  # models per `opaq crosscheck` batch
    sample_models: int  # crosscheck workload only: generated models also run through `opaq verify`
    # Root spans whose layers the traced run reports; the batch's oracle.* and
    # crosscheck.* spans are reported on every workload (tracing.layer_metrics).
    layer_roots: tuple[str, ...] = (tracing.VERIFY_ROOT,)


# Why each workload exists: perfbench/README.md and BENCHMARK.json.
WORKLOADS = {
    "nth-last": Workload("nth-last", families.NTH_LAST_K, 200, 0),
    "wide-chain": Workload("wide-chain", families.WIDE_K, 200, 0),
    "crosscheck": Workload(
        "crosscheck", SAMPLE_K, 500, 100, (tracing.VERIFY_ROOT, tracing.CROSSCHECK_ROOT)
    ),
}


@dataclass
class Model:
    path: str
    nfa: object
    expected: dict[str, bool]
    pinned: bool  # expected verdicts pinned in families.py, not taken from the oracle


@dataclass
class Context:
    workload: Workload
    seed: int
    workdir: str
    cli: object
    oracle: object
    models: list[Model]


@dataclass
class Record:
    # Timings scaled to the reference host speed (see calibrate), and as measured.
    samples: dict[str, list[float]] = field(default_factory=dict)
    wall: dict[str, list[float]] = field(default_factory=dict)
    # Host slowdown around each measured step: calibration time / CALIBRATION_REF_S.
    slowdowns: list[float] = field(default_factory=list)
    attempted: int = 0
    # Operations that failed, other than by the documented k-strong
    # hidden-crossing divergence; what went wrong, with every other mismatch.
    failed: int = 0
    unexpected: list[str] = field(default_factory=list)
    # That divergence, and the checks in which it may occur: those whose
    # expected verdict comes from the oracle.
    known: int = 0
    oracle_checks: int = 0
    # Property -> model path -> `sizes` of its latest `opaq verify --format json` output.
    sizes: dict[str, dict[str, dict[str, int]]] = field(default_factory=dict)
    crosscheck_models: int = 0
    verify_calls: int = 0

    def slowdown(self, before: float, after: float) -> float:
        """Record the host slowdown from the calibrations around a step."""
        slowdown = (before + after) / 2 / CALIBRATION_REF_S
        self.slowdowns.append(slowdown)
        return slowdown

    def sample(
        self, metric: str, seconds: float, slowdown: float, count: int | None = None
    ) -> None:
        """Record a time, or with *count* the rate count / seconds."""
        self.samples.setdefault(metric, []).append(
            seconds / slowdown if count is None else count * slowdown / seconds
        )
        self.wall.setdefault(metric, []).append(seconds if count is None else count / seconds)

    def fail(self, problem: str, known: bool) -> None:
        if known:
            self.known += 1
        else:
            self.failed += 1
            self.unexpected.append(problem)

    @property
    def correct(self) -> bool:
        return not self.unexpected and self.known <= KNOWN_DIVERGENCE_CEILING * self.oracle_checks


def _calibration_loop() -> int:
    table: dict[frozenset, int] = {}
    for i in range(6000):
        key = frozenset((i % 97, i % 89, i % 83))
        table[key] = table.get(key, 0) + 1
    return len(table)


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes now: the mean of five, without GC.

    Other tenants of a shared host slow every call, by up to 2x in phases
    from seconds to minutes long; a run cannot outlast them.  The loop slows
    with them, so each timing is divided by the host slowdown measured right
    before and after it: the loop's time over ``CALIBRATION_REF_S``.  A
    timing then reads as the seconds the step takes at the reference speed.
    The loop works on frozensets and a dict, as the program does, and runs
    with the collector off, so that the program's GC settings cannot move it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(5):
            _calibration_loop()
        return (time.perf_counter() - start) / 5
    finally:
        if enabled:
            gc.enable()


def _import_opaq():
    for name in [n for n in sys.modules if n == "opaq" or n.startswith("opaq.")]:
        del sys.modules[name]
    opaq = importlib.import_module("opaq")
    importlib.import_module("opaq.cli")
    importlib.import_module("opaq.crosscheck")
    return opaq


def _raw_models(opaq, workload: Workload, seed: int) -> list[dict]:
    if workload.name == "nth-last":
        return [families.nth_last(seed=seed)]
    if workload.name == "wide-chain":
        return [families.wide_chain(seed=seed)]
    return [
        opaq.model_to_dict(opaq.random_nfa(opaq.crosscheck.model_config(seed, i, CROSSCHECK_MAX_STATES)))
        for i in range(workload.sample_models)
    ]


def _oracle_verdicts(oracle, nfa, k: int) -> dict[str, bool]:
    return {
        "cs": oracle.oracle_current_state(nfa).opaque,
        "k-weak": oracle.oracle_k_step_weak(nfa, k).opaque,
        "k-strong": oracle.oracle_k_step_strong(nfa, k).opaque,
        "inf-weak": oracle.oracle_infinite_step_weak(nfa).opaque,
        "inf-strong": oracle.oracle_infinite_step_strong(nfa).opaque,
    }


def set_up(
    workload: Workload, seed: int, workdir: str, expected: list[dict] | None = None
) -> tuple[float, Context]:
    """Import opaq, then build, validate and write the models; returns (seconds, context).

    The expected verdicts are pinned (families) or taken from the oracle
    (random models) unless *expected* carries them over from an earlier set-up.
    """
    start = time.perf_counter()
    opaq = _import_opaq()
    nfas = [opaq.validate_model(raw) for raw in _raw_models(opaq, workload, seed)]
    paths = []
    for i, nfa in enumerate(nfas):
        path = os.path.join(workdir, f"model{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(opaq.model_to_dict(nfa), fh)
        paths.append(path)
    seconds = time.perf_counter() - start
    oracle = sys.modules["opaq.oracle"]
    pinned = workload.name in families.EXPECTED
    if expected is None:
        expected = [
            families.EXPECTED[workload.name]
            if pinned
            else _oracle_verdicts(oracle, nfa, workload.k)
            for nfa in nfas
        ]
    models = [Model(path, nfa, exp, pinned) for path, nfa, exp in zip(paths, nfas, expected)]
    return seconds, Context(workload, seed, workdir, sys.modules["opaq.cli"], oracle, models)


def set_up_again(ctx: Context, rec: Record) -> Context:
    before = calibrate()
    seconds, ctx = set_up(ctx.workload, ctx.seed, ctx.workdir, [m.expected for m in ctx.models])
    rec.sample("setup_s", seconds, rec.slowdown(before, calibrate()))
    return ctx


def _call(ctx: Context, argv: list[str], root: str, tracer) -> tuple[float, int | None, str, str | None]:
    """Run one CLI command; returns (seconds, exit code, stdout, error)."""
    out = io.StringIO()
    span = tracer.span(root) if tracer is not None else contextlib.nullcontext()
    error = None
    rc = None
    start = time.perf_counter()
    try:
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = ctx.cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        error = f"exit {exc.code}"
    except Exception:  # the failure is counted; measuring goes on
        error = traceback.format_exc()
    return time.perf_counter() - start, rc, out.getvalue(), error


def _witness_replays(oracle, nfa, prop: str, k: int, witness) -> bool:
    try:
        prefix, continuation = tuple(witness["prefix"]), tuple(witness["continuation"])
    except (KeyError, TypeError):  # no witness, or not the documented shape
        return False
    w = prefix + continuation
    if prop == "cs":
        return oracle.replay_weak_violation(nfa, w, len(prefix), 0)
    if prop == "k-weak":
        return oracle.replay_weak_violation(nfa, w, len(prefix), k)
    if prop == "inf-weak":
        return oracle.replay_weak_violation(nfa, w, len(prefix), None)
    if prop == "k-strong":
        return oracle.replay_strong_violation(nfa, w, k)
    return oracle.replay_infinite_strong_violation(nfa, w)


def _verify(ctx: Context, model: Model, prop: str, rec: Record, tracer) -> float:
    k = ctx.workload.k
    argv = ["verify", "--format", "json", "--property", prop]
    if prop in K_PROPERTIES:
        argv += ["--k", str(k)]
    seconds, rc, out, error = _call(ctx, argv + [model.path], tracing.VERIFY_ROOT, tracer)
    rec.attempted += 1
    rec.verify_calls += 1
    if not model.pinned:
        rec.oracle_checks += 1
    where = f"verify {prop} on {os.path.basename(model.path)}"
    if error is not None:
        rec.fail(f"{where}: {error}", known=False)
        return seconds
    try:
        payload = json.loads(out)
        opaque = payload["opaque"]
        sizes = payload["sizes"]
    except (ValueError, KeyError, TypeError) as exc:
        rec.fail(f"{where}: unreadable output ({exc})", known=False)
        return seconds
    rec.sizes.setdefault(prop, {})[model.path] = sizes
    expected = model.expected[prop]
    if rc not in (0, 1) or rc != (0 if opaque else 1):
        rec.fail(f"{where}: exit code {rc} for opaque={opaque}", known=False)
    elif opaque != expected:
        # The tree-based k-strong check can call a random model opaque that
        # is not (README, "Known divergence"); that failure is counted, and
        # allowed up to the ceiling.  A pinned verdict allows no divergence.
        known = not model.pinned and prop == "k-strong" and opaque and not expected
        rec.fail(f"{where}: verdict opaque={opaque}, expected {expected}", known)
    elif not opaque and not _witness_replays(ctx.oracle, model.nfa, prop, k, payload["witness"]):
        rec.fail(f"{where}: witness does not replay", known=False)
    return seconds


def _crosscheck(ctx: Context, batch_seed: int, rec: Record, tracer) -> tuple[float, int]:
    """Run one batch and check its report; returns (seconds, report rows)."""
    n = ctx.workload.crosscheck_models
    report = os.path.join(ctx.workdir, "crosscheck_report.jsonl")
    fixtures = os.path.join(ctx.workdir, "divergences")
    argv = [
        "crosscheck", "--models", str(n), "--max-states", str(CROSSCHECK_MAX_STATES),
        "--k", CROSSCHECK_KS, "--seed", str(batch_seed),
        "--report", report, "--fixtures-dir", fixtures,
    ]
    seconds, rc, out, error = _call(ctx, argv, tracing.CROSSCHECK_ROOT, tracer)
    rec.crosscheck_models += n
    where = f"crosscheck seed {batch_seed}"
    rows: list[dict] = []
    try:
        with open(report, encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh]
        bad = [r for r in rows if not r["agree"] or not r["witness_replays"]]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        error = error or f"unreadable report ({exc})"
    finally:
        if os.path.exists(report):
            os.remove(report)
        shutil.rmtree(fixtures, ignore_errors=True)
    structural = [line for line in out.splitlines() if line.startswith("structural: ")]
    rec.attempted += (len(rows) or 1) + len(structural)
    rec.oracle_checks += len(rows)
    if error is not None:
        rec.fail(f"{where}: {error}", known=False)
        return seconds, len(rows)
    summary = CROSSCHECK_SUMMARY.match(out)
    if len(rows) != n * CROSSCHECK_ROWS_PER_MODEL:
        rec.unexpected.append(f"{where}: report has {len(rows)} rows for {n} models")
    if summary is None or tuple(map(int, summary.groups())) != (n, len(rows), len(bad)):
        rec.unexpected.append(f"{where}: summary line disagrees with the report")
    if rc != (1 if bad or structural else 0):
        rec.unexpected.append(f"{where}: exit code {rc}")
    for r in bad:
        known = r["property"] == "k-strong" and r["verify_opaque"] and not r["oracle_opaque"]
        rec.fail(f"{where}: {r['property']} k={r['k']} model seed {r['seed']} disagrees", known)
    for line in structural:
        rec.fail(f"{where}: {line}", known=False)
    return seconds, len(rows)


def run_pass(ctx: Context, index: int, rec: Record, tracer=None) -> float:
    """One verify call per property and model, then one crosscheck batch.

    Each pass gets a batch of its own, so that a run's throughput averages
    over many batches: the cost of one 200-model batch varies by about 25%
    from seed to seed.

    The host speed is calibrated before and after the calls of each property
    and around the batch.  Returns the seconds spent inside the program.
    """
    busy = 0.0
    for prop in PROPERTIES:
        before = calibrate()
        times = [_verify(ctx, model, prop, rec, tracer) for model in ctx.models]
        slowdown = rec.slowdown(before, calibrate())
        for seconds in times:
            rec.sample(VERIFY_METRIC[prop], seconds, slowdown)
        busy += sum(times)
    before = calibrate()
    seconds, rows = _crosscheck(ctx, ctx.seed * 1000 + index, rec, tracer)
    rec.sample("crosscheck_checks_per_s", seconds, rec.slowdown(before, calibrate()), rows)
    return busy + seconds


def tail(samples: list[float], higher_is_better: bool) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, as (percent, value)."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    if higher_is_better:
        return 100.0 * 10 / n, ordered[10]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def _no_time_for_another(started: float, deadline: float) -> bool:
    """True when a repeat of the step that began at *started* would end past *deadline*."""
    now = time.perf_counter()
    return now + (now - started) > deadline


def measure(ctx: Context, rec: Record, seconds: float, trace: bool) -> tuple[Context, dict | None]:
    """Run passes while another fits in *seconds* (at least one), setting up
    again after each; with *trace*, run them in plain/traced pairs.

    Both passes of a pair get the same inputs, and the pairs alternate which
    side runs first, so the ratio of their program times is the tracing
    overhead.  Returns the latest context and, with *trace*, the layer metrics,
    whose times are scaled by the run's median host slowdown.
    """
    deadline = time.perf_counter() + seconds
    if not trace:
        index = 0
        while True:
            started = time.perf_counter()
            run_pass(ctx, index, rec)
            ctx = set_up_again(ctx, rec)
            index += 1
            if _no_time_for_another(started, deadline):
                return ctx, None
    tracer = tracing.Tracer()
    plain = traced = 0.0
    pairs = 0
    traced_verify = traced_models = 0
    while True:
        started = time.perf_counter()
        for traced_side in ((False, True) if pairs % 2 == 0 else (True, False)):
            if not traced_side:
                plain += run_pass(ctx, pairs, rec)
                continue
            verify_before, models_before = rec.verify_calls, rec.crosscheck_models
            with tracing.installed(tracer):
                traced += run_pass(ctx, pairs, rec, tracer)
            traced_verify += rec.verify_calls - verify_before
            traced_models += rec.crosscheck_models - models_before
        ctx = set_up_again(ctx, rec)
        pairs += 1
        if _no_time_for_another(started, deadline):
            break
    layers = tracing.layer_metrics(
        tracer.spans, ctx.workload.layer_roots, traced_verify, traced_models, traced / plain
    )
    slowdown = statistics.median(rec.slowdowns)
    for name, unit in tracing.LAYER_METRICS:
        if unit == "s":
            layers[name] /= slowdown
    return ctx, layers


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(rec: Record) -> dict[str, float]:
    values = {name: statistics.median(rec.samples[name]) for name in rec.samples}
    values["peak_rss_mb"] = peak_rss_mb()
    return values


def report(ctx: Context, rec: Record, layers: dict | None) -> dict:
    """Print the human-readable report; return the final result object."""
    w = ctx.workload
    print(f"workload {w.name}  seed {ctx.seed}  K {w.k}  models {len(ctx.models)}  "
          f"crosscheck batch {w.crosscheck_models}")
    values = end_to_end(rec)
    print(f"  {'metric':<26}{'median':>12} {'unit':<4}  {'tail':<22} {'samples':<8}"
          f" {'wall median':>12}")
    for name, unit, higher_is_better in END_TO_END:
        line = f"  {name:<26}{values[name]:>12.6g} {unit:<4}"
        if name in rec.samples:
            t = tail(rec.samples[name], higher_is_better)
            line += (f"  {'p%.1f %.6g' % t if t else 'p- (under 11)':<22}"
                     f" n={len(rec.samples[name]):<6} {statistics.median(rec.wall[name]):>12.6g}")
        print(line)
    low, mid, high = statistics.quantiles(rec.slowdowns, n=4)
    print(f"  host slowdown: median {mid:.3g}, quartiles {low:.3g} to {high:.3g}, "
          f"over {len(rec.slowdowns)} calibrations (timings above are divided by it)")
    ratio = (rec.failed + rec.known) / rec.attempted if rec.attempted else 0.0
    print(f"  {'failed_ratio':<26}{ratio:>12.6g}       {rec.failed + rec.known}/{rec.attempted}: "
          f"{rec.failed} failed, {rec.known} known k-strong divergences")
    print(f"  known k-strong divergences {rec.known} in {rec.oracle_checks} oracle-checked "
          f"(ceiling {KNOWN_DIVERGENCE_CEILING:.0%})")
    for prop in PROPERTIES:
        total: dict[str, int] = {}
        for sizes in rec.sizes.get(prop, {}).values():
            for key, value in sizes.items():
                total[key] = total.get(key, 0) + value
        print(f"  sizes {prop:<10} {json.dumps(total, sort_keys=True)}")
    for problem in rec.unexpected[:20]:
        print(f"  UNEXPECTED {problem.splitlines()[-1]}")
    if layers is not None:
        for name, unit in tracing.LAYER_METRICS:
            print(f"  {name:<38}{layers[name]:>14.6g} {unit}")
    metrics = (
        {name: {"value": layers[name], "unit": unit} for name, unit in tracing.LAYER_METRICS}
        if layers is not None
        else {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
    )
    return {
        "correct": rec.correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }


def run(name: str, seed: int, seconds: float, trace: bool, root: str) -> dict:
    """Set up and measure one workload inside a scratch directory under *root*."""
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        before = calibrate()
        first, ctx = set_up(WORKLOADS[name], seed, workdir)
        rec = Record()
        rec.sample("setup_s", first, rec.slowdown(before, calibrate()))
        for _ in range(INITIAL_SETUPS - 1):
            ctx = set_up_again(ctx, rec)
        ctx, layers = measure(ctx, rec, seconds, trace)
        return report(ctx, rec, layers)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
