"""Tests of the benchmark itself: family sizes, pinned verdicts, output checks,
tracing and a clean checkout after a run.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import families  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from opaq.weak import Verdict  # noqa: E402
from opaq import (  # noqa: E402
    build_observer,
    build_sipa,
    build_verifier,
    validate_model,
    verify_current_state_opacity,
    verify_infinite_step_strong,
    verify_infinite_step_weak,
    verify_k_step_strong,
    verify_k_step_weak,
)

SEEDS = (0, 1)


@pytest.mark.parametrize("seed", SEEDS)
def test_nth_last_sizes(seed):
    nfa = validate_model(families.nth_last(seed=seed))
    obs = build_observer(nfa)
    sipa = build_sipa(nfa)
    assert len(nfa.states) == 14
    assert len(obs.states) == 4096
    assert len(sipa.states) == 14
    assert len(build_verifier(nfa, obs, sipa).states) == 4096


@pytest.mark.parametrize("seed", SEEDS)
def test_wide_chain_sizes(seed):
    nfa = validate_model(families.wide_chain(seed=seed))
    obs = build_observer(nfa)
    sipa = build_sipa(nfa)
    assert len(nfa.states) == 2401
    assert len(obs.states) == 198
    assert len(sipa.states) == 2583
    assert len(build_verifier(nfa, obs, sipa).states) == 198


def test_seeds_permute_declaration_order():
    a, b = families.wide_chain(seed=SEEDS[0]), families.wide_chain(seed=SEEDS[1])
    assert a["states"] != b["states"] and sorted(a["states"]) == sorted(b["states"])
    assert a["transitions"] != b["transitions"]
    assert sorted(a["transitions"]) == sorted(b["transitions"])


@pytest.mark.parametrize("family, build, k", [
    ("nth-last", families.nth_last, families.NTH_LAST_K),
    ("wide-chain", families.wide_chain, families.WIDE_K),
])
@pytest.mark.parametrize("seed", SEEDS)
def test_pinned_verdicts_hold_for_every_permutation(family, build, k, seed):
    nfa = validate_model(build(seed=seed))
    obs = build_observer(nfa)
    sipa = build_sipa(nfa)
    got = {
        "cs": verify_current_state_opacity(nfa, obs).opaque,
        "k-weak": verify_k_step_weak(nfa, k, obs).opaque,
        "k-strong": verify_k_step_strong(nfa, k, obs, sipa).opaque,
        "inf-weak": verify_infinite_step_weak(nfa, obs).opaque,
        "inf-strong": verify_infinite_step_strong(nfa, obs, sipa).opaque,
    }
    assert got == families.EXPECTED[family]


def _small(name: str, crosscheck_models: int = 20, sample_models: int = 0) -> workloads.Workload:
    w = workloads.WORKLOADS[name]
    return workloads.Workload(name, w.k, crosscheck_models, sample_models, w.layer_roots)


def test_pass_checks_every_verdict_and_witness(tmp_path):
    _, ctx = workloads.set_up(_small("wide-chain"), 3, str(tmp_path))
    rec = workloads.Record()
    workloads.run_pass(ctx, 0, rec)
    assert rec.verify_calls == 5
    assert rec.attempted == 5 + 20 * workloads.CROSSCHECK_ROWS_PER_MODEL
    assert rec.unexpected == [] and rec.correct
    assert rec.oracle_checks == 20 * workloads.CROSSCHECK_ROWS_PER_MODEL
    assert rec.sizes["inf-strong"][ctx.models[0].path]["sipa_states"] == 2583


def test_wrong_verdict_is_an_unexpected_failure(tmp_path):
    _, ctx = workloads.set_up(_small("wide-chain"), 0, str(tmp_path))
    model = ctx.models[0]
    model.expected = dict(model.expected, cs=False)
    rec = workloads.Record()
    workloads._verify(ctx, model, "cs", rec, None)
    assert rec.failed == 1 and len(rec.unexpected) == 1


def test_known_k_strong_divergence_is_counted_but_expected(tmp_path):
    # Every run over "a e" crosses the secret 2; the tree check still says opaque.
    raw = {
        "states": ["0", "1", "2", "3"],
        "events": [{"name": "a", "observable": True}, {"name": "e", "observable": True},
                   {"name": "u", "observable": False}],
        "initial": ["0"],
        "secret": ["2"],
        "transitions": [["0", "a", "1"], ["1", "e", "2"], ["2", "u", "3"]],
    }
    _, ctx = workloads.set_up(_small("wide-chain"), 0, str(tmp_path))
    path = tmp_path / "hidden.json"
    path.write_text(json.dumps(raw))
    nfa = validate_model(raw)
    model = workloads.Model(str(path), nfa, workloads._oracle_verdicts(ctx.oracle, nfa, 1), False)
    ctx = workloads.Context(workloads.Workload("crosscheck", 1, 20, 1),
                            0, str(tmp_path), ctx.cli, ctx.oracle, [model])
    rec = workloads.Record()
    workloads._verify(ctx, model, "k-strong", rec, None)
    # Counted apart from `failed`, which holds only the other failures.
    assert rec.known == 1 and rec.failed == 0 and rec.unexpected == []
    # One divergence in one check is above the ceiling.
    assert not rec.correct
    rec.oracle_checks = int(1 / workloads.KNOWN_DIVERGENCE_CEILING)
    assert rec.correct


def test_k_strong_that_always_says_opaque_is_incorrect(tmp_path, monkeypatch):
    _, ctx = workloads.set_up(_small("wide-chain"), 0, str(tmp_path))
    always_opaque = lambda *args, **kwargs: Verdict(opaque=True)  # noqa: E731
    for module in ("opaq.cli", "opaq.crosscheck"):
        monkeypatch.setattr(sys.modules[module], "verify_k_step_strong", always_opaque)
    rec = workloads.Record()
    workloads._verify(ctx, ctx.models[0], "k-strong", rec, None)
    assert rec.known == 0 and len(rec.unexpected) == 1
    # The batch rows alone also break the ceiling.
    rec = workloads.Record()
    workloads._crosscheck(ctx, 0, rec, None)
    assert rec.unexpected == []
    assert rec.known > workloads.KNOWN_DIVERGENCE_CEILING * rec.oracle_checks
    assert not rec.correct


def test_timings_are_scaled_by_the_host_slowdown():
    rec = workloads.Record()
    ref = workloads.CALIBRATION_REF_S
    slowdown = rec.slowdown(1.5 * ref, 2.5 * ref)
    assert slowdown == rec.slowdowns[0] == 2.0
    rec.sample("verify_cs_s", 0.4, slowdown)
    rec.sample("crosscheck_checks_per_s", 2.0, slowdown, count=1000)
    assert rec.samples == {"verify_cs_s": [0.2], "crosscheck_checks_per_s": [1000.0]}
    assert rec.wall == {"verify_cs_s": [0.4], "crosscheck_checks_per_s": [500.0]}


def test_calibration_loop_does_not_leave_the_collector_off():
    assert gc.isenabled()
    assert workloads.calibrate() > 0
    assert gc.isenabled()


def test_traced_pass_reports_every_layer(tmp_path):
    _, ctx = workloads.set_up(_small("crosscheck", 10, 3), 5, str(tmp_path))
    _, layers = workloads.measure(ctx, workloads.Record(), 0, trace=True)
    assert list(layers) == [name for name, _ in tracing.LAYER_METRICS]
    for name, unit in tracing.LAYER_METRICS:
        if unit == "s":
            assert layers[name] > 0, name
    assert layers["crosscheck.observer_builds_per_model"] == 2.0
    assert layers["observer.builds_per_verdict"] == 1.0


@pytest.mark.parametrize("name", ["wide-chain", "crosscheck"])
def test_layer_counts_do_not_depend_on_the_number_of_passes(tmp_path, name):
    _, ctx = workloads.set_up(_small(name, 10, 3), 7, str(tmp_path))
    tracer = tracing.Tracer()
    rec = workloads.Record()
    counts = []
    for index in (0, 1):  # the second pass runs another crosscheck batch
        with tracing.installed(tracer):
            workloads.run_pass(ctx, index, rec, tracer)
        layers = tracing.layer_metrics(
            tracer.spans, ctx.workload.layer_roots, rec.verify_calls, rec.crosscheck_models, 1.0
        )
        counts.append({
            m: layers[m] for m, unit in tracing.LAYER_METRICS if unit == "count" or "_builds_per_" in m
        })
    assert counts[0] == counts[1]


def test_family_layers_leave_out_the_batch(tmp_path):
    _, ctx = workloads.set_up(_small("wide-chain", 10), 0, str(tmp_path))
    tracer = tracing.Tracer()
    rec = workloads.Record()
    with tracing.installed(tracer):
        workloads.run_pass(ctx, 0, rec, tracer)
    layers = tracing.layer_metrics(
        tracer.spans, ctx.workload.layer_roots, rec.verify_calls, rec.crosscheck_models, 1.0
    )
    # One SIPA per k-strong and inf-strong call, and five observers, all of
    # the wide-chain model; none from the batch's random models.
    assert layers["projection.sipa_states"] == 2 * 2583
    assert layers["observer.estimates"] == 5 * 198
    assert layers["oracle.k_strong_s"] > 0
    assert layers["crosscheck.sipa_builds_per_model"] == 2.0


def test_self_time_excludes_children(monkeypatch):
    clock = iter([0.0, 1.0, 3.0, 4.0, 4.5, 10.0])
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: next(clock))
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
    a, b, outer = tracer.spans
    assert (a.self_time, b.self_time, outer.self_time) == (2.0, 0.5, 7.5)
    assert a.parent is outer and a.call == b.call == outer.call


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, unit, _ in workloads.END_TO_END
    ]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)


def _tree(root: str) -> dict[str, float]:
    skip = {"__pycache__", ".pytest_cache", ".hypothesis", ".git"}
    out = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in skip]
        for f in filenames:
            path = os.path.join(dirpath, f)
            out[os.path.relpath(path, root)] = os.stat(path).st_mtime_ns
    return out


def test_run_prints_result_and_leaves_checkout_clean():
    before = _tree(ROOT)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crosscheck",
         "--seed", "2", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] > 0
    assert set(result["metrics"]) == {name for name, _, _ in workloads.END_TO_END}
    assert _tree(ROOT) == before


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    if os.path.exists(os.path.join(ROOT, "BENCHMARK.json")):
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "nth-last",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
