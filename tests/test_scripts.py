"""Smoke tests for the scripts under scripts/: each runs as a subprocess."""

from __future__ import annotations

import json
import os
import subprocess
import sys

from opaq import build_observer, load_model
from opaq.cli import main

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
SCRIPTS = os.path.join(ROOT, "scripts")
G2 = os.path.join(ROOT, "models", "g2.json")


def run_script(name, *args, cwd):
    path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def test_run_crosscheck_writes_its_report(tmp_path):
    proc = run_script("run_crosscheck.py", "20", "7", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    rows = [json.loads(line) for line in (tmp_path / "crosscheck_report.jsonl").read_text().splitlines()]
    # cs, k-weak and k-strong at K 0..3, inf-weak and inf-strong per model.
    assert len(rows) == 20 * 11
    assert all(row["agree"] for row in rows)
    for prop in ("cs", "k-weak", "k-strong", "inf-weak", "inf-strong"):
        assert any(line.startswith(prop + " ") for line in proc.stdout.splitlines())


def test_run_crosscheck_rejects_bad_arguments(tmp_path):
    # A non-integer, a model count below 1 and a third argument each print
    # the usage and exit 2 before any model runs.
    for args in (["x"], ["0"], ["20", "y"], ["20", "7", "1"]):
        proc = run_script("run_crosscheck.py", *args, cwd=tmp_path)
        assert (proc.returncode, proc.stdout) == (2, ""), args
        assert proc.stderr.startswith("usage: python3 scripts/run_crosscheck.py [models] [seed]\n"), args
        assert "Traceback" not in proc.stderr
    assert os.listdir(tmp_path) == []


def test_export_structures_writes_every_structure(tmp_path, capsys):
    out = tmp_path / "out"
    proc = run_script("export_structures.py", G2, str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    # g2 has three secret-intersecting estimates, each the root of one
    # weak tree and one SST.
    names = ["observer.dot", "projected.dot", "sipa.dot", "verifier.dot"]
    names += [f"{kind}_{i}.dot" for i in range(3) for kind in ("weak_tree", "sst")]
    assert sorted(os.listdir(out)) == sorted(names)
    assert proc.stdout.splitlines() == [str(out / name) for name in names]
    # Each file is what `opaq export` writes, trees at K = 2 from the same roots.
    nfa = load_model(G2)
    exports = {f"{name}.dot": [name] for name in ("observer", "projected", "sipa", "verifier")}
    obs = build_observer(nfa)
    for i, root in enumerate(obs.states[j] for j in obs.secret_positions):
        for kind, structure in (("weak_tree", "weak-tree"), ("sst", "sst")):
            exports[f"{kind}_{i}.dot"] = [structure, "--root", json.dumps(list(root)), "--k", "2"]
    for name in names:
        assert main(["export", "--structure", *exports[name], G2]) == 0
        assert (out / name).read_text(encoding="utf-8") == capsys.readouterr().out, name
