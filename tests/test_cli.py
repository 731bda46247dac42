from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import opaq
import opaq.cli
import opaq.projection
import opaq.strong
import opaq.weak
from opaq.cli import main
from opaq.core import TABLE_STEP_STATES

from conftest import g2_dict, hidden_crossing_dict

G2 = os.path.join(os.path.dirname(__file__), "..", "models", "g2.json")
G8FRAG = os.path.join(os.path.dirname(__file__), "..", "models", "g8frag.json")
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
SRC = os.path.join(os.path.dirname(__file__), "..", "src")
PROPERTIES = ("cs", "k-weak", "k-strong", "inf-weak", "inf-strong")


@pytest.fixture(autouse=True)
def plain_output(monkeypatch):
    monkeypatch.setenv("OPAQ_COLOR", "never")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_k_strong_violation(capsys):
    code, out, _ = run(capsys, "verify", "--property", "k-strong", "--k", "2", G2)
    assert code == 1
    assert "not opaque" in out
    assert "witness prefix: a" in out
    assert "witness continuation: b c" in out
    assert "observer_states: 4" in out


def test_verify_inf_weak_opaque(capsys):
    code, out, _ = run(capsys, "verify", "--property", "inf-weak", G2)
    assert code == 0
    assert out.startswith("opaque")


def test_verify_missing_k_is_an_input_error(capsys):
    code, _, err = run(capsys, "verify", "--property", "k-weak", G2)
    assert code == 2
    assert "--k is required" in err


def test_verify_warns_when_k_is_ignored(capsys):
    code, _, err = run(capsys, "verify", "--property", "cs", "--k", "3", G2)
    assert code == 0
    assert "ignored" in err


def test_verify_json_output_round_trips(capsys):
    code, out, _ = run(capsys, "verify", "--property", "inf-strong", "--format", "json", G2)
    assert code == 1
    payload = json.loads(out)
    assert payload["opaque"] is False
    assert payload["witness"]["prefix"] + payload["witness"]["continuation"] == ["a", "b", "c"]
    assert payload["sizes"]["verifier_states"] == 4


def test_verify_malformed_model(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "verify", "--property", "cs", str(bad))
    assert code == 2
    assert "malformed JSON" in err


def test_verify_unknown_field_model(tmp_path, capsys):
    raw = g2_dict()
    raw["bogus"] = True
    path = tmp_path / "model.json"
    path.write_text(json.dumps(raw))
    code, _, err = run(capsys, "verify", "--property", "cs", str(path))
    assert code == 2
    assert "unknown model fields" in err


def test_verify_state_cap_triggers_resource_exit(capsys):
    code, _, err = run(
        capsys, "verify", "--property", "cs", "--state-cap", "1", G2
    )
    assert code == 3
    assert "exceeded" in err


@pytest.mark.parametrize("cap", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ("verify", "--property", "cs"),
    ("verify", "--property", "k-strong", "--k", "2"),
    ("export", "--structure", "observer"),
    ("export", "--structure", "sipa"),
])
def test_a_state_cap_below_1_is_an_input_error(capsys, argv, cap):
    assert run(capsys, *argv, "--state-cap", cap, G2) == (2, "", "error: --state-cap must be positive\n")


@pytest.mark.parametrize("prop, search", [
    ("k-weak", "k-step weak search"),
    ("k-strong", "k-step strong search"),
    ("inf-weak", "infinite-step weak search"),
])
def test_state_cap_bounds_the_pair_searches(capsys, prop, search):
    # g2's observer has 4 estimates, so only the pair walk exceeds a cap of 4.
    assert run(capsys, "verify", "--property", "cs", "--state-cap", "4", G2)[0] == 0
    code, _, err = run(capsys, "verify", "--property", prop, "--k", "2", "--state-cap", "4", G2)
    assert code == 3
    assert f"error: {search} exceeded 4 states" in err


def test_state_cap_counts_live_weak_pairs_only(capsys):
    # nth_last6's observer has 64 estimates and its weak walks 32 live pairs
    # (96 with the dead ones), so a cap of 64 bounds nothing here.
    path = os.path.join(FIXTURES, "nth_last6.json")
    assert run(capsys, "verify", "--property", "inf-weak", "--state-cap", "64", path)[0] == 0
    assert run(capsys, "verify", "--property", "k-weak", "--k", "2", "--state-cap", "64", path)[0] == 0


def test_state_cap_bounds_the_verifier_walk(tmp_path, capsys):
    # One estimate {0,1}, looping on a; the verifier pairs it with {0}, then {}.
    path = tmp_path / "loop.json"
    path.write_text(json.dumps({
        "states": ["0", "1"],
        "events": [{"name": "a", "observable": True}],
        "initial": ["0", "1"],
        "secret": ["1"],
        "transitions": [["1", "a", "0"], ["1", "a", "1"]],
    }), encoding="utf-8")
    assert run(capsys, "verify", "--property", "inf-strong", "--state-cap", "2", str(path))[0] == 1
    code, _, err = run(capsys, "verify", "--property", "inf-strong", "--state-cap", "1", str(path))
    assert code == 3
    assert "error: verifier exceeded 1 states" in err


def ten_loops(initial):
    """Two states with a self-loop on each of ten observable events; secret 0."""
    return {
        "states": ["0", "1"],
        "events": [{"name": f"e{i}", "observable": True} for i in range(10)],
        "initial": initial,
        "secret": ["0"],
        "transitions": [[s, f"e{i}", s] for s in "01" for i in range(10)],
    }


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("prop", ["k-weak", "k-strong"])
@pytest.mark.parametrize("initial, opaque", [(["0", "1"], True), (["0"], False)], ids=["opaque", "not-opaque"])
def test_a_tree_count_past_the_state_cap_reads_more_than_the_cap(tmp_path, capsys, fmt, prop, initial, opaque):
    # At K = 4400 the trees would hold 1 + 10 + ... + 10^4400 nodes, past
    # Python's 4,300-digit limit for int-to-string conversion.  The count
    # stops past the state cap, so the exit code follows the verdict.
    path = tmp_path / "loops.json"
    path.write_text(json.dumps(ten_loops(initial)))
    code, out, err = run(capsys, "verify", "--property", prop, "--k", "4400", "--format", fmt, str(path))
    assert (code, err) == (0 if opaque else 1, "")
    if fmt == "json":
        payload = json.loads(out)
        assert payload["opaque"] is opaque
        assert payload["sizes"]["tree_nodes"] == ">1048576"
    else:
        lines = out.splitlines()
        assert lines[0] == ("opaque" if opaque else "not opaque")
        assert lines[-1] == "tree_nodes: >1048576"


@pytest.mark.parametrize("model", ["g2", "nth_last6"])
@pytest.mark.parametrize("prop", PROPERTIES)
def test_verify_builds_nothing_it_only_counts(monkeypatch, capsys, model, prop):
    def refuse(*args, **kwargs):
        raise AssertionError("opaq verify built a structure only to count it")

    for module in (opaq.cli, opaq.projection):
        monkeypatch.setattr(module, "build_sipa", refuse)
    for module in (opaq.cli, opaq.strong):
        monkeypatch.setattr(module, "build_verifier", refuse)
    observers = []
    build = opaq.cli.build_observer

    def recorded(*args, **kwargs):
        observers.append(build(*args, **kwargs))
        return observers[-1]

    monkeypatch.setattr(opaq.cli, "build_observer", recorded)
    path = G2 if model == "g2" else os.path.join(FIXTURES, "nth_last6.json")
    code, out, _ = run(capsys, "verify", "--format", "json", "--property", prop, "--k", "2", path)
    with open(os.path.join(FIXTURES, "golden", model, f"verify_{prop}_k2.json"), encoding="utf-8") as fh:
        assert out == fh.read()
    assert code == (0 if json.loads(out)["opaque"] else 1)
    assert len(observers) == 1
    assert not {"states", "initial", "transitions", "index"} & vars(observers[0]).keys()


@pytest.mark.parametrize("model", ["g2", "nth_last6"])
def test_verify_builds_no_set_based_step_views(model):
    # The constructions read the row table; the set-based views serve only
    # the reference primitives and are built on their first call.
    path = G2 if model == "g2" else os.path.join(FIXTURES, "nth_last6.json")
    nfa = opaq.load_model(path)
    opaq.verify_current_state_opacity(nfa)
    opaq.verify_k_step_weak(nfa, 2)
    opaq.verify_k_step_strong(nfa, 2)
    opaq.verify_infinite_step_weak(nfa)
    opaq.verify_infinite_step_strong(nfa)
    opaq.walk_verifier(nfa)
    assert not {"_step", "_silent"} & vars(nfa).keys()
    table = opaq.core.row_table(nfa)
    for e, event in enumerate(table.events):
        for i, x in enumerate(nfa.states):
            direct = {dst for src, ev, dst in nfa.transitions if src == x and ev == event}
            assert opaq.core.step(nfa, [x], event) == nfa.state_set(direct)
            assert opaq.observable_reach(nfa, [x], event) == table.state_set(table.reach[e][i])
    assert {"_step", "_silent"} <= vars(nfa).keys()


@pytest.mark.parametrize("prop", PROPERTIES)
def test_a_model_past_the_table_steps_verifies_like_g2(tmp_path, capsys, prop):
    # 70 idle states declared ahead of g2's push its states to bits 70..79,
    # past the 64 states up to which steps read byte tables.
    raw = g2_dict()
    raw["states"] = [f"idle{i}" for i in range(70)] + raw["states"]
    path = tmp_path / "g2_padded.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert len(raw["states"]) > TABLE_STEP_STATES[-1]
    code, out, _ = run(capsys, "verify", "--format", "json", "--property", prop, "--k", "2", str(path))
    with open(os.path.join(FIXTURES, "golden", "g2", f"verify_{prop}_k2.json"), encoding="utf-8") as fh:
        assert out == fh.read()
    assert code == (0 if json.loads(out)["opaque"] else 1)


@pytest.mark.parametrize("structure", ["weak-tree", "sst"])
def test_state_cap_bounds_tree_exports(tmp_path, capsys, structure):
    # g2's trees from {1,4,7} are chains of K + 1 nodes: K = 3 fits a cap of
    # 4 and K = 4 does not.  A tree at K = 10^9 stops at the cap too.
    tree = ("export", "--structure", structure, "--root", "1,4,7", "--state-cap", "4")
    assert run(capsys, *tree, "--k", "3", G2)[0] == 0
    for k in ("4", str(10**9)):
        code, out, err = run(capsys, *tree, "--k", k, G2)
        assert (code, out) == (3, "")
        assert err == "error: state tree exceeded 4 nodes\n"
    # A tree that ends before K stops growing there, whatever K is.
    path = tmp_path / "short.json"
    path.write_text(json.dumps({
        "states": ["s", "t"],
        "events": [{"name": "x", "observable": True}],
        "initial": ["s"],
        "secret": ["s"],
        "transitions": [["s", "x", "t"]],
    }), encoding="utf-8")
    code, out, _ = run(capsys, "export", "--structure", structure, "--root", "s", "--k", str(10**9), str(path))
    assert code == 0 and out.count("shape=box") == 2


@pytest.mark.parametrize("structure", ["weak-tree", "sst"])
def test_an_oversized_tree_export_is_refused_before_it_is_built(monkeypatch, capsys, structure):
    # nth_last6 has two events, so its depth-40 trees hold about 2^41 nodes;
    # the path count passes the default cap near depth 20 and nothing is built.
    def refuse(*args):
        raise AssertionError("export built a tree")

    monkeypatch.setattr(opaq.weak, "_grow_tree", refuse)
    monkeypatch.setattr(opaq.strong, "_grow_tree", refuse)
    path = os.path.join(FIXTURES, "nth_last6.json")
    code, out, err = run(capsys, "export", "--structure", structure, "--root", "0,1,2,3,4,5,6,s", "--k", "40", path)
    assert (code, out) == (3, "")
    assert err == f"error: state tree exceeded {2**20} nodes\n"


def test_export_verifier_contains_empty_pair_node(capsys):
    code, out, _ = run(capsys, "export", "--structure", "verifier", G2)
    assert code == 0
    assert '"({3,6,9},{})"' in out


def test_export_sst_three_node_chain(capsys):
    code, out, _ = run(
        capsys, "export", "--structure", "sst", "--root", "1,4,7", "--k", "2", G2
    )
    assert code == 0
    assert out.count("shape=box") == 3
    assert '"({1,4,7},{4,7})"' in out
    assert '"({3,6,9},{})"' in out


def test_export_observer_fragment_single_node(capsys):
    code, out, _ = run(capsys, "export", "--structure", "observer", G8FRAG)
    assert code == 0
    assert '"{0,1}"' in out
    assert "->" not in out


def test_export_projected_sipa_and_weak_tree(capsys):
    code, out, _ = run(capsys, "export", "--structure", "projected", G2)
    assert code == 0 and '"0" -> "1" [label="a"];' in out
    code, out, _ = run(capsys, "export", "--structure", "sipa", G2)
    assert code == 0 and '"0_N"' in out
    code, out, _ = run(
        capsys, "export", "--structure", "weak-tree", "--root", "1,4,7", "--k", "2", G2
    )
    assert code == 0 and '"({1},{4,7})"' in out


def test_color_codes_follow_env(capsys, monkeypatch):
    monkeypatch.setenv("OPAQ_COLOR", "always")
    code, out, _ = run(capsys, "verify", "--property", "cs", G2)
    assert code == 0
    assert "\x1b[32m" in out
    monkeypatch.setenv("OPAQ_COLOR", "never")
    _, out, _ = run(capsys, "verify", "--property", "cs", G2)
    assert "\x1b[" not in out


def test_export_is_byte_identical_across_runs(capsys):
    _, first, _ = run(capsys, "export", "--structure", "verifier", G2)
    _, second, _ = run(capsys, "export", "--structure", "verifier", G2)
    assert first == second


def test_export_unreachable_root(capsys):
    code, _, err = run(
        capsys, "export", "--structure", "sst", "--root", "1,4", "--k", "2", G2
    )
    assert code == 2
    assert "not a reachable" in err


def test_export_root_accepts_a_json_array(tmp_path, capsys):
    path = tmp_path / "comma.json"
    path.write_text(json.dumps({
        "states": ["a,b", "c", "d"],
        "events": [{"name": "x", "observable": True}],
        "initial": ["a,b", "c"],
        "secret": ["c"],
        "transitions": [["a,b", "x", "d"]],
    }), encoding="utf-8")
    code, out, _ = run(
        capsys, "export", "--structure", "weak-tree", "--root", '["a,b", "c"]', "--k", "1", str(path)
    )
    assert code == 0
    assert '"({c},{a,b})"' in out and '"({},{d})"' in out
    code, _, err = run(capsys, "export", "--structure", "sst", "--root", "a,b,c", "--k", "1", str(path))
    assert code == 2 and "unknown state 'a'" in err
    for bad in ('["a,b", 3]', '["a,b"'):
        code, _, err = run(capsys, "export", "--structure", "sst", "--root", bad, "--k", "1", str(path))
        assert code == 2 and err.startswith("error:")


def test_export_root_falls_back_to_commas_for_bracketed_names(tmp_path, capsys):
    # Neither root below is a JSON array of strings, so both take the comma form.
    path = tmp_path / "brackets.json"
    path.write_text(json.dumps({
        "states": ["[x", "[1]", "d"],
        "events": [{"name": "x", "observable": True}],
        "initial": ["[x", "[1]"],
        "secret": ["[1]"],
        "transitions": [["[x", "x", "d"], ["d", "x", "[1]"]],
    }), encoding="utf-8")
    for root in ("[x,[1]", "[1],[x"):
        code, out, err = run(capsys, "export", "--structure", "weak-tree", "--root", root, "--k", "1", str(path))
        assert code == 0, err
        assert '"({[1]},{[x})"' in out and '"({},{d})"' in out
    # "[1]" parses as JSON, but not as an array of names.
    code, out, err = run(capsys, "export", "--structure", "weak-tree", "--root", "[1]", "--k", "0", str(path))
    assert code == 0, err
    assert '"({[1]},{})"' in out


def test_export_tree_requires_root_and_k(capsys):
    code, _, err = run(capsys, "export", "--structure", "weak-tree", G2)
    assert code == 2
    assert "--root and --k" in err


def test_crosscheck_trivial_single_model(tmp_path, capsys):
    report = tmp_path / "report.jsonl"
    code, out, _ = run(
        capsys,
        "crosscheck", "--models", "1", "--max-states", "1", "--seed", "0",
        "--report", str(report), "--fixtures-dir", str(tmp_path / "div"),
    )
    assert code == 0
    assert "agreement: 100%" in out
    lines = report.read_text().splitlines()
    assert lines
    record = json.loads(lines[0])
    assert {"seed", "property", "k", "verify_opaque", "oracle_opaque", "agree"} <= set(record)


def test_crosscheck_small_batch_agrees(tmp_path, capsys):
    report = tmp_path / "report.jsonl"
    code, out, _ = run(
        capsys,
        "crosscheck", "--models", "40", "--max-states", "4", "--k", "0..2",
        "--seed", "3", "--report", str(report), "--fixtures-dir", str(tmp_path / "div"),
    )
    assert code == 0
    assert "agreement: 100%" in out


def test_crosscheck_rejects_zero_states(capsys):
    code, _, err = run(capsys, "crosscheck", "--k", "3", "--max-states", "0")
    assert code == 2
    assert "positive" in err


def test_crosscheck_rejects_an_empty_k_range(tmp_path, capsys):
    report = tmp_path / "report.jsonl"
    code, out, err = run(
        capsys, "crosscheck", "--k", "3..1", "--models", "2", "--report", str(report),
        "--fixtures-dir", str(tmp_path / "div"),
    )
    assert code == 2
    assert "K range is empty" in err
    assert "agreement" not in out
    assert not report.exists()


def test_crosscheck_oracle_searches_stop_at_the_cap(tmp_path, monkeypatch, capsys):
    # At K = 1500 an oracle K-step search would enumerate |Eo|^1500 strings;
    # the batch passes the CLI's state cap to it and exits 3.
    monkeypatch.setattr(opaq.cli, "DEFAULT_STATE_CAP", 5000)
    code, out, err = run(
        capsys, "crosscheck", "--no-structural", "--k", "1500", "--models", "20",
        "--report", str(tmp_path / "r.jsonl"), "--fixtures-dir", str(tmp_path / "div"),
    )
    assert code == 3
    assert out == ""
    assert err in (
        "error: oracle k-step weak search exceeded 5000 strings\n",
        "error: oracle k-step strong search exceeded 5000 strings\n",
    )


def test_crosscheck_divergence_writes_fixture_and_fails(tmp_path, monkeypatch, capsys):
    # A batch with a construction/oracle disagreement must serialize each
    # divergent model before reporting failure.  No model diverges any more,
    # so the k-strong check is made to repeat its old, wrong "opaque" on the
    # hidden-crossing model, which the oracle finds not opaque.
    import opaq.crosscheck as crosscheck
    from opaq import validate_model
    from opaq.weak import Verdict

    monkeypatch.setattr(
        crosscheck, "random_nfa", lambda cfg: validate_model(hidden_crossing_dict())
    )
    monkeypatch.setattr(crosscheck, "verify_k_step_strong", lambda *args: Verdict(True))
    fixtures = tmp_path / "div"
    code, out, _ = run(
        capsys,
        "crosscheck", "--models", "1", "--max-states", "4", "--k", "1..2",
        "--seed", "0", "--report", str(tmp_path / "r.jsonl"),
        "--fixtures-dir", str(fixtures),
    )
    assert code == 1
    assert "agreement: FAILED" in out
    written = sorted(fixtures.iterdir())
    assert written
    record = json.loads(written[0].read_text())
    assert record["property"] == "k-strong"
    assert record["verify_opaque"] is True and record["oracle_opaque"] is False


@pytest.mark.parametrize("buffered", [True, False])
@pytest.mark.parametrize("argv", [
    ["verify", "--property", "cs", G2],
    ["crosscheck", "--models", "5", "--max-states", "3"],
])
def test_a_closed_stdout_exits_1_without_a_traceback(tmp_path, argv, buffered):
    # The read end is closed before the command starts, so its first write
    # to stdout fails, as under ``opaq ... | head -0``.
    path = [SRC, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "opaq.cli", *argv], stdout=write, stderr=subprocess.PIPE,
            cwd=tmp_path, env=env, text=True, timeout=120,
        )
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert proc.stderr == ""


def run_cli(argv, cwd, optimize):
    """(exit code, stdout, stderr) of ``python [-O] -m opaq.cli argv`` in *cwd*."""
    path = [SRC, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    flags = ["-O"] if optimize else []
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "opaq.cli", *argv], capture_output=True,
        cwd=cwd, env=env, timeout=300,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_optimize_changes_no_output(tmp_path):
    # Invariants are checked without ``assert``, so ``python -O`` gives the
    # same verdicts, witnesses, sizes and crosscheck report.
    nth_last = os.path.join(FIXTURES, "nth_last6.json")
    commands = [["crosscheck", "--models", "50", "--max-states", "8", "--k", "0..3", "--seed", "7",
                 "--report", "report.jsonl"]]
    for prop in PROPERTIES:
        k = ["--k", "2"] if prop in ("k-weak", "k-strong") else []
        commands.append(["verify", "--property", prop, *k, "--format", "json", nth_last])
    for argv in commands:
        outputs = []
        for optimize in (False, True):
            cwd = tmp_path / f"{argv[0]}-{argv[2]}-{int(optimize)}"
            cwd.mkdir()
            code, out, err = run_cli(argv, cwd, optimize)
            assert code in (0, 1) and err == b"", err
            report = (cwd / "report.jsonl").read_bytes() if argv[0] == "crosscheck" else None
            outputs.append((code, out, report))
        assert outputs[0] == outputs[1]
        if argv[0] == "crosscheck":
            # One report row per check.
            assert report.count(b"\n") == 50 * 11
        else:
            assert json.loads(out)["property"] == argv[2]
