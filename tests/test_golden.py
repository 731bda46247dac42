"""Byte-for-byte CLI output pinned by golden files, and the counted tree size.

``tests/fixtures/golden/manifest.json`` lists one case per line: the model,
the CLI arguments, the exit code and the file holding the expected stdout.
The files were written by the set-based implementation that the bitmask row
table replaced; every DOT export and every ``verify --format json`` payload
(verdict, witness and ``sizes``) must stay identical.  The one change
since is ``k``, which reads null for ``cs``, ``inf-weak`` and
``inf-strong``: those verdicts use no K, whatever ``--k`` says.  So each of
those three runs once per model, at ``--k 1`` (its output is the same for
any ``--k`` or none), and ``k-weak`` and ``k-strong`` run at K = 1 and K = 2.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import opaq.core
from opaq import (
    build_observer,
    build_sipa,
    build_sst,
    build_verifier,
    build_weak_state_tree,
    load_model,
    observer_dot,
    projected_dot,
    sipa_dot,
    tree_dot,
    tree_node_count,
    validate_model,
    verifier_dot,
)
from opaq.cli import main

from conftest import g2_dict
from test_reach import small_models
from test_weak import nth_last6_without_core

HERE = os.path.dirname(__file__)
GOLDEN = os.path.join(HERE, "fixtures", "golden")
MODELS = {
    "g2": os.path.join(HERE, "..", "models", "g2.json"),
    "g8frag": os.path.join(HERE, "..", "models", "g8frag.json"),
    "hidden_crossing": None,  # the "model" member of fixtures/hidden_crossing.json
    "nth_last6": os.path.join(HERE, "fixtures", "nth_last6.json"),
    "nth_last12": os.path.join(HERE, "fixtures", "nth_last12.json"),
}

with open(os.path.join(GOLDEN, "manifest.json"), encoding="utf-8") as _fh:
    CASES = json.load(_fh)


@pytest.fixture(scope="module")
def model_paths(tmp_path_factory):
    with open(os.path.join(HERE, "fixtures", "hidden_crossing.json"), encoding="utf-8") as fh:
        model = json.load(fh)["model"]
    path = tmp_path_factory.mktemp("golden") / "hidden_crossing.json"
    path.write_text(json.dumps(model), encoding="utf-8")
    return dict(MODELS, hidden_crossing=str(path))


@pytest.mark.parametrize("case", CASES, ids=[c["file"] for c in CASES])
def test_output_matches_golden_file(case, model_paths, capsys):
    rc = main(case["args"] + [model_paths[case["model"]]])
    out = capsys.readouterr().out
    with open(os.path.join(GOLDEN, case["file"]), encoding="utf-8", newline="") as fh:
        expected = fh.read()
    assert rc == case["exit"]
    assert out == expected


def test_golden_set_covers_every_structure_and_property():
    structures = {c["args"][2] for c in CASES if c["args"][0] == "export"}
    properties = {tuple(c["args"][4:]) for c in CASES if c["args"][0] == "verify"}
    assert structures == {"observer", "projected", "sipa", "verifier", "weak-tree", "sst"}
    assert properties == {(p, "--k", k) for p in ("k-weak", "k-strong") for k in ("1", "2")} | {
        (p, "--k", "1") for p in ("cs", "inf-weak", "inf-strong")
    }
    assert {c["model"] for c in CASES} == set(MODELS)


def test_nth_last12_sizes_follow_the_closed_forms():
    # 14 states, so its observer is built from the byte tables read inline,
    # past the switch to the list index: 2^12 estimates, 2^11 secret ones,
    # 14 tagged states, 2^12 verifier states, and 2^11 (2^(K+1) - 1) tree
    # nodes at K (0 for cs).
    sizes = {}
    for case in CASES:
        if case["model"] == "nth_last12":
            with open(os.path.join(GOLDEN, case["file"]), encoding="utf-8") as fh:
                out = json.load(fh)
            sizes[out["property"], out["k"]] = out["sizes"]
    trees = {k: 2048 * (2 ** (k + 1) - 1) for k in (0, 1, 2)}
    assert sizes == {
        ("cs", None): {"observer_states": 4096, "tree_nodes": trees[0]},
        ("inf-weak", None): {"observer_states": 4096},
        ("inf-strong", None): {"observer_states": 4096, "sipa_states": 14, "verifier_states": 4096},
        **{("k-weak", k): {"observer_states": 4096, "tree_nodes": trees[k]} for k in (1, 2)},
        **{("k-strong", k): {"observer_states": 4096, "sipa_states": 14, "tree_nodes": trees[k]} for k in (1, 2)},
    }


def test_the_nth_last12_verifier_export_is_pinned(capsys, monkeypatch):
    # 14 states, so the verifier walk reads the avoid rows' byte tables
    # inline: two header lines, 4,096 states, 8,192 edges and the closing
    # line.  The walk that calls the steps writes the same bytes.
    argv = ["export", "--structure", "verifier", MODELS["nth_last12"]]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 12291
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c38f2cb707816a35b96c77ef9e78bb6ced6caccab37ca9ea07db825e410ef50c"
    )
    monkeypatch.setattr(opaq.core, "TABLE_STEP_STATES", range(0))
    assert main(argv) == 0
    assert capsys.readouterr().out == out


def dead_end_chain():
    """Every observation ends within two events, so depth 3 adds no node."""
    return validate_model(
        {
            "states": ["0", "1", "2", "3"],
            "events": [{"name": e, "observable": True} for e in "ab"],
            "initial": ["0"],
            "secret": ["0", "1"],
            "transitions": [["0", "a", "1"], ["0", "a", "2"], ["1", "b", "3"], ["2", "a", "3"]],
        }
    )


def looping_g2():
    """g2 with a nonsecret initial state ``z`` that loops on every event.

    Every estimate holds ``z``, so every estimate moves on all four events.
    """
    raw = g2_dict()
    raw["states"].append("z")
    raw["initial"].append("z")
    raw["transitions"] += [["z", e, "z"] for e in "abcd"]
    return validate_model(raw)


def alternating():
    """``0 -a-> s -b-> 0``: each of the two estimates moves on one event of two."""
    return validate_model(
        {
            "states": ["0", "s"],
            "events": [{"name": e, "observable": True} for e in "ab"],
            "initial": ["0"],
            "secret": ["s"],
            "transitions": [["0", "a", "s"], ["s", "b", "0"]],
        }
    )


def nth_last_with_sink(n):
    """The n-th-from-last-symbol model (as in ``nth_last6.json``, unpermuted)
    with a third event ``c`` into a secret sink: ``0 -c-> z -c-> z``.

    ``z`` is the only secret, so {z} is the only secret-intersecting
    estimate, and it moves on ``c`` to itself alone.  The estimates that hold
    ``0`` move on all three events, so the observer is not degree-uniform.
    """
    transitions = [["0", "a", "0"], ["0", "b", "0"], ["0", "a", "1"]]
    for i in range(1, n):
        transitions += [[str(i), "a", str(i + 1)], [str(i), "b", str(i + 1)]]
    transitions += [["0", "u", "s"], ["s", "a", "0"], ["0", "c", "z"], ["z", "c", "z"]]
    return {
        "states": [str(i) for i in range(n + 1)] + ["s", "z"],
        "events": [{"name": e, "observable": True} for e in "abc"] + [{"name": "u", "observable": False}],
        "initial": ["0"],
        "secret": ["z"],
        "transitions": transitions,
    }


def nth_last_with_cycle(n, p):
    """``nth_last_with_sink(n)`` with the sink ``z`` unrolled into a cycle of
    *p* states: ``0 -c-> z1 -c-> ... -c-> zp -c-> z1``, secret {z1}.

    {z1} is the only secret-intersecting estimate, and every path from it
    walks the cycle, one estimate and one move per level, so the levels
    repeat with period p and none equals the one before.
    """
    raw = nth_last_with_sink(n)
    cycle = [f"z{i}" for i in range(1, p + 1)]
    raw["states"] = [s for s in raw["states"] if s != "z"] + cycle
    raw["secret"] = ["z1"]
    raw["transitions"] = [t for t in raw["transitions"] if "z" not in t]
    raw["transitions"] += [["0", "c", "z1"]] + [[a, "c", b] for a, b in zip(cycle, cycle[1:] + cycle[:1])]
    return raw


def check_tree_node_count(nfa, k):
    """The count is the built trees' node total, exact at a cap equal to
    it, and above the cap at one below it."""
    obs = build_observer(nfa)
    roots = [obs.states[i] for i in obs.secret_positions]
    weak = sum(build_weak_state_tree(nfa, obs, root, k).node_count for root in roots)
    sst = sum(build_sst(nfa, obs, root, k).node_count for root in roots)
    assert tree_node_count(obs, k) == weak == sst
    assert tree_node_count(obs, k, weak) == weak
    assert tree_node_count(obs, k, weak - 1) > weak - 1


# K reaches 5 so that the last level, which the propagation takes in closed
# form, comes after one or more propagated levels.
@settings(max_examples=100, deadline=None)
@given(nfa=small_models(), k=st.integers(0, 5))
@example(nfa=dead_end_chain(), k=5)
@example(nfa=validate_model(nth_last_with_sink(6)), k=0)
@example(nfa=validate_model(nth_last_with_sink(6)), k=1)
@example(nfa=validate_model(nth_last_with_sink(6)), k=2)
@example(nfa=validate_model(nth_last_with_sink(6)), k=3)
@example(nfa=validate_model(nth_last_with_sink(6)), k=4)
@example(nfa=validate_model(nth_last_with_sink(6)), k=5)
@example(nfa=validate_model(nth_last_with_cycle(6, 2)), k=0)
@example(nfa=validate_model(nth_last_with_cycle(6, 2)), k=1)
@example(nfa=validate_model(nth_last_with_cycle(6, 2)), k=2)
@example(nfa=validate_model(nth_last_with_cycle(6, 2)), k=3)
@example(nfa=validate_model(nth_last_with_cycle(6, 2)), k=4)
@example(nfa=validate_model(nth_last_with_cycle(6, 2)), k=5)
@example(nfa=validate_model(nth_last_with_cycle(6, 3)), k=0)
@example(nfa=validate_model(nth_last_with_cycle(6, 3)), k=1)
@example(nfa=validate_model(nth_last_with_cycle(6, 3)), k=2)
@example(nfa=validate_model(nth_last_with_cycle(6, 3)), k=3)
@example(nfa=validate_model(nth_last_with_cycle(6, 3)), k=4)
@example(nfa=validate_model(nth_last_with_cycle(6, 3)), k=5)
def test_tree_node_count_equals_materialized_trees(nfa, k):
    check_tree_node_count(nfa, k)


# Observers whose estimates all have the same number of moves, d, are
# counted in closed form.  Two have d below the number of events.
DEGREE_UNIFORM = {
    "nth_last6": (lambda: load_model(MODELS["nth_last6"]), 2),
    "looping_g2": (looping_g2, 4),
    "nth_last6_without_core": (nth_last6_without_core, 2),
    "alternating": (alternating, 1),
}


@pytest.mark.parametrize("k", [0, 1, 2, 5])
@pytest.mark.parametrize("name", DEGREE_UNIFORM)
def test_degree_uniform_tree_node_counts_equal_materialized_trees(name, k):
    make, degree = DEGREE_UNIFORM[name]
    nfa = make()
    moves = build_observer(nfa).moves
    assert {len(row) - row.count(-1) for row in moves} == {degree}
    check_tree_node_count(nfa, k)


def test_a_huge_k_is_counted_in_closed_form(capsys):
    # One secret estimate and one move from each: K + 1 nodes, read without
    # a pass per level, so exact even far past the cap.  nth_last6's levels
    # double, so its count passes the default cap of 2^20 within a few
    # levels, at any K.
    nfa = alternating()
    assert tree_node_count(build_observer(nfa), 10**9, 2**20) == 10**9 + 1
    start = time.perf_counter()
    rc = main(["verify", "--format", "json", "--property", "k-weak", "--k", "1000000000", MODELS["nth_last6"]])
    assert time.perf_counter() - start < 1
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["sizes"]["tree_nodes"] == ">1048576"


def test_a_huge_k_is_counted_when_a_level_repeats(tmp_path, capsys):
    # The observer is not degree-uniform, so the count propagates level by
    # level.  The one root, {z}, moves to itself alone, so level 1 equals
    # level 0 and so does every later level: K + 1 nodes after one pass,
    # not a pass per level until the total passes the cap.
    raw = nth_last_with_sink(6)
    nfa = validate_model(raw)
    assert tree_node_count(build_observer(nfa), 10**9, 2**20) == 10**9 + 1
    path = tmp_path / "nth_last6_sink.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    start = time.perf_counter()
    rc = main(["verify", "--format", "json", "--property", "k-weak", "--k", "1000000000", str(path)])
    assert time.perf_counter() - start < 1
    assert rc == 1
    assert json.loads(capsys.readouterr().out)["sizes"]["tree_nodes"] == ">1048576"


@pytest.mark.parametrize("p", [2, 3])
def test_a_huge_k_is_counted_when_the_levels_cycle(p, tmp_path, capsys):
    # The one root, {z1}, walks a cycle of p estimates, so level d + p
    # equals level d and no level equals the one before: the count finds
    # the period within a few levels and adds the whole periods at once,
    # not a pass per level until the total passes the cap.
    raw = nth_last_with_cycle(8, p)
    nfa = validate_model(raw)
    assert tree_node_count(build_observer(nfa), 10**9, 2**20) == 10**9 + 1
    assert tree_node_count(build_observer(nfa), 10**9 + p - 1) == 10**9 + p
    path = tmp_path / f"nth_last8_cycle{p}.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    start = time.perf_counter()
    rc = main(["verify", "--format", "json", "--property", "k-weak", "--k", "1000000000", str(path)])
    assert time.perf_counter() - start < 1
    assert rc == 1
    assert json.loads(capsys.readouterr().out)["sizes"]["tree_nodes"] == ">1048576"


def test_tree_nodes_are_counted_not_built(capsys):
    # 32 of the 64 estimates hold the secret 6, and both events are enabled
    # everywhere, so each root has 2^0 + ... + 2^16 nodes.  Building the
    # trees costs |Eo|^K; counting them is a walk of K steps over the observer.
    # A count up to the state cap is exact; past it the count stops and
    # reads ">cap" (the default cap is 2^20).
    argv = ["verify", "--format", "json", "--property", "k-weak", "--k", "16", MODELS["nth_last6"]]
    for cap, nodes in ((["--state-cap", "4194272"], 32 * (2**17 - 1)), ([], ">1048576")):
        rc = main(argv[:-1] + cap + argv[-1:])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0 and payload["opaque"]
        assert payload["sizes"]["tree_nodes"] == nodes
    assert 32 * (2**17 - 1) == 4_194_272


# What a DOT line of the exports may be once each quoted string is replaced by Q.
DOT_LINE = re.compile(
    r"digraph \w+ \{|  rankdir=(LR|TB);|  Q \[shape=\w+\];|  Q -> Q \[label=Q\];"
    r"|  n\d+ \[shape=box,label=Q\];|  n\d+ -> n\d+ \[label=Q\];|\}"
)


def dot_tokens(line):
    """*line* with each DOT quoted string replaced by Q, and the unescaped strings."""
    skeleton, strings, i = [], [], 0
    while i < len(line):
        if line[i] != '"':
            skeleton.append(line[i])
            i += 1
            continue
        i += 1
        text = []
        while True:
            assert i < len(line), f"unterminated quoted string in {line!r}"
            if line[i] == "\\":
                text.append(line[i + 1])
                i += 2
            elif line[i] == '"':
                break
            else:
                text.append(line[i])
                i += 1
        skeleton.append("Q")
        strings.append("".join(text))
        i += 1
    return "".join(skeleton), strings


def test_dot_quotes_names_with_quotes_and_backslashes():
    nfa = validate_model(
        {
            "states": ['s"0', "t\\1", "x"],
            "events": [
                {"name": 'e"v', "observable": True},
                {"name": "c\\", "observable": True},
                {"name": 'u"', "observable": False},
            ],
            "initial": ['s"0'],
            "secret": ["t\\1"],
            "transitions": [
                ['s"0', 'e"v', "t\\1"], ['s"0', 'e"v', "x"], ["t\\1", "c\\", "x"],
                ["x", 'u"', 's"0'], ["x", 'e"v', "t\\1"],
            ],
        }
    )
    obs = build_observer(nfa)
    root = next(state for state in obs.states if "t\\1" in state)
    dots = [
        observer_dot(obs),
        projected_dot(nfa),
        sipa_dot(build_sipa(nfa)),
        verifier_dot(build_verifier(nfa, obs)),
        tree_dot(build_weak_state_tree(nfa, obs, root, 2), "weak_tree"),
        tree_dot(build_sst(nfa, obs, root, 2), "sst"),
    ]
    for dot in dots:
        strings = []
        for line in dot.splitlines():
            skeleton, found = dot_tokens(line)
            assert DOT_LINE.fullmatch(skeleton), line
            strings += found
        assert 'e"v' in strings and "c\\" in strings
        assert any('s"0' in text for text in strings)
        assert any("t\\1" in text for text in strings)


@pytest.mark.parametrize("structure, label", [
    ("observer", "{a,b,x}"),
    ("verifier", "({a,b,x},{a,b,x})"),
])
def test_estimates_that_print_alike_stay_two_nodes(tmp_path, capsys, structure, label):
    # {a,b} + {x} and {a} + {b,x} both print as {a,b,x}, and e moves each to
    # the other, so labels cannot serve as node ids.
    path = tmp_path / "commas.json"
    path.write_text(json.dumps({
        "states": ["a,b", "x", "a", "b,x"],
        "events": [{"name": "e", "observable": True}],
        "initial": ["a,b", "x"],
        "secret": [],
        "transitions": [["a,b", "e", "a"], ["x", "e", "b,x"], ["a", "e", "a,b"], ["b,x", "e", "x"]],
    }), encoding="utf-8")
    assert main(["export", "--structure", structure, str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    tokens = [dot_tokens(line) for line in lines]
    assert [skeleton for skeleton, _ in tokens[2:-1]] == [
        "  n0 [shape=doublecircle,label=Q];",
        "  n1 [shape=circle,label=Q];",
        "  n0 -> n1 [label=Q];",
        "  n1 -> n0 [label=Q];",
    ]
    assert [strings for _, strings in tokens[2:-1]] == [[label], [label], ["e"], ["e"]]
    assert lines[:2] == [f"digraph {structure} {{", "  rankdir=LR;"] and lines[-1] == "}"


# -- hostile names end to end ----------------------------------------------

# Pieces of state and event names: DOT and JSON punctuation, the comma that
# joins a --root, the arrow of a DOT edge, non-ASCII letters and line breaks.
HOSTILE = ['"', "'", "\\", ",", "{", "}", "[", "]", " ", "->", ";", "=", "é", "ß", "Ж", "中", "a", "\n", "\r"]
# An estimate's node when two estimates print alike (see core.dot_graph).
NUMBERED_NODE = re.compile(r"  n\d+ \[shape=\w+,label=Q\];")


@st.composite
def hostile_models(draw):
    name = st.lists(st.sampled_from(HOSTILE), min_size=1, max_size=4).map("".join)
    states = draw(st.lists(name, min_size=1, max_size=4, unique=True))
    events = draw(st.lists(name, min_size=1, max_size=3, unique=True))
    state, event = st.sampled_from(states), st.sampled_from(events)
    return {
        "states": states,
        "events": [{"name": e, "observable": draw(st.booleans())} for e in events],
        "initial": draw(st.lists(state, min_size=1, unique=True)),
        "secret": draw(st.lists(state, unique=True)),
        "transitions": [list(t) for t in draw(st.lists(st.tuples(state, event, state), max_size=8, unique=True))],
    }


@pytest.fixture(scope="module")
def hostile_path(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile") / "model.json"


@settings(max_examples=60, deadline=None)
@given(raw=hostile_models())
def test_hostile_names_exit_cleanly_and_keep_dot_lines_whole(hostile_path, raw):
    hostile_path.write_text(json.dumps(raw), encoding="utf-8")
    path = str(hostile_path)
    obs = build_observer(validate_model(raw))
    # A secret-intersecting root when there is one; else the tree exports
    # reject the initial estimate (exit 2).
    root = next((s for s in obs.states if set(s) & set(raw["secret"])), obs.initial)
    calls = [["verify", "--property", prop, "--k", "2", path] for prop in ("k-weak", "k-strong")]
    calls += [["verify", "--property", prop, path] for prop in ("cs", "inf-weak", "inf-strong")]
    calls += [["export", "--structure", s, path] for s in ("observer", "projected", "sipa", "verifier")]
    calls += [
        ["export", "--structure", s, f"--root={text}", "--k", "2", path]
        for s in ("weak-tree", "sst")
        for text in (json.dumps(list(root)), ",".join(root))
    ]
    names = raw["states"] + [e["name"] for e in raw["events"]]
    one_line = not any("\n" in n or "\r" in n for n in names)
    for argv in calls:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert 0 <= code <= 3, argv
        if argv[0] == "export" and code == 0 and one_line:
            for line in out.getvalue().splitlines():
                skeleton, _ = dot_tokens(line)
                assert DOT_LINE.fullmatch(skeleton) or NUMBERED_NODE.fullmatch(skeleton), line
