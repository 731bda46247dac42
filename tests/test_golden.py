"""Byte-for-byte CLI output pinned by golden files, and the counted tree size.

``tests/fixtures/golden/manifest.json`` lists one case per line: the model,
the CLI arguments, the exit code and the file holding the expected stdout.
The files were written by the set-based implementation that the bitmask row
table replaced; every DOT export and every ``verify --format json`` payload
(verdict, witness and ``sizes``) must stay identical.
"""

from __future__ import annotations

import json
import os
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opaq import (
    build_observer,
    build_projected_automaton,
    build_sipa,
    build_sst,
    build_verifier,
    build_weak_state_tree,
    observer_dot,
    projected_dot,
    sipa_dot,
    tree_dot,
    tree_node_count,
    validate_model,
    verifier_dot,
)
from opaq.cli import main
from opaq.weak import secret_intersecting_roots

from test_reach import small_models

HERE = os.path.dirname(__file__)
GOLDEN = os.path.join(HERE, "fixtures", "golden")
MODELS = {
    "g2": os.path.join(HERE, "..", "models", "g2.json"),
    "g8frag": os.path.join(HERE, "..", "models", "g8frag.json"),
    "hidden_crossing": None,  # the "model" member of fixtures/hidden_crossing.json
    "nth_last6": os.path.join(HERE, "fixtures", "nth_last6.json"),
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
    properties = {(c["args"][4], c["args"][6]) for c in CASES if c["args"][0] == "verify"}
    assert structures == {"observer", "projected", "sipa", "verifier", "weak-tree", "sst"}
    assert properties == {
        (p, k) for p in ("cs", "k-weak", "k-strong", "inf-weak", "inf-strong") for k in ("1", "2")
    }
    assert {c["model"] for c in CASES} == set(MODELS)


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


# K reaches 5 so that the last level, which the count takes in closed form,
# comes after one or more propagated levels.
@settings(max_examples=100, deadline=None)
@given(nfa=small_models(), k=st.integers(0, 5))
@example(nfa=dead_end_chain(), k=5)
def test_tree_node_count_equals_materialized_trees(nfa, k):
    obs = build_observer(nfa)
    roots = secret_intersecting_roots(nfa, obs)
    weak = sum(build_weak_state_tree(nfa, obs, root, k).node_count for root in roots)
    sst = sum(build_sst(nfa, obs, root, k).node_count for root in roots)
    assert tree_node_count(nfa, obs, k) == weak == sst


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
        projected_dot(build_projected_automaton(nfa)),
        sipa_dot(build_sipa(nfa)),
        verifier_dot(build_verifier(nfa, obs)),
        tree_dot(build_weak_state_tree(nfa, obs, root, 2)),
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
