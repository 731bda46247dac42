"""Metamorphic relations: changes of model whose effect on the verdicts is known.

Each relation rewrites a model, and ``opaq verify --format json`` must print
the same payload (verdict, witness and sizes) for both models, for all five
properties and for ``k-weak`` and ``k-strong`` at K 0 to 2.  No oracle is
needed, so the models may be larger than the crosscheck batch's; the drawn
ones have 9 to 20 states, so both the prefilled byte tables and the steps
filled on first use run.

- *Split*: a fresh state x' copies a state x, with x's secrecy and initial
  membership, a copy of each of x's outgoing transitions and a twin of each
  incoming one.  An estimate or an x2 holds x' exactly when it holds x, so
  only the tagged automaton, and ``sipa_states`` with it, may grow.
- *State order*: ``states`` and ``transitions`` in another order.  Estimates
  and x2s are sets, and events keep their order, so nothing changes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opaq.cli import main
from opaq.core import model_to_dict
from opaq.oracle import OracleConfig, random_nfa

from conftest import g2_dict

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
CALLS = [[prop] for prop in ("cs", "inf-weak", "inf-strong")]
CALLS += [[prop, "--k", str(k)] for prop in ("k-weak", "k-strong") for k in (0, 1, 2)]


def split(raw, x):
    """*raw* with a fresh copy of state *x*; a self-loop on x yields all four
    loops and edges between x and its copy."""
    twin = x + "'"
    while twin in raw["states"]:
        twin += "'"

    def copies(src, dst):
        return [(a, b) for a in ((src, twin) if src == x else (src,)) for b in ((dst, twin) if dst == x else (dst,))]

    return dict(
        raw,
        states=raw["states"] + [twin],
        initial=raw["initial"] + [twin] * (x in raw["initial"]),
        secret=raw["secret"] + [twin] * (x in raw["secret"]),
        transitions=[[a, e, b] for src, e, dst in raw["transitions"] for a, b in copies(src, dst)],
    )


def shuffled(raw, seed):
    """*raw* with its states and transitions in another order."""
    rng = random.Random(seed)
    states, transitions = list(raw["states"]), list(raw["transitions"])
    rng.shuffle(states)
    rng.shuffle(transitions)
    return dict(raw, states=states, transitions=transitions)


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    return tmp_path_factory.mktemp("metamorphic") / "model.json"


def payloads(raw, path):
    """The exit code and JSON payload of each verify call on *raw*."""
    path.write_text(json.dumps(raw), encoding="utf-8")
    out = []
    for call in CALLS:
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = main(["verify", "--format", "json", "--property", *call, str(path)])
        out.append((code, json.loads(text.getvalue())))
    return out


def without_sipa(results):
    return [(code, dict(payload, sizes={k: v for k, v in payload["sizes"].items() if k != "sipa_states"}))
            for code, payload in results]


def check_relations(raw, path, splits, seed):
    expected = payloads(raw, path)
    assert payloads(shuffled(raw, seed), path) == expected
    for x in splits:
        assert without_sipa(payloads(split(raw, x), path)) == without_sipa(expected), x


def fixture(name):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
        return json.load(fh)


def test_the_split_of_a_self_loop_yields_four_edges():
    raw = {"states": ["x", "y"], "initial": ["x"], "secret": ["x"],
           "transitions": [["x", "a", "x"], ["y", "a", "x"]]}
    assert split(raw, "x") == dict(
        raw, states=["x", "y", "x'"], initial=["x", "x'"], secret=["x", "x'"],
        transitions=[["x", "a", "x"], ["x", "a", "x'"], ["x'", "a", "x"], ["x'", "a", "x'"],
                     ["y", "a", "x"], ["y", "a", "x'"]],
    )


@pytest.mark.parametrize("raw, splits", [
    (g2_dict(), None),
    (fixture("nth_last6.json"), None),
    # Its core state and its secret.
    (fixture("nth_last12.json"), ["0", "12"]),
], ids=["g2", "nth_last6", "nth_last12"])
def test_fixtures_keep_their_payloads(raw, splits, model_path):
    check_relations(raw, model_path, raw["states"] if splits is None else splits, 0)


@settings(max_examples=48, deadline=None)
@given(n=st.integers(9, 20), seed=st.integers(0, 2**32 - 1), pick=st.integers(0, 19))
def test_drawn_models_keep_their_payloads(n, seed, pick, model_path):
    raw = model_to_dict(random_nfa(OracleConfig(
        n_states=n, n_events=3, unobservable_fraction=0.3, secret_fraction=0.3, density=1.6, seed=seed,
    )))
    check_relations(raw, model_path, [raw["states"][pick % n]], seed)
