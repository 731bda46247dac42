"""Metamorphic relations: changes of model whose effect on the verdicts is known.

Each relation rewrites a model, and ``opaq verify --format json`` must print
the same payload (verdict, witness and sizes) for both models, or the parts
of it that the relation keeps, for all five properties and for ``k-weak``
and ``k-strong`` at K 0 to 2.  No oracle is
needed, so the models may be larger than the crosscheck batch's; the drawn
ones have 9 to 20 states, so both the prefilled byte tables and the steps
filled on first use run.

- *Split*: a fresh state x' copies a state x, with x's secrecy and initial
  membership, a copy of each of x's outgoing transitions and a twin of each
  incoming one.  An estimate or an x2 holds x' exactly when it holds x, so
  only the tagged automaton, and ``sipa_states`` with it, may grow.
- *State order*: ``states`` and ``transitions`` in another order.  Estimates
  and x2s are sets, and events keep their order, so nothing changes.
- *Clean saturation*: for nonsecret x and y with x -e-> y on an observable
  e, and z in y's all-nonsecret silent closure, add x -e-> z.  Both x's
  reach row and its secret-avoiding row under e already hold z, so nothing
  changes.
- *Event order*: the observable events in another order.  The estimates,
  the pairs and their depths stay, so every verdict, every size and each
  witness's continuation length (the least violating depth) stay; the
  tie-break between witnesses of that length may move.
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


def saturations(raw):
    """Each edge x -e-> z that clean saturation adds to *raw*, in transition
    order, leaving out those already in it."""
    secret = set(raw["secret"])
    loud = {e["name"] for e in raw["events"] if e["observable"]}
    silent = {}
    for a, e, b in raw["transitions"]:
        if e not in loud and a not in secret and b not in secret:
            silent.setdefault(a, []).append(b)
    edges = set(map(tuple, raw["transitions"]))
    added = {}
    for x, e, y in raw["transitions"]:
        if e in loud and x not in secret and y not in secret:
            closure, todo = {y}, [y]
            while todo:
                for b in silent.get(todo.pop(), ()):
                    if b not in closure:
                        closure.add(b)
                        todo.append(b)
            added.update(((x, e, z), None) for z in sorted(closure) if (x, e, z) not in edges)
    return [list(edge) for edge in added]


def reordered_events(raw, seed):
    """*raw* with its observable events in another order; silent events keep their places."""
    rng = random.Random(seed)
    events = list(raw["events"])
    slots = [i for i, event in enumerate(events) if event["observable"]]
    moved = [events[i] for i in slots]
    while len(moved) > 1 and moved == [events[i] for i in slots]:
        rng.shuffle(moved)
    for i, event in zip(slots, moved):
        events[i] = event
    return dict(raw, events=events)


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


def order_free(results):
    """What event order keeps: the exit code, property, K, verdict, sizes and
    witness continuation length of each call."""
    return [(code, payload["property"], payload["k"], payload["opaque"], payload["sizes"],
             payload["witness"] and len(payload["witness"]["continuation"])) for code, payload in results]


def check_relations(raw, path, splits, seed, saturate):
    expected = payloads(raw, path)
    assert payloads(shuffled(raw, seed), path) == expected
    assert order_free(payloads(reordered_events(raw, seed), path)) == order_free(expected)
    for x in splits:
        assert without_sipa(payloads(split(raw, x), path)) == without_sipa(expected), x
    for edge in saturate:
        assert payloads(dict(raw, transitions=raw["transitions"] + [edge]), path) == expected, edge


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
    check_relations(raw, model_path, raw["states"] if splits is None else splits, 0, saturations(raw))


@settings(max_examples=48, deadline=None)
@given(n=st.integers(9, 20), seed=st.integers(0, 2**32 - 1), pick=st.integers(0, 19))
def test_drawn_models_keep_their_payloads(n, seed, pick, model_path):
    raw = model_to_dict(random_nfa(OracleConfig(
        n_states=n, n_events=3, unobservable_fraction=0.3, secret_fraction=0.3, density=1.6, seed=seed,
    )))
    saturate = saturations(raw)
    check_relations(raw, model_path, [raw["states"][pick % n]], seed, saturate and [saturate[pick % len(saturate)]])
