from __future__ import annotations

import os

import pytest

import opaq.crosscheck
import opaq.strong
from opaq import validate_model
from opaq.oracle import MaskEngine

HERE = os.path.dirname(__file__)
MODELS = os.path.join(HERE, "..", "models")


def g2_dict() -> dict:
    return {
        "states": [str(i) for i in range(10)],
        "events": [{"name": e, "observable": True} for e in "abcd"],
        "initial": ["0"],
        "secret": ["1", "5", "9"],
        "transitions": [
            ["0", "a", "1"], ["0", "a", "4"], ["0", "a", "7"],
            ["1", "b", "2"], ["4", "b", "5"], ["7", "b", "8"],
            ["2", "c", "3"], ["5", "c", "6"], ["8", "c", "9"],
            ["3", "d", "3"], ["6", "d", "6"], ["9", "d", "9"],
        ],
    }


@pytest.fixture(scope="session")
def g2():
    return validate_model(g2_dict())


@pytest.fixture(scope="session")
def g8frag():
    return validate_model(
        {
            "states": ["0", "1"],
            "events": [
                {"name": "a", "observable": True},
                {"name": "c", "observable": True},
                {"name": "b", "observable": False},
            ],
            "initial": ["0"],
            "secret": [],
            "transitions": [["0", "b", "1"]],
        }
    )


@pytest.fixture(scope="session")
def weak_tree_pattern():
    """DFA with silence whose weak trees form the two documented chains.

    Observer: {0,1} -a-> {2,5} -b-> {3,6} -a-> {4,7} -c-> {2,5}; secrets
    {2,7} make {2,5} and {4,7} the tree roots.
    """
    return validate_model(
        {
            "states": [str(i) for i in range(8)],
            "events": [
                {"name": "a", "observable": True},
                {"name": "b", "observable": True},
                {"name": "c", "observable": True},
                {"name": "d", "observable": False},
            ],
            "initial": ["0"],
            "secret": ["2", "7"],
            "transitions": [
                ["0", "d", "1"], ["0", "a", "2"], ["1", "a", "5"],
                ["2", "b", "3"], ["5", "b", "6"],
                ["3", "a", "4"], ["6", "a", "7"],
                ["4", "c", "2"], ["7", "c", "5"],
            ],
        }
    )


@pytest.fixture(scope="session")
def tagged_pattern():
    """A secret inside the initial closure: initial tags are {0_N, 1_Y}.

    Carries the documented tagged edges (0_N,a,2_N), (1_Y,a,2_Y),
    (2_Y,b,3_N) and the secret-unvisited chain
    ({0,1},{0}) -a-> ({2,4},{2,4}) -b-> ({3,5},{3,5}) -b-> ({3},{3}).
    """
    return validate_model(
        {
            "states": ["0", "1", "2", "3", "4", "5"],
            "events": [
                {"name": "a", "observable": True},
                {"name": "b", "observable": True},
                {"name": "c", "observable": True},
                {"name": "u", "observable": False},
            ],
            "initial": ["0"],
            "secret": ["1"],
            "transitions": [
                ["0", "u", "1"], ["0", "a", "2"], ["0", "a", "4"],
                ["1", "a", "2"], ["2", "b", "3"], ["4", "b", "5"],
                ["3", "b", "3"],
            ],
        }
    )


@pytest.fixture(scope="session")
def verifier_pattern():
    """Unobservable steps into secrets; the verifier's first move is
    (({0,1},{0,1}), a) -> ({2,3,5,6},{2,5})."""
    return validate_model(
        {
            "states": ["0", "1", "2", "3", "5", "6"],
            "events": [
                {"name": "a", "observable": True},
                {"name": "c", "observable": True},
                {"name": "b", "observable": False},
            ],
            "initial": ["0"],
            "secret": ["3", "6"],
            "transitions": [
                ["0", "b", "1"], ["0", "a", "2"], ["1", "a", "5"],
                ["2", "b", "3"], ["5", "b", "6"],
            ],
        }
    )


@pytest.fixture(scope="session")
def hidden_crossing():
    """Every run over the only observation crosses the secret in silence.

    The tree-based K-step strong check once reported opaque here, rooted
    only at the secret-intersecting {2,3}, while the definitional check
    found a violation; the search now also roots at the secret-free {1}
    and agrees.  Kept as the regression model of that divergence (see
    tests/fixtures/hidden_crossing.json).
    """
    return validate_model(hidden_crossing_dict())


def hidden_crossing_dict() -> dict:
    return {
        "states": ["0", "1", "2", "3"],
        "events": [
            {"name": "a", "observable": True},
            {"name": "e", "observable": True},
            {"name": "u", "observable": False},
        ],
        "initial": ["0"],
        "secret": ["2"],
        "transitions": [
            ["0", "a", "1"], ["1", "e", "2"], ["2", "u", "3"],
        ],
    }


def wide_chain_dict(m: int = 20, length: int = 12) -> dict:
    """m parallel chains behind one ``a`` step, as perfbench's wide-chain.

    Chain i steps from level j to j+1 on ``b`` when (i + j) % 4 == 0 and on
    ``c`` otherwise, and is secret at level i mod length.  Silent ``u``
    edges join chain i to chain i+1 at levels j with j % 3 == i % 3, which
    never cascade, and at every chain of level 5, which cascade into one
    silent run through the secrets c5_5 and c17_5.  With m = 20 the model
    has 241 states, past the byte-table steps, and its row table takes both
    the one-step closures and the full ones.
    """

    def node(i: int, j: int) -> str:
        return f"c{i}_{j}"

    transitions = [["i", "a", node(i, 0)] for i in range(m)]
    for i in range(m):
        for j in range(length - 1):
            transitions.append([node(i, j), "b" if (i + j) % 4 == 0 else "c", node(i, j + 1)])
        if i + 1 < m:
            transitions += [
                [node(i, j), "u", node(i + 1, j)] for j in range(length) if j % 3 == i % 3 or j == 5
            ]
    return {
        "states": ["i"] + [node(i, j) for i in range(m) for j in range(length)],
        "events": [{"name": e, "observable": True} for e in "abc"] + [{"name": "u", "observable": False}],
        "initial": ["i"],
        "secret": [node(i, i % length) for i in range(m)],
        "transitions": transitions,
    }


def structural_checks(nfa, seed, ks, result, obs, infinite):
    """The batch's structural checks on one model, after its verifier walk with edges."""
    edges = []
    _, walk = opaq.strong.walk_verifier(nfa, obs, edges=edges)
    opaq.crosscheck._structural_checks(nfa, seed, ks, result, obs, infinite, MaskEngine(nfa), walk, edges)
