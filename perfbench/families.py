"""Deterministic model families that scale, as raw model dicts.

Each family function takes a permutation seed that shuffles the declaration
order of states and transitions.  Verdicts do not depend on that order, so one
pinned verdict table serves every seed.  Nothing here imports ``opaq``: the models
reach the program only through files, the way a user hands them over.
"""

from __future__ import annotations

import random

PROPERTIES = ("cs", "k-weak", "k-strong", "inf-weak", "inf-strong")

NTH_LAST_N = 12
NTH_LAST_K = 2
WIDE_CHAINS = 200
WIDE_LENGTH = 12
WIDE_K = 3

# nth-last: state 0 and its silent neighbour s lie in every estimate and are
# nonsecret, and 0 loops on both events, so every observation is matched by
# a secret-free run that stays at 0.  All five properties therefore hold.
# (The oracle is not used here: its infinite-step weak search takes minutes.)
# wide-chain: taken once from opaq.oracle (exact verdicts), never from the
# constructions under test.
EXPECTED = {
    "nth-last": {p: True for p in PROPERTIES},
    "wide-chain": {
        "cs": True,
        "k-weak": False,
        "k-strong": False,
        "inf-weak": False,
        "inf-strong": False,
    },
}


def _events(observable: str, silent: str) -> list[dict]:
    return [{"name": e, "observable": True} for e in observable] + [
        {"name": e, "observable": False} for e in silent
    ]


def _permuted(model: dict, seed: int) -> dict:
    rng = random.Random(seed)
    rng.shuffle(model["states"])
    rng.shuffle(model["transitions"])
    return model


def nth_last(n: int = NTH_LAST_N, seed: int = 0) -> dict:
    """The n-th-from-last-symbol automaton with a silent side branch.

    States ``0..n`` and ``s``; ``0`` loops on ``a`` and ``b``, guesses the
    n-th-from-last ``a`` with ``0 -a-> 1``, then counts ``i -a,b-> i+1``.
    ``n`` is secret.  ``0 -u-> s -a-> 0`` adds a silent detour.  The observer
    has 2^n estimates, the tagged automaton n+2 states and the verifier 2^n.
    """
    transitions = [["0", "a", "0"], ["0", "b", "0"], ["0", "a", "1"]]
    for i in range(1, n):
        transitions += [[str(i), "a", str(i + 1)], [str(i), "b", str(i + 1)]]
    transitions += [["0", "u", "s"], ["s", "a", "0"]]
    return _permuted(
        {
            "states": [str(i) for i in range(n + 1)] + ["s"],
            "events": _events("ab", "u"),
            "initial": ["0"],
            "secret": [str(n)],
            "transitions": transitions,
        },
        seed,
    )


def wide_chain(m: int = WIDE_CHAINS, length: int = WIDE_LENGTH, seed: int = 0) -> dict:
    """m parallel chains of the given length behind one ``a`` step.

    Chain i steps from level j to j+1 on ``b`` when (i + j) % 4 == 0 and on
    ``c`` otherwise.  A silent ``u`` edge joins chain i to chain i+1 at every
    third level, staggered (levels j with j % 3 == i % 3) so that silent runs
    never cascade along the chains.  Chain i is secret at level i mod length.
    The estimates are few but wide; the per-state work of the tagged
    automaton and of model validation dominates.
    """
    def node(i: int, j: int) -> str:
        return f"c{i}_{j}"

    transitions = [["i", "a", node(i, 0)] for i in range(m)]
    for i in range(m):
        for j in range(length - 1):
            transitions.append([node(i, j), "b" if (i + j) % 4 == 0 else "c", node(i, j + 1)])
        if i + 1 < m:
            transitions += [
                [node(i, j), "u", node(i + 1, j)] for j in range(length) if j % 3 == i % 3
            ]
    return _permuted(
        {
            "states": ["i"] + [node(i, j) for i in range(m) for j in range(length)],
            "events": _events("abc", "u"),
            "initial": ["i"],
            "secret": [node(i, i % length) for i in range(m)],
            "transitions": transitions,
        },
        seed,
    )
