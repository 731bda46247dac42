#!/usr/bin/env python3
"""Render every structure of a model to DOT files in an output directory.

Usage: python3 scripts/export_structures.py models/g2.json out/
Tree exports are produced for every secret-intersecting root at depth 2.
"""

from __future__ import annotations

import os
import sys

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
    verifier_dot,
)


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    nfa = load_model(sys.argv[1])
    out = sys.argv[2]
    os.makedirs(out, exist_ok=True)
    obs = build_observer(nfa)

    def write(name: str, text: str) -> None:
        path = os.path.join(out, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(path)

    write("observer.dot", observer_dot(obs))
    write("projected.dot", projected_dot(nfa))
    write("sipa.dot", sipa_dot(build_sipa(nfa)))
    write("verifier.dot", verifier_dot(build_verifier(nfa, obs)))
    for i, root in enumerate(obs.states[j] for j in obs.secret_positions):
        write(f"weak_tree_{i}.dot", tree_dot(build_weak_state_tree(nfa, obs, root, 2), "weak_tree"))
        write(f"sst_{i}.dot", tree_dot(build_sst(nfa, obs, root, 2), "sst"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
