"""Command-line front end: verify, export, crosscheck.

Exit codes: 0 opaque / zero disagreements, 1 not opaque / disagreements
or stdout closed before the output was written, 2 input error, 3 resource
limit exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .core import ModelError, ResourceLimitError, load_model
from .crosscheck import run_crosscheck
from .observer import build_observer, observer_dot
from .projection import build_projected_automaton, build_sipa, projected_dot, sipa_dot, sipa_state_count
from .strong import build_sst, build_verifier, verifier_dot, verify_k_step_strong, walk_verifier
from .weak import (
    build_weak_state_tree,
    tree_dot,
    tree_node_count,
    verdict_to_dict,
    verify_current_state_opacity,
    verify_infinite_step_weak,
    verify_k_step_weak,
)

PROPERTIES = ("cs", "k-weak", "k-strong", "inf-weak", "inf-strong")
STRUCTURES = ("observer", "projected", "sipa", "verifier", "weak-tree", "sst")
DEFAULT_STATE_CAP = 2**20


def _color_enabled() -> bool:
    mode = os.environ.get("OPAQ_COLOR", "auto")
    if mode == "always":
        return True
    if mode == "never":
        return False
    return sys.stdout.isatty()


def _paint(text: str, good: bool) -> str:
    if not _color_enabled():
        return text
    code = "32" if good else "31"
    return f"\x1b[{code}m{text}\x1b[0m"


def _parse_k_range(text: str) -> tuple[int, ...]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return tuple(range(int(lo), int(hi) + 1))
    return (int(text),)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="opaq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="check an opacity property of a model")
    verify.add_argument("--property", required=True, choices=PROPERTIES)
    verify.add_argument("--k", type=int, default=None)
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.add_argument("--state-cap", type=int, default=DEFAULT_STATE_CAP,
                        help="cap on the states of the observer and of each search "
                        "(exit 3 when exceeded)")
    verify.add_argument("model")

    export = sub.add_parser("export", help="emit a structure as DOT on stdout")
    export.add_argument("--structure", required=True, choices=STRUCTURES)
    export.add_argument("--root", default=None,
                        help='root estimate for trees: comma-separated, or a JSON array such as \'["a,b","c"]\'')
    export.add_argument("--k", type=int, default=None)
    export.add_argument("--state-cap", type=int, default=DEFAULT_STATE_CAP,
                        help="cap on the observer and the exported structure (exit 3 when exceeded)")
    export.add_argument("model")

    cross = sub.add_parser("crosscheck", help="seeded random-model agreement batch")
    cross.add_argument("--models", type=int, default=500)
    cross.add_argument("--max-states", type=int, default=5)
    cross.add_argument("--k", type=_parse_k_range, default=(0, 1, 2, 3),
                       help="single K or an inclusive range like 0..3")
    cross.add_argument("--seed", type=int, default=7)
    cross.add_argument("--report", default="crosscheck_report.jsonl")
    cross.add_argument("--fixtures-dir", default="divergences")
    cross.add_argument("--no-structural", action="store_true",
                       help="skip structural cap and projection checks")
    return parser


def _run_verify(args) -> int:
    if args.property in ("k-weak", "k-strong"):
        if args.k is None:
            print("error: --k is required for k-weak and k-strong", file=sys.stderr)
            return 2
        if args.k < 0:
            print("error: --k must be nonnegative", file=sys.stderr)
            return 2
    elif args.k is not None:
        print(f"warning: --k is ignored for property {args.property}", file=sys.stderr)

    nfa = load_model(args.model)
    cap = args.state_cap
    obs = build_observer(nfa, max_states=cap)
    # Every size is counted off the row table or a walk the verdict needs;
    # no structure is built only to be measured.
    sizes = {"observer_states": len(obs.masks)}
    if args.property in ("k-strong", "inf-strong"):
        sizes["sipa_states"] = sipa_state_count(nfa)
    if args.property == "cs":
        verdict = verify_current_state_opacity(nfa, obs)
    elif args.property == "k-weak":
        verdict = verify_k_step_weak(nfa, args.k, obs, cap)
    elif args.property == "inf-weak":
        verdict = verify_infinite_step_weak(nfa, obs, cap)
    elif args.property == "k-strong":
        verdict = verify_k_step_strong(nfa, args.k, obs, max_states=cap)
    else:
        verdict, sizes["verifier_states"] = walk_verifier(nfa, obs, cap)

    if args.property in ("k-weak", "k-strong", "cs"):
        # Weak trees and SSTs have the same shape, so one count serves both.
        # The count stops past the state cap, which bounds its work and its
        # digits, and then reads ">cap".
        nodes = tree_node_count(nfa, obs, args.k if args.property != "cs" else 0, cap)
        sizes["tree_nodes"] = nodes if nodes <= cap else f">{cap}"

    payload = verdict_to_dict(args.property, args.k, verdict)
    payload["sizes"] = sizes
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        word = "opaque" if verdict.opaque else "not opaque"
        print(_paint(word, verdict.opaque))
        if verdict.witness is not None:
            w = verdict.witness
            print(f"witness prefix: {' '.join(w.prefix) or '(empty)'}")
            print(f"witness continuation: {' '.join(w.continuation) or '(empty)'}")
        for key, value in sizes.items():
            print(f"{key}: {value}")
    return 0 if verdict.opaque else 1


def _run_export(args) -> int:
    nfa = load_model(args.model)
    if args.structure == "projected":
        print(projected_dot(build_projected_automaton(nfa)), end="")
        return 0
    if args.structure == "sipa":
        print(sipa_dot(build_sipa(nfa)), end="")
        return 0
    obs = build_observer(nfa, max_states=args.state_cap)
    if args.structure == "observer":
        print(observer_dot(obs), end="")
        return 0
    if args.structure == "verifier":
        print(verifier_dot(build_verifier(nfa, obs, max_states=args.state_cap)), end="")
        return 0
    if args.root is None or args.k is None:
        print("error: --root and --k are required for tree exports", file=sys.stderr)
        return 2
    # A JSON array of names, else the comma form (which keeps names like "[x").
    try:
        names = json.loads(args.root)
    except ValueError:
        names = None
    if not (isinstance(names, list) and all(isinstance(name, str) for name in names)):
        names = [t.strip() for t in args.root.split(",")]
    root = nfa.state_set(names)
    if root not in obs.index:
        print(f"error: root {args.root!r} is not a reachable observer state", file=sys.stderr)
        return 2
    if args.structure == "weak-tree":
        print(tree_dot(build_weak_state_tree(nfa, obs, root, args.k, args.state_cap), "weak_tree"), end="")
    else:
        print(tree_dot(build_sst(nfa, obs, root, args.k, args.state_cap), "sst"), end="")
    return 0


def _run_crosscheck(args) -> int:
    if args.models < 1 or args.max_states < 1:
        print("error: --models and --max-states must be positive", file=sys.stderr)
        return 2
    if any(k < 0 for k in args.k):
        print("error: K values must be nonnegative", file=sys.stderr)
        return 2
    result = run_crosscheck(
        models=args.models,
        max_states=args.max_states,
        ks=tuple(args.k),
        seed=args.seed,
        report_path=args.report,
        fixtures_dir=args.fixtures_dir,
        structural=not args.no_structural,
        state_cap=DEFAULT_STATE_CAP,
    )
    checks = len(result.rows)
    bad = len(result.disagreements)
    print(f"models: {result.models}  checks: {checks}  disagreements: {bad}")
    for failure in result.structural_failures:
        print(f"structural: {failure}")
    for path in result.divergence_fixtures:
        print(f"divergence fixture written: {path}")
    print(f"report: {args.report}")
    ok = result.ok
    print(_paint("agreement: 100%" if ok else "agreement: FAILED", ok))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command != "crosscheck" and args.state_cap < 1:
            print("error: --state-cap must be positive", file=sys.stderr)
            code = 2
        elif args.command == "verify":
            code = _run_verify(args)
        elif args.command == "export":
            code = _run_export(args)
        else:
            code = _run_crosscheck(args)
        # Flushed here, so that a closed pipe is caught below rather than
        # at interpreter exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away (``opaq ... | head``).  Output still buffered
        # goes to devnull, so the exit-time flush cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ModelError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
