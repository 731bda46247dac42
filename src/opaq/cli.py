"""Command-line front end: verify, export, crosscheck.

Exit codes: 0 opaque / zero disagreements, 1 not opaque / disagreements
or stdout closed before the output was written, 2 input error, 3 resource
limit exceeded.

Each command parses its arguments with a parser that holds that command's
arguments alone, built from the ``COMMANDS`` table. The full three-command
parser, built from the same table, answers the rest: no arguments, top-level
help, an unknown command, and any argument the command's parser leaves over.
Every help, usage and error text is therefore the full parser's.  A
command's parser is built once per process and reused by every later call,
which takes an in-process ``verify`` on a crosscheck-size model from about
0.29 ms to 0.13 ms.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .core import ModelError, ResourceLimitError, load_model
from .crosscheck import run_crosscheck
from .observer import build_observer, observer_dot
from .projection import build_sipa, projected_dot, sipa_dot, sipa_state_count
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
# ``opaq --help`` shows the docstring up to the note on parsing.
DESCRIPTION = "\n\n".join(__doc__.split("\n\n")[:2]) if __doc__ else None


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
    lo, sep, hi = text.partition("..")
    try:
        lo = int(lo)
        hi = int(hi) if sep else lo
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a K such as 3 or an inclusive range such as 0..3, got {text!r}"
        ) from None
    # Checked before the range is built, so a huge one costs nothing.
    if hi - lo >= DEFAULT_STATE_CAP:
        raise argparse.ArgumentTypeError(
            f"the range {text} holds {hi - lo + 1} K values; at most {DEFAULT_STATE_CAP} are allowed"
        )
    return tuple(range(lo, hi + 1))


def _verify_arguments(verify: argparse.ArgumentParser) -> None:
    verify.add_argument("--property", required=True, choices=PROPERTIES)
    verify.add_argument("--k", type=int, default=None)
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.add_argument("--state-cap", type=int, default=DEFAULT_STATE_CAP,
                        help="cap on the states of the observer and of each search "
                        "(exit 3 when exceeded)")
    verify.add_argument("model")


def _export_arguments(export: argparse.ArgumentParser) -> None:
    export.add_argument("--structure", required=True, choices=STRUCTURES)
    export.add_argument("--root", default=None,
                        help='root estimate for trees: comma-separated, or a JSON array such as \'["a,b","c"]\'')
    export.add_argument("--k", type=int, default=None)
    export.add_argument("--state-cap", type=int, default=DEFAULT_STATE_CAP,
                        help="cap on the observer and the exported structure (exit 3 when exceeded)")
    export.add_argument("model")


def _crosscheck_arguments(cross: argparse.ArgumentParser) -> None:
    cross.add_argument("--models", type=int, default=500)
    cross.add_argument("--max-states", type=int, default=5)
    cross.add_argument("--k", type=_parse_k_range, default=(0, 1, 2, 3),
                       help="single K or an inclusive range like 0..3")
    cross.add_argument("--seed", type=int, default=7)
    cross.add_argument("--report", default="crosscheck_report.jsonl")
    cross.add_argument("--fixtures-dir", default="divergences")


# Command name -> (help text, the function that adds its arguments).
COMMANDS = {
    "verify": ("check an opacity property of a model", _verify_arguments),
    "export": ("emit a structure as DOT on stdout", _export_arguments),
    "crosscheck": ("seeded random-model agreement batch", _crosscheck_arguments),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="opaq", description=DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, add_arguments) in COMMANDS.items():
        add_arguments(sub.add_parser(name, help=text))
    return parser


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """A parser of command *name*'s arguments alone, with its subparser's prog
    and empty description.  Help is formatted when printed, at ``COLUMNS``."""
    parser = argparse.ArgumentParser(prog=f"opaq {name}")
    COMMANDS[name][1](parser)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """*argv* parsed as ``_build_parser()`` parses it, with the texts it prints.

    A known command is parsed by its :func:`_command_parser`, into a fresh
    Namespace.  Anything it leaves over goes, with the rest, to the full
    parser, whose ``unrecognized arguments`` error shows the top-level usage.
    """
    if argv and argv[0] in COMMANDS:
        parser = _command_parser(argv[0])
        args, rest = parser.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return _build_parser().parse_args(argv)


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
        args.k = None  # the verdict uses no K, and the JSON says so

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
        verdict, walk = walk_verifier(nfa, obs, cap)
        sizes["verifier_states"] = len(walk.x2)

    if args.property in ("k-weak", "k-strong", "cs"):
        # Weak trees and SSTs have the same shape, so one count serves both.
        # The count stops past the state cap, which bounds its work and its
        # digits, and then reads ">cap".
        nodes = tree_node_count(obs, args.k if args.property != "cs" else 0, cap)
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
        print(projected_dot(nfa), end="")
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
    # A JSON array of names, else the comma form (which keeps names like "[x"
    # and input nested too deeply for the JSON parser).
    try:
        names = json.loads(args.root)
    except (RecursionError, ValueError):
        names = None
    if not (isinstance(names, list) and all(isinstance(name, str) for name in names)):
        names = [t.strip() for t in args.root.split(",")]
    root = nfa.state_set(names)
    if args.structure == "weak-tree":
        print(tree_dot(build_weak_state_tree(nfa, obs, root, args.k, args.state_cap), "weak_tree"), end="")
    else:
        print(tree_dot(build_sst(nfa, obs, root, args.k, args.state_cap), "sst"), end="")
    return 0


def _run_crosscheck(args) -> int:
    if args.models < 1 or args.max_states < 1:
        print("error: --models and --max-states must be positive", file=sys.stderr)
        return 2
    if args.max_states > DEFAULT_STATE_CAP:
        print(f"error: --max-states must be at most {DEFAULT_STATE_CAP}", file=sys.stderr)
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
    args = _parse(sys.argv[1:] if argv is None else argv)
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
    except OSError as exc:
        # A report or fixture path that cannot be written.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ModelError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
