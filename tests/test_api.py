"""The public API, pinned name by name, so that a change to it shows in the diff."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys

import opaq
import opaq.strong

PUBLIC = [
    "Event", "EventString", "ModelError", "Nfa", "ObservationString", "Observer", "OracleConfig",
    "OracleVerdict", "ResourceLimitError", "Sipa", "StateSet", "StateTree",
    "TaggedState", "Verdict", "VerifierAutomaton", "VerifierState", "Witness",
    "build_observer", "build_sipa", "build_sst", "build_verifier",
    "build_weak_state_tree", "core", "load_model", "model_to_dict", "observer", "observer_dot", "oracle",
    "oracle_current_state", "oracle_infinite_step_strong", "oracle_infinite_step_weak",
    "oracle_k_step_strong", "oracle_k_step_weak", "projected_dot", "projection", "random_nfa",
    "sipa_dot", "sipa_state_count", "strong", "tree_dot", "tree_node_count", "validate_model",
    "verdict_to_dict", "verifier_dot", "verify_current_state_opacity", "verify_infinite_step_strong",
    "verify_infinite_step_weak", "verify_k_step_strong", "verify_k_step_weak", "walk_verifier", "weak",
]

# The set-based reference semantics, now in tests/reference.py.
MOVED = [
    "project", "step", "_silent_closure", "unobservable_reach", "observable_reach",
    "observable_events_at", "nonsecret_unobservable_reach", "secret_avoiding_reach",
    "observer_state_after",
]


def test_the_public_api_is_pinned():
    assert sorted(opaq.__all__) == PUBLIC


def test_the_reference_primitives_are_not_in_the_library():
    for module in ("opaq", "opaq.core", "opaq.observer"):
        imported = importlib.import_module(module)
        assert [name for name in MOVED if hasattr(imported, name)] == [], module
    assert not hasattr(opaq.Observer, "successors")
    assert [view for view in ("_step", "_silent", "is_observable", "event_declared") if hasattr(opaq.Nfa, view)] == []
    for name in ("check_verifier_observer_language_equality", "_run_verifier", "_verifier_walk"):
        assert not hasattr(opaq.strong, name)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # A fresh interpreter pays for every module an import pulls in, and
    # dataclasses (which imports inspect) costs about twice the rest of
    # opaq.cli.  -S keeps whatever site's start-up imports out of the count.
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, opaq.cli; print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
