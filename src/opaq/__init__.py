"""Opacity verification for partially observed nondeterministic automata."""

from .core import (
    Event,
    EventString,
    ModelError,
    Nfa,
    ObservationString,
    ResourceLimitError,
    StateSet,
    load_model,
    model_to_dict,
    validate_model,
)
from .observer import Observer, build_observer, observer_dot
from .oracle import (
    OracleConfig,
    OracleVerdict,
    oracle_current_state,
    oracle_infinite_step_strong,
    oracle_infinite_step_weak,
    oracle_k_step_strong,
    oracle_k_step_weak,
    random_nfa,
)
from .projection import (
    Sipa,
    TaggedState,
    build_sipa,
    projected_dot,
    sipa_dot,
    sipa_state_count,
)
from .strong import (
    VerifierAutomaton,
    VerifierState,
    build_sst,
    build_verifier,
    verifier_dot,
    verify_infinite_step_strong,
    verify_k_step_strong,
    walk_verifier,
)
from .weak import (
    StateTree,
    Verdict,
    Witness,
    build_weak_state_tree,
    tree_dot,
    tree_node_count,
    verdict_to_dict,
    verify_current_state_opacity,
    verify_infinite_step_weak,
    verify_k_step_weak,
)

__all__ = [name for name in dir() if not name.startswith("_")]
