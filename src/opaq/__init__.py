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
    nonsecret_unobservable_reach,
    observable_events_at,
    observable_reach,
    project,
    secret_avoiding_reach,
    step,
    unobservable_reach,
    validate_model,
)
from .observer import Observer, build_observer, observer_dot, observer_state_after
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
    ProjectedAutomaton,
    Sipa,
    TaggedState,
    build_projected_automaton,
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
    check_verifier_observer_language_equality,
    verifier_dot,
    verify_infinite_step_strong,
    verify_k_step_strong,
    walk_verifier,
)
from .weak import (
    StateTree,
    TreeNode,
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
