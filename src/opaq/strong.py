"""K-step and infinite-step strong opacity.

K-step strong opacity is checked with secret-unvisited state trees (SSTs):
the first component carries the full estimate, the second the subset still
reachable by runs that avoided secrets at every step inside the window.
The verdict search roots an SST at every reachable estimate, secret-free
ones included, since a window may open before the secret it loses to.
Infinite-step strong opacity is checked with a verifier over pairs
(estimate, everywhere-secret-avoiding subset) built by a deterministic
worklist; emptiness of the second component certifies a violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .core import Nfa, StateSet, dot_quote, format_pair, row_table
from .observer import Observer, build_observer
from .projection import Sipa
from .weak import (
    StateTree,
    Verdict,
    Walk,
    _explore,
    _grow_tree,
    _tree_root,
    _verdict,
)


class VerifierState(NamedTuple):
    x1: StateSet
    x2: StateSet


@dataclass(frozen=True, eq=False)
class VerifierAutomaton:
    """Deterministic automaton over (estimate, secret-avoiding subset) pairs."""

    states: tuple[VerifierState, ...]
    initial: VerifierState
    transitions: dict[tuple[VerifierState, str], VerifierState]
    events: tuple[str, ...]

    def successors(self, state: VerifierState) -> tuple[tuple[str, VerifierState], ...]:
        return tuple(
            (e, self.transitions[(state, e)])
            for e in self.events
            if (state, e) in self.transitions
        )


# Second components step through the model's avoid rows, which are the
# tagged automaton's N-to-N edges, so no ``sipa`` argument below is read.
# The three entry points keep the parameter because perfbench/tests call
# them with a SIPA in that position.


def build_sst(
    nfa: Nfa, obs: Observer, root_state: StateSet, k: int, max_states: int | None = None
) -> StateTree:
    """Materialize the depth-K secret-unvisited state tree for one root.

    More than *max_states* nodes raise ResourceLimitError before anything
    is built.
    """
    i = _tree_root(nfa, obs, root_state, k, max_states)
    table = row_table(nfa)
    m = obs.masks[i]
    return _grow_tree(table, obs, (i, m, m & table.nonsecret), k, table.avoid_steps)


def verify_k_step_strong(
    nfa: Nfa,
    k: int,
    obs: Observer | None = None,
    sipa: Sipa | None = None,
    max_states: int | None = None,
) -> Verdict:
    """Opaque iff every SST node keeps its second component nonempty.

    The SSTs are rooted at every reachable estimate, with x2 its nonsecret
    part, down to depth K.  A step keeps x2 inside the new estimate's
    nonsecret part and is monotone, so moving the anchor earlier can only
    shrink x2: an x2 emptied at depth d <= K from a later anchor is also
    empty from the anchor K observations back (or from the initial
    estimate, when fewer observations precede it), which is the window of
    the definition.  The witness may therefore start at a secret-free
    estimate, which :func:`build_sst` does not accept as a root.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if obs is None:
        obs = build_observer(nfa)
    table = row_table(nfa)
    # Every estimate anchors a window, secret-free ones too: x2 is its
    # nonsecret part (secret visits before the window do not disqualify a
    # state).
    nonsecret = table.nonsecret
    walk, hit = _explore(
        obs, [m & nonsecret for m in obs.masks], table.avoid_steps, k, True,
        max_states=max_states, search="k-step strong search",
    )
    return _verdict(table, obs, walk, hit)


def _run_verifier(nfa: Nfa, obs: Observer | None, stop_at_empty: bool, **options) -> tuple:
    """(table, obs, walk, hit) of the verifier walk; *options* go to :func:`_explore`.

    The walk starts at the closed initial estimate, paired with the states
    whose initial tag is N: the all-nonsecret closure of the nonsecret
    initial states.
    """
    if obs is None:
        obs = build_observer(nfa)
    table = row_table(nfa)
    roots = [-1] * len(obs.masks)
    roots[0] = table.clean & obs.masks[0]
    walk, hit = _explore(obs, roots, table.avoid_steps, None, stop_at_empty, **options)
    return table, obs, walk, hit


def build_verifier(
    nfa: Nfa,
    obs: Observer | None = None,
    sipa: Sipa | None = None,
    max_states: int | None = None,
) -> VerifierAutomaton:
    """Worklist construction of the verifier.

    The initial state pairs the closed initial estimate with the states whose
    initial tag is N; each transition pairs the observer step with the
    N-to-N filtered step.  FIFO order over declaration-ordered events makes
    the state numbering deterministic; each (state, event) is examined once.
    It serves the verifier export and library callers; the crosscheck batch
    reads the walk itself (see :func:`_verifier_walk`).
    """
    edges: list[tuple[int, int, int]] = []
    table, obs, walk, _ = _run_verifier(nfa, obs, False, edges=edges, max_states=max_states)
    states = [VerifierState(obs.states[i], table.state_set(x2)) for i, x2 in zip(walk.estimate, walk.x2)]
    events = obs.events
    return VerifierAutomaton(
        states=tuple(states),
        initial=states[0],
        transitions={(states[n], events[e]): states[m] for n, e, m in edges},
        events=events,
    )


def verify_infinite_step_strong(nfa: Nfa, obs: Observer | None = None, sipa: Sipa | None = None) -> Verdict:
    """Walk the verifier without building it; stop at the first empty second component.

    The witness is the observation reaching the offending verifier state.
    """
    return _verdict(*_run_verifier(nfa, obs, True))


def _verifier_walk(
    nfa: Nfa, obs: Observer | None, edges: list[tuple[int, int, int]] | None = None, max_states: int | None = None
) -> tuple[Verdict, Walk]:
    """The infinite-step strong verdict and the verifier walk run to exhaustion.

    The walk visits the states of :func:`build_verifier` in its order,
    appending its edges to *edges* when given.  The first state whose
    second component is empty is the one :func:`verify_infinite_step_strong`
    stops at, so the verdict and witness are the same.  More than
    *max_states* states raise ResourceLimitError.
    """
    table, obs, walk, _ = _run_verifier(nfa, obs, False, edges=edges, max_states=max_states)
    try:
        hit = walk.x2.index(0)
    except ValueError:
        hit = None
    return _verdict(table, obs, walk, hit), walk


def walk_verifier(nfa: Nfa, obs: Observer | None = None, max_states: int | None = None) -> tuple[Verdict, int]:
    """The infinite-step strong verdict and the verifier's state count, in one walk without edges.

    More than *max_states* states raise ResourceLimitError.
    """
    verdict, walk = _verifier_walk(nfa, obs, max_states=max_states)
    return verdict, len(walk.x2)


def check_verifier_observer_language_equality(
    obs: Observer, ver: VerifierAutomaton
) -> tuple[bool, list[str]]:
    """First-component projection must be a functional bisimulation.

    The projection maps the reachable verifier onto the reachable observer,
    matching transitions exactly in both directions, which implies language
    equality with no bound.  Returns (ok, certificate); the certificate
    lists every offending state or edge.  This check is for library callers:
    the crosscheck batch checks its verifier walk, stepped by the oracle
    engine, with the same messages (``opaq.crosscheck._projection_problems``).
    """
    problems: list[str] = []
    if ver.initial.x1 != obs.initial:
        problems.append(
            f"initial mismatch: verifier {format_pair(*ver.initial)} vs observer "
            f"{format_pair(obs.initial, ())}"
        )
    observer_states = set(obs.states)
    covered = set()
    for state in ver.states:
        if state.x1 not in observer_states:
            problems.append(f"verifier state {format_pair(*state)} projects outside the observer")
            continue
        covered.add(state.x1)
        for event in dict.fromkeys(ver.events + obs.events):
            v_target = ver.transitions.get((state, event))
            o_target = obs.transitions.get((state.x1, event))
            if (v_target is None) != (o_target is None):
                problems.append(
                    f"transition definedness mismatch at {format_pair(*state)} on {event!r}"
                )
            elif v_target is not None and v_target.x1 != o_target:
                problems.append(
                    f"transition target mismatch at {format_pair(*state)} on {event!r}"
                )
    for state in obs.states:
        if state not in covered:
            problems.append(f"observer state {format_pair(state, ())} has no verifier preimage")
    return (not problems, problems)


def verifier_dot(ver: VerifierAutomaton) -> str:
    """Deterministic DOT rendering; one node per verifier state."""
    lines = ["digraph verifier {", "  rankdir=LR;"]
    for state in ver.states:
        label = dot_quote(format_pair(state.x1, state.x2))
        shape = "doublecircle" if state == ver.initial else "circle"
        lines.append(f"  {label} [shape={shape}];")
    for state in ver.states:
        for event, target in ver.successors(state):
            src, dst = dot_quote(format_pair(*state)), dot_quote(format_pair(*target))
            lines.append(f"  {src} -> {dst} [label={dot_quote(event)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
