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

from typing import NamedTuple

from .core import Nfa, StateSet, dot_graph, format_pair, row_table
from .observer import Observer, build_observer
from .projection import Sipa
from .weak import (
    StateTree,
    Verdict,
    Walk,
    _explore,
    _grow_tree,
    _search,
    _tree_root,
    _verdict,
)


class VerifierState(NamedTuple):
    x1: StateSet
    x2: StateSet


class VerifierAutomaton:
    """Deterministic automaton over (estimate, secret-avoiding subset) pairs."""

    def __init__(
        self, states: tuple[VerifierState, ...], initial: VerifierState,
        transitions: dict[tuple[VerifierState, str], VerifierState], events: tuple[str, ...],
    ) -> None:
        self.states, self.initial, self.transitions, self.events = states, initial, transitions, events


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
    table, i, m = _tree_root(nfa, obs, root_state, k, max_states)
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
    # The weak searches' walk, by the same root rule: every estimate roots
    # a window at its nonsecret part (secret visits before the window do
    # not disqualify a state), and a root is dropped exactly when a child
    # would be.  No SST pair is dead, so only the avoid core drops any.
    return _search(nfa, obs, k, False, max_states, "k-step strong search")


def walk_verifier(
    nfa: Nfa,
    obs: Observer | None = None,
    max_states: int | None = None,
    *,
    edges: list[tuple[int, int, int]] | None = None,
) -> tuple[Verdict, Walk]:
    """The infinite-step strong verdict and the verifier walk.

    This one walk is behind :func:`build_verifier`,
    :func:`verify_infinite_step_strong`, ``opaq verify --property
    inf-strong`` and the crosscheck batch.  It starts at the closed initial
    estimate, paired with the states whose initial tag is N: the
    all-nonsecret closure of the nonsecret initial states; each move pairs
    the observer step with the N-to-N filtered step.  FIFO order over
    declaration-ordered events numbers the states deterministically: node n
    is the verifier state (``obs.states[walk.estimate[n]]``, ``walk.x2[n]``).
    The walk runs to exhaustion, appending its edges to *edges* when given.
    On a model of 9 to 16 states it reads the avoid rows' byte tables
    (``RowTable.avoid_tables``) inline instead of calling ``avoid_steps``,
    as the K-step strong search does.  Its first state whose second
    component is empty gives the verdict and its witness, the observation
    reaching it.  More than *max_states* states raise ResourceLimitError.
    """
    if obs is None:
        obs = build_observer(nfa)
    table = row_table(nfa)
    walk, _ = _explore(
        obs, [0], [table.clean & obs.masks[0]], table.avoid_steps, None, False,
        tables=table.avoid_tables, edges=edges, max_states=max_states,
    )
    hit = walk.x2.index(0) if 0 in walk.x2 else None
    return _verdict(table, obs, walk, hit), walk


def build_verifier(
    nfa: Nfa,
    obs: Observer | None = None,
    sipa: Sipa | None = None,
    max_states: int | None = None,
) -> VerifierAutomaton:
    """The verifier automaton: the states and edges of :func:`walk_verifier`, in walk order.

    It serves the verifier export and library callers; the crosscheck batch
    reads the walk itself.
    """
    if obs is None:
        obs = build_observer(nfa)
    edges: list[tuple[int, int, int]] = []
    _, walk = walk_verifier(nfa, obs, max_states, edges=edges)
    name = row_table(nfa).state_set
    states = [VerifierState(obs.states[i], name(x2)) for i, x2 in zip(walk.estimate, walk.x2)]
    events = obs.events
    return VerifierAutomaton(
        states=tuple(states),
        initial=states[0],
        transitions={(states[n], events[e]): states[m] for n, e, m in edges},
        events=events,
    )


def verify_infinite_step_strong(
    nfa: Nfa, obs: Observer | None = None, sipa: Sipa | None = None, max_states: int | None = None
) -> Verdict:
    """The verdict of :func:`walk_verifier`, read off the whole verifier walk.

    The witness is the observation reaching its first verifier state whose
    second component is empty.  More than *max_states* verifier states raise
    ResourceLimitError.
    """
    return walk_verifier(nfa, obs, max_states)[0]


def verifier_dot(ver: VerifierAutomaton) -> str:
    """Deterministic DOT rendering; one node per verifier state (see :func:`dot_graph`).

    Edges are listed by source state, then by event, whatever the order of
    ``ver.transitions``.
    """
    index = {state: i for i, state in enumerate(ver.states)}
    moves = ver.transitions
    return dot_graph(
        "verifier", "LR",
        [format_pair(state.x1, state.x2) for state in ver.states],
        ["doublecircle" if state == ver.initial else "circle" for state in ver.states],
        [(i, e, index[moves[s, e]]) for i, s in enumerate(ver.states) for e in ver.events if (s, e) in moves],
    )
