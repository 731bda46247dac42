"""Projected automaton over observable events, and its secret-involved variant.

The secret-involved projected automaton (SIPA) tags each state with N or Y:
a step into ``x'_N`` means the step can be realized by a run whose every
post-event state is nonsecret, while ``x'_Y`` means a secret was definitely
visited on the step.  Only the N-to-N fragment feeds the strong-opacity
constructions downstream.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, NamedTuple

from .core import Nfa, RowTable, StateSet, bits, dot_graph, row_table

TAG_N = "N"
TAG_Y = "Y"


class TaggedState(NamedTuple):
    base: str
    tag: str

    def label(self) -> str:
        return f"{self.base}_{self.tag}"


class ProjectedAutomaton:
    """NFA over observable events whose edges are observable-reach steps."""

    def __init__(
        self, states: tuple[str, ...], initial: StateSet, events: tuple[str, ...],
        transitions: tuple[tuple[str, str, str], ...],
    ) -> None:
        self.states, self.initial, self.events, self.transitions = states, initial, events, transitions

    @property
    def transition_count(self) -> int:
        return len(self.transitions)


class Sipa:
    """Secret-involved projected automaton.

    ``states`` and ``transitions`` hold the tagged states reachable from
    the initial set.  The N-to-N relation itself is the row table's avoid
    rows, which tree and verifier steps read directly.
    """

    def __init__(
        self, states: tuple[TaggedState, ...], initial: tuple[TaggedState, ...], events: tuple[str, ...],
        transitions: tuple[tuple[TaggedState, str, TaggedState], ...],
    ) -> None:
        self.states, self.initial, self.events, self.transitions = states, initial, events, transitions


def build_projected_automaton(nfa: Nfa) -> ProjectedAutomaton:
    """One observable-event NFA over the same state set.

    An edge (x, e, x') is present exactly when x' lies in the observable
    reach of {x} under e: the model's reach rows.
    """
    table = row_table(nfa)
    states = nfa.states
    transitions = []
    for x, name in enumerate(states):
        for event, rows in zip(table.events, table.reach):
            for target in bits(rows[x]):
                transitions.append((name, event, states[target]))
    return ProjectedAutomaton(
        states=states,
        initial=table.state_set(table.initial),
        events=table.events,
        transitions=tuple(transitions),
    )


def build_sipa(nfa: Nfa) -> Sipa:
    """Tagged-state automaton over observable events, trimmed to its reachable states.

    Transitions follow the two-case rule: from a nonsecret base x, a target
    x' reached secret-avoidingly yields (x_N,e,x'_N) and (x_Y,e,x'_N),
    otherwise (x_N,e,x'_Y) and (x_Y,e,x'_Y); from a secret base only
    (x_Y,e,x'_Y).  A tagged state with tag N therefore never has a secret
    base.  Targets come from the model's reach rows, N tags from its avoid
    rows.

    The initial tagged states are the closed initial estimate, each base
    tagged N exactly when some nonsecret initial state reaches it by an
    all-nonsecret unobservable run, and Y otherwise.
    """
    table = row_table(nfa)
    states = nfa.states
    # Tagged state x_N has id 2x and x_Y id 2x+1, so ascending ids follow
    # (declaration order, tag) order.
    tagged = [TaggedState(name, tag) for name in states for tag in (TAG_N, TAG_Y)]
    initial_ids = [2 * x + (0 if table.clean >> x & 1 else 1) for x in bits(table.initial)]
    edges: list[tuple[int, int, int]] = []
    for x in range(len(states)):
        secret_base = table.secret >> x & 1
        for e, rows in enumerate(table.reach):
            targets = rows[x]
            if not targets:
                continue
            if secret_base:
                edges.extend((2 * x + 1, e, 2 * t + 1) for t in bits(targets))
                continue
            avoiding = table.avoid[e][x]
            for t in bits(targets):
                dst = 2 * t + (0 if avoiding >> t & 1 else 1)
                edges += ((2 * x, e, dst), (2 * x + 1, e, dst))

    by_src: dict[int, list[int]] = {}
    for src, _, dst in edges:
        by_src.setdefault(src, []).append(dst)
    reachable = set(initial_ids)
    queue = deque(initial_ids)
    while queue:
        for dst in by_src.get(queue.popleft(), ()):
            if dst not in reachable:
                reachable.add(dst)
                queue.append(dst)
    events = table.events
    return Sipa(
        states=tuple(tagged[i] for i in sorted(reachable)),
        initial=tuple(tagged[i] for i in initial_ids),
        events=events,
        transitions=tuple((tagged[src], events[e], tagged[dst]) for src, e, dst in edges if src in reachable),
    )


def _sipa_tags(table: RowTable) -> tuple[int, int]:
    # The bases of the trimmed SIPA's N-tagged and Y-tagged states, as masks.
    reached = frontier = table.initial
    while frontier:
        step = 0
        for reach in table.reach_steps:
            step |= reach(frontier)
        frontier = step & ~reached
        reached |= frontier
    tag_n = table.clean & table.initial
    tag_y = table.initial & ~table.clean
    for rows, avoid, movers in zip(table.reach, table.avoid, table.support):
        for x in bits(reached & movers):
            tag_n |= avoid[x]
            tag_y |= rows[x] & ~avoid[x]
    return tag_n, tag_y


def sipa_state_count(nfa: Nfa) -> int:
    """Number of states of :func:`build_sipa`, counted without building it.

    Every tagged state over a base reached by the projected automaton has
    that base's outgoing edges (a secret base has only its Y tag), so the
    reachable bases are the projected automaton's.  A reachable tagged state
    is then an initial one or the target of an edge from a reachable base:
    N-tagged along an avoid row, Y-tagged along the rest of the reach row.
    Both rows are empty outside the event's support, so only the reached
    bases that move under it are read.
    """
    return sum(tags.bit_count() for tags in _sipa_tags(row_table(nfa)))


def sipa_size(nfa: Nfa) -> tuple[int, int]:
    """States and transitions of :func:`build_sipa`, counted without building it.

    A tagged state has one edge per member of its base's reach row, so the
    transitions sum those members over the states :func:`sipa_state_count` counts.
    """
    table = row_table(nfa)
    tags = _sipa_tags(table)
    transitions = sum(
        rows[x].bit_count() for rows, movers in zip(table.reach, table.support) for t in tags for x in bits(t & movers)
    )
    return sum(t.bit_count() for t in tags), transitions


def _automaton_dot(name: str, states: tuple, initial: tuple, transitions: tuple, label: Callable) -> str:
    index = {state: i for i, state in enumerate(states)}
    start = set(initial)
    return dot_graph(
        name, "LR",
        [label(state) for state in states],
        ["doublecircle" if state in start else "circle" for state in states],
        [(index[src], event, index[dst]) for src, event, dst in transitions],
    )


def projected_dot(pa: ProjectedAutomaton) -> str:
    return _automaton_dot("projected", pa.states, pa.initial, pa.transitions, str)


def sipa_dot(sipa: Sipa) -> str:
    return _automaton_dot("sipa", sipa.states, sipa.initial, sipa.transitions, TaggedState.label)
