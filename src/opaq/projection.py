"""Projected automaton over observable events, and its secret-involved variant.

The projected automaton is the model's reach rows: an edge (x, e, x') is
present exactly when x' lies in the observable reach of {x} under e.
The secret-involved projected automaton (SIPA) tags each state with N or Y:
a step into ``x'_N`` means the step can be realized by a run whose every
post-event state is nonsecret, while ``x'_Y`` means a secret was definitely
visited on the step.  Only the N-to-N fragment feeds the strong-opacity
constructions downstream.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import Nfa, RowTable, bits, dot_graph, row_table

TAG_N = "N"
TAG_Y = "Y"


class TaggedState(NamedTuple):
    base: str
    tag: str

    def label(self) -> str:
        return f"{self.base}_{self.tag}"


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


def build_sipa(nfa: Nfa) -> Sipa:
    """Tagged-state automaton over observable events, trimmed to its reachable states.

    Transitions follow the two-case rule: from a nonsecret base x, a target
    x' reached secret-avoidingly yields (x_N,e,x'_N) and (x_Y,e,x'_N),
    otherwise (x_N,e,x'_Y) and (x_Y,e,x'_Y); from a secret base only
    (x_Y,e,x'_Y).  A tagged state with tag N therefore never has a secret
    base.  Targets come from the model's reach rows, N tags from its avoid
    rows, which are empty at a secret base.

    The initial tagged states are the closed initial estimate, each base
    tagged N exactly when some nonsecret initial state reaches it by an
    all-nonsecret unobservable run, and Y otherwise.  The reachable tagged
    states are those :func:`sipa_state_count` counts; edges leave them by
    base, event and target, the N source before the Y source.
    """
    table = row_table(nfa)
    names, events = nfa.states, table.events
    tag_n, tag_y = _sipa_tags(table)
    # Tagged state x_N has id 2x and x_Y id 2x+1, so ascending ids follow
    # (declaration order, tag) order.
    tagged = {2 * x: TaggedState(names[x], TAG_N) for x in bits(tag_n)}
    tagged.update((2 * x + 1, TaggedState(names[x], TAG_Y)) for x in bits(tag_y))
    transitions = []
    for x in bits(tag_n | tag_y):
        sources = [tagged[i] for i in (2 * x, 2 * x + 1) if i in tagged]
        for event, rows, avoid in zip(events, table.reach, table.avoid):
            for t in bits(rows[x]):
                dst = tagged[2 * t + (0 if avoid[x] >> t & 1 else 1)]
                transitions += ((src, event, dst) for src in sources)
    return Sipa(
        states=tuple(tagged[i] for i in sorted(tagged)),
        initial=tuple(tagged[2 * x + (0 if table.clean >> x & 1 else 1)] for x in bits(table.initial)),
        events=events,
        transitions=tuple(transitions),
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


def projected_dot(nfa: Nfa) -> str:
    """DOT rendering of the projected automaton, read off the model's reach rows.

    One node per state in declaration order, a double circle on each member
    of the closed initial estimate, and one edge per member of each reach
    row, by state, then event, then target.
    """
    table = row_table(nfa)
    states = range(len(nfa.states))
    return dot_graph(
        "projected", "LR", nfa.states,
        ["doublecircle" if table.initial >> x & 1 else "circle" for x in states],
        [(x, event, t) for x in states for event, rows in zip(table.events, table.reach) for t in bits(rows[x])],
    )


def sipa_dot(sipa: Sipa) -> str:
    index = {state: i for i, state in enumerate(sipa.states)}
    start = set(sipa.initial)
    return dot_graph(
        "sipa", "LR", [state.label() for state in sipa.states],
        ["doublecircle" if state in start else "circle" for state in sipa.states],
        [(index[src], event, index[dst]) for src, event, dst in sipa.transitions],
    )
