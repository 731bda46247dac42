"""Deterministic observer built by subset construction with unobservable closure."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .core import (
    Nfa,
    ResourceLimitError,
    RowTable,
    StateSet,
    dot_quote,
    format_state_set,
    row_table,
    union,
)


@dataclass(frozen=True, eq=False)
class Observer:
    """Deterministic automaton over canonical state estimates, held by position.

    ``masks`` holds each estimate as a bitmask over declaration order, in
    construction (BFS) order with the initial estimate first.  ``moves[i]``
    lists the (event position, target position) pairs of estimate i in event
    order; only moves whose reach is nonempty are kept, so the automaton is
    deterministic and partial.  ``parents[i]`` is the position of the
    estimate whose first move into i discovered i (-1 for the initial one):
    followed back, those moves spell the BFS-shortest observation reaching i.

    The named views (``states``, ``initial``, ``transitions`` keyed by
    estimate and event name, and ``index``, an estimate's position) are
    built on first access: the verdict searches read positions only.
    """

    events: tuple[str, ...]
    masks: tuple[int, ...] = field(repr=False)
    moves: tuple[tuple[tuple[int, int], ...], ...] = field(repr=False)
    parents: tuple[int, ...] = field(repr=False)
    table: RowTable = field(repr=False)

    @cached_property
    def states(self) -> tuple[StateSet, ...]:
        return tuple(map(self.table.state_set, self.masks))

    @cached_property
    def initial(self) -> StateSet:
        return self.states[0]

    @cached_property
    def transitions(self) -> dict[tuple[StateSet, str], StateSet]:
        states, events = self.states, self.events
        return {(states[i], events[e]): states[j] for i, out in enumerate(self.moves) for e, j in out}

    @cached_property
    def index(self) -> dict[StateSet, int]:
        return {state: i for i, state in enumerate(self.states)}

    def successors(self, state: StateSet) -> tuple[tuple[str, StateSet], ...]:
        return tuple(
            (e, self.transitions[(state, e)])
            for e in self.events
            if (state, e) in self.transitions
        )


def build_observer(nfa: Nfa, max_states: int | None = None) -> Observer:
    """Subset construction from the closed initial estimate.

    BFS with events in declaration order and a FIFO frontier fixes the
    state numbering for DOT export and witness extraction.  Empty-reach
    targets are never materialized.
    """
    table = row_table(nfa)
    rows = tuple(enumerate(zip(table.reach, table.support)))
    masks = [table.initial]
    position = {table.initial: 0}
    moves = []
    # Plain ints, not tuples, so that recording them adds no GC-tracked objects.
    parents = [-1]
    # The discovery list is the FIFO queue: estimate i is expanded when the
    # walk reaches position i.
    for i, current in enumerate(masks):
        out = []
        for e, (row, support) in rows:
            target = union(row, current & support)
            if not target:
                continue
            j = position.get(target)
            if j is None:
                j = position[target] = len(masks)
                masks.append(target)
                parents.append(i)
                if max_states is not None and len(masks) > max_states:
                    raise ResourceLimitError(
                        f"observer exceeded {max_states} states"
                    )
            out.append((e, j))
        moves.append(tuple(out))
    return Observer(
        events=table.events,
        masks=tuple(masks),
        moves=tuple(moves),
        parents=tuple(parents),
        table=table,
    )


def observer_state_after(obs: Observer, w: tuple[str, ...]) -> StateSet | None:
    """Unique estimate reached by observation *w*, or None if undefined."""
    current = obs.initial
    for event in w:
        nxt = obs.transitions.get((current, event))
        if nxt is None:
            return None
        current = nxt
    return current


def observer_dot(obs: Observer) -> str:
    """Deterministic DOT rendering; one node per estimate."""
    lines = ["digraph observer {", "  rankdir=LR;"]
    for state in obs.states:
        label = dot_quote(format_state_set(state))
        shape = "doublecircle" if state == obs.initial else "circle"
        lines.append(f"  {label} [shape={shape}];")
    for state in obs.states:
        for event, target in obs.successors(state):
            src, dst = dot_quote(format_state_set(state)), dot_quote(format_state_set(target))
            lines.append(f"  {src} -> {dst} [label={dot_quote(event)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
