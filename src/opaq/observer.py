"""Deterministic observer built by subset construction with unobservable closure."""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (
    Nfa,
    ResourceLimitError,
    StateSet,
    dot_quote,
    format_state_set,
    row_table,
    union,
)


@dataclass(frozen=True, eq=False)
class Observer:
    """Deterministic automaton over canonical state estimates.

    ``states`` is in construction (BFS) order with the initial estimate
    first; ``transitions`` holds only pairs whose reach is nonempty, so the
    automaton is deterministic and partial.

    The same automaton is also held by position, for the searches that run
    on the model's row table: ``index`` maps an estimate to its position in
    ``states``, ``masks`` holds each estimate as a bitmask over declaration
    order, and ``moves[i]`` lists the (event position, target position)
    pairs of estimate i in event order.  ``parents[i]`` is the position of the
    estimate whose first move into i discovered i (-1 for the initial one):
    followed back, those moves spell the BFS-shortest observation reaching i.
    """

    states: tuple[StateSet, ...]
    initial: StateSet
    transitions: dict[tuple[StateSet, str], StateSet]
    events: tuple[str, ...]
    index: dict[StateSet, int] = field(repr=False)
    masks: tuple[int, ...] = field(repr=False)
    moves: tuple[tuple[tuple[int, int], ...], ...] = field(repr=False)
    parents: tuple[int, ...] = field(repr=False)

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
    states = tuple(table.state_set(m) for m in masks)
    events = table.events
    transitions = {
        (states[i], events[e]): states[j]
        for i, out in enumerate(moves)
        for e, j in out
    }
    return Observer(
        states=states,
        initial=states[0],
        transitions=transitions,
        events=events,
        index={state: i for i, state in enumerate(states)},
        masks=tuple(masks),
        moves=tuple(moves),
        parents=tuple(parents),
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
