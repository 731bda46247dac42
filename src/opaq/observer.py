"""Deterministic observer built by subset construction with unobservable closure."""

from __future__ import annotations

from .core import (
    Nfa,
    ResourceLimitError,
    RowTable,
    StateSet,
    _built_on_read,
    _Frozen,
    dot_graph,
    format_state_set,
    row_table,
)


class Observer(_Frozen):
    """Deterministic automaton over canonical state estimates, held by position.

    ``masks`` holds each estimate as a bitmask over declaration order, in
    construction (BFS) order with the initial estimate first.  ``moves[i]``
    is estimate i's dense row: one target position per event, in event
    order, with -1 where the reach is empty.  No estimate is empty, so the
    automaton is deterministic and partial.  ``parents[i]`` is the position
    of the estimate whose first move into i discovered i (-1 for the
    initial one): followed back, those moves spell the BFS-shortest
    observation reaching i.

    The named views (``states``, ``initial``, ``transitions`` keyed by
    estimate and event name, ``index``, an estimate's position, and
    ``secret_positions``, those of the estimates that meet a secret) are
    built on first access: the verdict searches read positions only.  The
    fields are fixed, so those views never go stale.
    """

    def __init__(
        self, events: tuple[str, ...], masks: tuple[int, ...], moves: tuple[tuple[int, ...], ...],
        parents: tuple[int, ...], table: RowTable,
    ) -> None:
        vars(self).update(events=events, masks=masks, moves=moves, parents=parents, table=table)

    @_built_on_read
    def states(self) -> tuple[StateSet, ...]:
        return tuple(map(self.table.state_set, self.masks))

    @_built_on_read
    def initial(self) -> StateSet:
        return self.states[0]

    @_built_on_read
    def transitions(self) -> dict[tuple[StateSet, str], StateSet]:
        states, events = self.states, self.events
        return {
            (states[i], events[e]): states[j]
            for i, row in enumerate(self.moves)
            for e, j in enumerate(row)
            if j >= 0
        }

    @_built_on_read
    def secret_positions(self) -> tuple[int, ...]:
        secret = self.table.secret
        return tuple([i for i, m in enumerate(self.masks) if m & secret])

    @_built_on_read
    def index(self) -> dict[StateSet, int]:
        return {state: i for i, state in enumerate(self.states)}


def build_observer(nfa: Nfa, max_states: int | None = None) -> Observer:
    """Subset construction from the closed initial estimate.

    BFS with events in declaration order and a FIFO frontier fixes the
    state numbering for DOT export and witness extraction.  Empty-reach
    targets are never materialized.
    """
    table = row_table(nfa)
    steps = table.reach_steps
    masks = [table.initial]
    # The empty mask maps to -1, so an empty reach needs no test of its own;
    # the initial estimate is never empty.
    position = {0: -1, table.initial: 0}
    moves = []
    # Plain ints, not tuples, so that recording them adds no GC-tracked objects.
    parents = [-1]
    # The discovery list is the FIFO queue: estimate i is expanded when the
    # walk reaches position i.
    for i, current in enumerate(masks):
        row = []
        for step in steps:
            target = step(current)
            j = position.get(target)
            if j is None:
                j = position[target] = len(masks)
                masks.append(target)
                parents.append(i)
                if max_states is not None and len(masks) > max_states:
                    raise ResourceLimitError(
                        f"observer exceeded {max_states} states"
                    )
            row.append(j)
        moves.append(tuple(row))
    return Observer(
        events=table.events,
        masks=tuple(masks),
        moves=tuple(moves),
        parents=tuple(parents),
        table=table,
    )


def observer_dot(obs: Observer) -> str:
    """Deterministic DOT rendering; one node per estimate (see :func:`dot_graph`)."""
    return dot_graph(
        "observer", "LR",
        [format_state_set(state) for state in obs.states],
        ["doublecircle" if i == 0 else "circle" for i in range(len(obs.masks))],
        [(i, event, j) for i, row in enumerate(obs.moves) for event, j in zip(obs.events, row) if j >= 0],
    )
