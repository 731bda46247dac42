"""Automaton model, validation, and the bitmask row table the constructions step by.

States and events are identified by string tokens.  All set-valued results
are returned as canonical ``StateSet`` tuples sorted by declaration order,
so that equal sets are bit-identical and hash consistently.  Every function
here is pure; ``Nfa`` instances are immutable after construction.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from typing import Callable, Iterable, NamedTuple, Sequence

# A canonical, duplicate-free tuple of state identifiers, sorted by
# declaration order of the owning Nfa.
StateSet = tuple[str, ...]

# Finite sequences of event names.  An observation string contains
# observable events only.
EventString = tuple[str, ...]
ObservationString = tuple[str, ...]

MODEL_FIELDS = ("states", "events", "initial", "secret", "transitions")


class ModelError(ValueError):
    """Raised for malformed models or undeclared identifiers."""


class ResourceLimitError(RuntimeError):
    """Raised when a construction exceeds its configured state cap."""


class InvariantError(RuntimeError):
    """Raised when an internal invariant breaks: a program bug, not bad input."""


class Event(NamedTuple):
    name: str
    observable: bool


class _Frozen:
    """Fields are set once, through ``vars(self)``; assigning or deleting one raises."""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Nfa(_Frozen):
    """A partially observed nondeterministic finite automaton.

    ``states`` and ``events`` fix the canonical iteration order used by
    every construction in this package.  ``secret`` is a subset of
    ``states``; the nonsecret states are exactly the rest.  An Nfa is
    immutable, and two compare equal when their five fields do.
    """

    def __init__(
        self, states: tuple[str, ...], events: tuple[Event, ...], transitions: tuple[tuple[str, str, str], ...],
        initial: tuple[str, ...], secret: tuple[str, ...],
    ) -> None:
        order = {s: i for i, s in enumerate(states)}
        if len(order) != len(states):
            raise ModelError("duplicate state identifiers")
        event_names = {e.name for e in events}
        if len(event_names) != len(events):
            raise ModelError("duplicate event names")
        for src, ev, dst in transitions:
            if src not in order or dst not in order:
                endpoint = dst if src in order else src
                raise ModelError(f"transition ({src},{ev},{dst}) uses undeclared state {endpoint!r}")
            if ev not in event_names:
                raise ModelError(f"transition ({src},{ev},{dst}) uses undeclared event {ev!r}")
        if len(set(transitions)) != len(transitions):
            raise ModelError("duplicate transitions")
        if not initial:
            raise ModelError("empty initial set")
        for group, members in (("initial", initial), ("secret", secret)):
            for s in members:
                if s not in order:
                    raise ModelError(f"{group} member {s!r} is not a declared state")
            if len(set(members)) != len(members):
                raise ModelError(f"duplicate {group} states")
        # _rows is the row table, set once by row_table.
        vars(self).update(
            states=states, events=events, transitions=transitions, initial=initial, secret=secret,
            _order=order, _rows=None,
        )

    def _fields(self) -> tuple:
        return self.states, self.events, self.transitions, self.initial, self.secret

    def __eq__(self, other: object) -> bool:
        return self._fields() == other._fields() if isinstance(other, Nfa) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        states, events, transitions, initial, secret = self._fields()
        return f"Nfa({states=}, {events=}, {transitions=}, {initial=}, {secret=})"

    # -- canonical views -------------------------------------------------

    def state_set(self, members: Iterable[str]) -> StateSet:
        """Canonicalize *members* into a StateSet (declaration order)."""
        seen = set()
        for s in members:
            if s not in self._order:
                raise ModelError(f"unknown state {s!r}")
            seen.add(s)
        return tuple(sorted(seen, key=self._order.__getitem__))

    @property
    def observable_events(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.events if e.observable)

    @property
    def unobservable_events(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.events if not e.observable)

    @property
    def nonsecret(self) -> tuple[str, ...]:
        secret = set(self.secret)
        return tuple(s for s in self.states if s not in secret)

    @property
    def secret_set(self) -> frozenset[str]:
        return frozenset(self.secret)


def validate_model(raw: Mapping) -> Nfa:
    """Build a well-formed :class:`Nfa` from a raw JSON-shaped mapping.

    Enforces the model schema exactly: the five known fields, strings for
    identifiers, and all structural invariants.  Unknown fields are
    rejected.  Errors name the offending location.
    """
    if not isinstance(raw, Mapping):
        raise ModelError("model must be a JSON object")
    unknown = set(raw) - set(MODEL_FIELDS)
    if unknown:
        raise ModelError(f"unknown model fields: {sorted(unknown)}")
    missing = [f for f in MODEL_FIELDS if f not in raw]
    if missing:
        raise ModelError(f"missing model fields: {missing}")

    def str_list(name: str) -> tuple[str, ...]:
        value = raw[name]
        if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
            raise ModelError(f"field {name!r} must be an array of strings")
        return tuple(value)

    states = str_list("states")
    events = []
    if not isinstance(raw["events"], (list, tuple)):
        raise ModelError("field 'events' must be an array")
    for i, entry in enumerate(raw["events"]):
        if not isinstance(entry, Mapping) or set(entry) != {"name", "observable"}:
            raise ModelError(f"events[{i}] must be an object with fields 'name' and 'observable'")
        name, obs = entry["name"], entry["observable"]
        if not isinstance(name, str) or not name:
            raise ModelError(f"events[{i}].name must be a non-empty string")
        if not isinstance(obs, bool):
            raise ModelError(f"events[{i}].observable must be a boolean")
        events.append(Event(name, obs))
    transitions = []
    if not isinstance(raw["transitions"], (list, tuple)):
        raise ModelError("field 'transitions' must be an array")
    for i, entry in enumerate(raw["transitions"]):
        if isinstance(entry, (list, tuple)) and len(entry) == 3:
            src, ev, dst = entry
            if isinstance(src, str) and isinstance(ev, str) and isinstance(dst, str):
                transitions.append((src, ev, dst))
                continue
        raise ModelError(f"transitions[{i}] must be a [src, event, dst] triple of strings")
    return Nfa(
        states=states,
        events=tuple(events),
        transitions=tuple(transitions),
        initial=str_list("initial"),
        secret=str_list("secret"),
    )


def load_model(path: str) -> Nfa:
    """Read a model JSON file and validate it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ModelError(f"cannot read model file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelError(f"malformed JSON in {path!r}: {exc}") from exc
    except (RecursionError, ValueError) as exc:
        # Nesting too deep for the parser, bytes that are not UTF-8, or an
        # integer past the interpreter's digit limit.
        raise ModelError(f"cannot parse model file {path!r}: {exc}") from exc
    return validate_model(raw)


def model_to_dict(nfa: Nfa) -> dict:
    """Inverse of :func:`validate_model`, for serializing generated models."""
    return {
        "states": list(nfa.states),
        "events": [{"name": e.name, "observable": e.observable} for e in nfa.events],
        "initial": list(nfa.initial),
        "secret": list(nfa.secret),
        "transitions": [list(t) for t in nfa.transitions],
    }


# -- bitmask row table ---------------------------------------------------


def bits(mask: int) -> list[int]:
    """Indices of the set bits of *mask*, lowest first.

    The loop takes the highest set bit and clears it, so each member costs
    one shift and one XOR over what is left of the mask.  That work still
    grows with the width, but the mask shortens as it goes, and it spares
    the negation, AND and XOR over the full width that taking the lowest
    bit (``mask & -mask``) costs per member.
    """
    out = []
    while mask:
        top = mask.bit_length() - 1
        out.append(top)
        mask ^= 1 << top
    out.reverse()
    return out


def union(rows: Sequence[int], mask: int) -> int:
    """OR of ``rows[i]`` over the set bits i of *mask*, highest bit first."""
    out = 0
    while mask:
        top = mask.bit_length() - 1
        out |= rows[top]
        mask ^= 1 << top
    return out


# Byte-table steps serve models of 9 to 64 states; the rest loop over set
# bits.  Past 64, a table step pays for every byte of the mask, set or not:
# on a 2,401-state model it shifts the 2,401-bit mask 301 times and ORs
# full-width entries, which made whole `opaq verify` calls 3.8-4.3x slower
# than the highest-bit-first loop over the few members that move (medians
# of 9 calls per property on a 2-vCPU Xeon host).  Up to 8 states a
# model's walks are short and few masks repeat (about half the steps of a
# random crosscheck batch missed the table), so the tables cost more than
# they saved there.
TABLE_STEP_STATES = range(9, 65)

# Each event's two prefilled byte tables (:func:`byte_tables`), in event order.
EventTables = tuple[tuple[list[int], list[int]], ...]


def byte_tables(rows: Sequence[int]) -> tuple[list[int], list[int]]:
    """The two prefilled tables of 9 to 16 rows: ``lo[b]`` is the OR of the
    rows of the bits of byte b, ``hi[b]`` of those bits shifted by 8.

    Each entry is filled from the one without its lowest bit, so a mask's
    step is ``lo[mask & 255] | hi[mask >> 8]``: its low byte indexes
    ``lo``, and the rest, below 2^(n - 8), indexes ``hi``.  The observer's
    subset construction (:meth:`RowTable.subsets`) and the pair walks
    (``opaq.weak._explore``) read the two entries inline, with a mask's two
    bytes taken once for all events.
    """
    lo, hi = [0] * 256, [0] * (1 << len(rows) - 8)
    for shift, table in ((0, lo), (8, hi)):
        for byte in range(1, len(table)):
            low = byte & -byte
            table[byte] = table[byte ^ low] | rows[shift + low.bit_length() - 1]
    return lo, hi


def _table_step(lo: list[int], hi: list[int]) -> Callable[[int], int]:
    return lambda mask: lo[mask & 255] | hi[mask >> 8]


def set_step(rows: Sequence[int], support: int) -> Callable[[int], int]:
    """A step from a mask to the OR of its members' rows, ``union(rows, mask)``.

    *support* holds the members whose row is nonempty.  For a row count in
    :data:`TABLE_STEP_STATES`, each byte of the mask indexes a table of its
    own whose entry is the OR of the rows of that byte's bits.  With 9 to 16
    rows both tables are filled up front (:func:`byte_tables`), and a mask
    steps in two lookups.  With 17 to 64 rows a table entry is filled on
    first use.  A chunk's table has one slot per value of its bits:
    2^min(8, n - 8c) for chunk c of n rows.  Other models loop over the set
    bits of ``mask & support``.
    """
    n = len(rows)
    if n not in TABLE_STEP_STATES:

        def step(mask: int) -> int:
            mask &= support
            out = 0
            while mask:
                top = mask.bit_length() - 1
                out |= rows[top]
                mask ^= 1 << top
            return out

        return step
    if n <= 16:
        return _table_step(*byte_tables(rows))
    chunks = [(shift, [None] * (1 << min(8, n - shift))) for shift in range(0, n, 8)]

    def step(mask: int) -> int:
        out = 0
        for shift, table in chunks:
            byte = mask >> shift & 255
            row = table[byte]
            if row is None:
                row = table[byte] = union(rows, byte << shift)
            out |= row
        return out

    return step


def persistent_core(rows: Sequence[Sequence[int]], support: Sequence[int], states: int) -> int:
    """The greatest subset P of *states* whose every member has, under every event, a row that meets P.

    ``rows[e][x]`` is state x's row under event e and ``support[e]`` the
    states whose row under e is nonempty.  P is a greatest fixpoint: start
    from the states in every ``support[e]``, then drop each member whose
    row under some event misses the set, until nothing changes.  A member
    dropped in a pass is already missing for the members tested after it;
    that only drops sooner what a later pass would drop.  With no event, P
    is *states*.
    """
    core = states
    for movers in support:
        core &= movers
    dropped = True
    while dropped:
        dropped = False
        for x in bits(core):
            for event_rows in rows:
                if not event_rows[x] & core:
                    core ^= 1 << x
                    dropped = True
                    break
    return core


def _closure(succ: Sequence[int], x: int, allowed: int) -> int:
    # {x} plus every state reached from x along succ edges whose every
    # entered state lies in *allowed*; x itself is kept as given.
    reached = frontier = 1 << x
    while frontier:
        frontier = union(succ, frontier) & allowed & ~reached
        reached |= frontier
    return reached


def _prefilled(rows: Sequence[Sequence[int]], n: int) -> EventTables | None:
    # Each event's two prefilled byte tables for 9 to 16 states, else None.
    return tuple(map(byte_tables, rows)) if n in TABLE_STEP_STATES and n <= 16 else None


def _steps(
    rows: Sequence[Sequence[int]], support: Sequence[int], tables: EventTables | None,
) -> tuple[Callable[[int], int], ...]:
    # Each event's step, read from *tables* when they were prefilled.
    if tables is None:
        return tuple(map(set_step, rows, support))
    return tuple(_table_step(lo, hi) for lo, hi in tables)


class _built_on_read:
    """A field that its method computes on first read and stores in the instance dict.

    Later reads find the value there, since the descriptor defines no
    ``__set__``, and an assignment replaces it.  Unlike
    ``functools.cached_property`` on Python 3.10 and 3.11, the first read
    takes no lock.
    """

    def __init__(self, build: Callable) -> None:
        self.build = build

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj: object, owner: type | None = None):
        if obj is None:
            return self
        value = vars(obj)[self.name] = self.build(obj)
        return value


class _Positions(dict):
    """Estimate positions by mask, None for a mask not yet found."""

    def __missing__(self, mask: int) -> None:
        return None


class RowTable:
    """The two one-observation step relations of an Nfa, as bitmask rows.

    Bit i of every mask stands for ``states[i]``, so a mask's bits come out
    in declaration order.  Row position e follows ``events`` (the observable
    events in declaration order).  ``reach[e][x]`` is the observable reach of
    {x} under event e: the projected automaton's edges.  ``avoid[e][x]`` is
    the secret-avoiding reach of {x} for nonsecret x (the tagged automaton's
    N-to-N edges) and 0 for secret x.  Both steps distribute over union, so
    the step of a set is the OR of its members' rows.  ``reach_steps[e]``
    and ``avoid_steps[e]`` take that step (:func:`set_step`), through byte
    tables for models of 9 to 64 states.  With 9 to 16 states,
    ``reach_tables[e]`` and ``avoid_tables[e]`` hold the two prefilled
    tables of the reach and the avoid rows under e (:func:`byte_tables`),
    from which the steps are built too; :meth:`subsets` and the pair walks
    read them inline.  Otherwise both are None.  ``support[e]`` holds the
    states whose reach row under e is nonempty (avoid rows are nonempty
    only there too); the bit loop of the steps that take no tables and
    :func:`~opaq.projection.sipa_state_count` read it, to skip the members
    that cannot move.  ``initial`` is the unobservable closure of the
    initial states, ``clean`` the all-nonsecret closure of the nonsecret
    initial states.  ``reach_core`` and ``avoid_core`` are the persistent
    cores (:func:`persistent_core`) of the reach and the avoid rows over the
    nonsecret states: a set that meets one of them keeps meeting it along
    every observation, so the pair searches prune there and certify opacity
    by them (see ``opaq.weak``).  Secret states have empty avoid rows, so
    while any event is observable the avoid core is also the persistent
    core over all states.

    The reach rows are built with the table.  ``avoid``, ``avoid_tables``,
    ``avoid_steps`` and the two cores are built on first read: only the
    strong verdicts, the SIPA and the crosscheck read the avoid rows, and
    only the pair searches read the cores.

    Use :func:`row_table`, which builds the table once per model.
    """

    def __init__(self, nfa: Nfa) -> None:
        order = nfa._order
        n = len(nfa.states)
        self.states = nfa.states
        self.events = nfa.observable_events
        # step[e] maps each direct e-mover to its direct e-successors.
        silent = [0] * n
        step: dict[str, dict[int, int]] = {e: {} for e in self.events}
        for src, ev, dst in nfa.transitions:
            x = order[src]
            if ev in step:
                rows = step[ev]
                rows[x] = rows.get(x, 0) | 1 << order[dst]
            else:
                silent[x] |= 1 << order[dst]
        self.secret = sum(1 << order[s] for s in nfa.secret)
        self.nonsecret = nonsecret = (1 << n) - 1 & ~self.secret
        # A state without silent successors is its own closure, and one
        # without an e-successor in its closure has an empty e row: the
        # loops below skip such states, which keeps wide models cheap.  A
        # closure distributes over union, so a state whose silent successors
        # have none of their own closes in one step, and a set holding no
        # state with silent successors is its own closure.
        loud = [x for x in range(n) if silent[x]]
        loud_mask = sum(1 << x for x in loud)
        closure = [1 << x for x in range(n)]
        clean = closure[:]
        for x in loud:
            if silent[x] & loud_mask:
                closure[x] = _closure(silent, x, -1)
                clean[x] = _closure(silent, x, nonsecret)
            else:
                closure[x] |= silent[x]
                clean[x] |= silent[x] & nonsecret
        reach, support = [], []
        for direct in step.values():
            # post[y] is the closure of y's direct e-successors.  Closing
            # distributes over union, so a row is the OR of post over the
            # state's closure, and a state without silent successors keeps
            # its post row as it is.  The rows of silent movers replace
            # their post rows in place: a closure holds the closure of each
            # of its members, so a member's row read in place of its post
            # row adds nothing.
            post = [0] * n
            moving = 0
            for y, row in direct.items():
                moving |= 1 << y
                post[y] = union(closure, row) if row & loud_mask else row
            support_e = moving
            for x in loud:
                if closure[x] & moving:
                    support_e |= 1 << x
                    post[x] = union(post, closure[x])
            reach.append(post)
            support.append(support_e)
        self.reach, self.support = reach, support
        start = sum(1 << order[s] for s in nfa.initial)
        self.initial = union(closure, start)
        self.clean = union(clean, start & nonsecret)
        self.reach_tables = _prefilled(reach, n)
        self.reach_steps = _steps(reach, support, self.reach_tables)
        # What the avoid rows are built from, on first read.
        self._direct = tuple(step.values())
        self._clean_closure = clean
        self._loud_mask = loud_mask

    @_built_on_read
    def avoid(self) -> list[list[int]]:
        # post_clean[y] is the clean closure of nonsecret y's nonsecret
        # direct e-successors (a clean closure from a nonsecret state holds
        # no other kind), and a nonsecret silent mover's row is the OR of
        # post_clean over its clean closure, replaced in place as in the
        # reach pass.  A silent mover moves under e exactly when its bit of
        # support[e] is set.
        n = len(self.states)
        nonsecret, clean, loud_mask = self.nonsecret, self._clean_closure, self._loud_mask
        is_nonsecret = [True] * n
        for x in bits(self.secret):
            is_nonsecret[x] = False
        loud_nonsecret = loud_mask & nonsecret
        avoid = []
        for direct, support_e in zip(self._direct, self.support):
            post_clean = [0] * n
            for y, row in direct.items():
                if is_nonsecret[y]:
                    row &= nonsecret
                    post_clean[y] = union(clean, row) if row & loud_mask else row
            for x in bits(support_e & loud_nonsecret):
                post_clean[x] = union(post_clean, clean[x])
            avoid.append(post_clean)
        return avoid

    @_built_on_read
    def avoid_tables(self) -> EventTables | None:
        return _prefilled(self.avoid, len(self.states))

    @_built_on_read
    def avoid_steps(self) -> tuple[Callable[[int], int], ...]:
        return _steps(self.avoid, self.support, self.avoid_tables)

    @_built_on_read
    def reach_core(self) -> int:
        return persistent_core(self.reach, self.support, self.nonsecret)

    @_built_on_read
    def avoid_core(self) -> int:
        return persistent_core(self.avoid, self.support, self.nonsecret)

    def subsets(self, max_states: int | None = None) -> tuple[list[int], list[tuple[int, ...]], list[int]]:
        """Subset construction over the reach rows from ``initial``: masks, moves and parents.

        BFS with events in order and a FIFO frontier: ``masks`` lists the
        nonempty reachable estimates in discovery order, ``moves[i]`` the
        position each event takes estimate i to (-1 for an empty reach), and
        ``parents[i]`` the estimate whose move first reached i (-1 for the
        initial one).  More than *max_states* estimates raise
        :class:`ResourceLimitError` at the first one past the cap.

        With ``reach_tables`` (9 to 16 states) each event's step is read
        inline, ``lo[mask & 255] | hi[mask >> 8]``, with the estimate's two
        bytes taken once for every event, and the targets go to one flat
        list that is cut into one tuple per estimate at the end.  Positions
        are looked up by mask in a dict until 2^(n - 6) estimates are found,
        then in a list of 2^n slots: a list reads faster, but filling it
        costs more than a small observer's whole build.  Both answer None
        for an unseen mask, so the loop subscripts either.  Other models
        call ``reach_steps``.
        """
        masks = [self.initial]
        # Plain ints, not tuples, so that recording them adds no GC-tracked objects.
        parents = [-1]
        # The empty mask maps to -1, so an empty reach needs no test of its
        # own; the initial estimate is never empty.  The discovery list is
        # the FIFO queue: estimate i is expanded when the walk reaches it.
        if self.reach_tables is None:
            steps = self.reach_steps
            position = {0: -1, self.initial: 0}
            moves = []
            for i, current in enumerate(masks):
                row = []
                for step in steps:
                    target = step(current)
                    j = position.get(target)
                    if j is None:
                        j = position[target] = len(masks)
                        masks.append(target)
                        parents.append(i)
                        if max_states is not None and j >= max_states:
                            raise ResourceLimitError(f"observer exceeded {max_states} states")
                    row.append(j)
                moves.append(tuple(row))
            return masks, moves, parents
        n = len(self.states)
        tables = self.reach_tables
        position = _Positions({0: -1, self.initial: 0})
        # A new estimate at position *watch* or past it either exceeds the
        # cap or switches the index to the list; past the switch only the
        # cap is left to watch.
        dense = 1 << n - 6
        watch = dense if max_states is None else min(dense, max_states)
        targets = []
        for i, current in enumerate(masks):
            low, high = current & 255, current >> 8
            for lo, hi in tables:
                target = lo[low] | hi[high]
                j = position[target]
                if j is None:
                    j = position[target] = len(masks)
                    masks.append(target)
                    parents.append(i)
                    if j >= watch:
                        if max_states is not None and j >= max_states:
                            raise ResourceLimitError(f"observer exceeded {max_states} states")
                        position = [None] * (1 << n)
                        position[0] = -1
                        for k, mask in enumerate(masks):
                            position[mask] = k
                        watch = 1 << n if max_states is None else max_states
                targets.append(j)
        if not tables:
            return masks, [()], parents
        return masks, list(zip(*[iter(targets)] * len(tables))), parents

    def state_set(self, mask: int) -> StateSet:
        states = self.states
        out = []
        while mask:
            top = mask.bit_length() - 1
            out.append(states[top])
            mask ^= 1 << top
        out.reverse()
        return tuple(out)


def row_table(nfa: Nfa) -> RowTable:
    """The model's row table, built on first use and cached on the model."""
    if nfa._rows is None:
        object.__setattr__(nfa, "_rows", RowTable(nfa))
    return nfa._rows


def format_state_set(states: StateSet) -> str:
    return "{" + ",".join(states) + "}"


def format_pair(x1: StateSet, x2: StateSet) -> str:
    return f"({format_state_set(x1)},{format_state_set(x2)})"


def dot_quote(text: str) -> str:
    """*text* as a DOT quoted string, with backslashes and quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def dot_graph(
    name: str, rankdir: str, labels: Iterable[str], shapes: Iterable[str],
    edges: Iterable[tuple[int, str, int]], numbered: bool = False,
) -> str:
    """The DOT text of every export: node lines in order, then edge lines.

    Node i is printed as ``labels[i]`` with shape ``shapes[i]``; an edge
    ``(i, event, j)`` runs from node i to node j.  Each node is named by its
    quoted label while every label is distinct.  With *numbered*, or when
    two labels collide (state names that hold commas can print alike), the
    nodes are named n0, n1, ... and each carries its label as an attribute.
    A numbered graph only zips its labels and shapes, so they may be any
    iterables, read once; otherwise the labels must be a sequence.
    """
    lines = [f"digraph {name} {{", f"  rankdir={rankdir};"]
    if numbered or len(set(labels)) != len(labels):
        lines += [f"  n{i} [shape={shape},label={dot_quote(label)}];" for i, (shape, label) in enumerate(zip(shapes, labels))]
        lines += [f"  n{i} -> n{j} [label={dot_quote(event)}];" for i, event, j in edges]
    else:
        ids = [dot_quote(label) for label in labels]
        lines += [f"  {n} [shape={shape}];" for n, shape in zip(ids, shapes)]
        lines += [f"  {ids[i]} -> {ids[j]} [label={dot_quote(event)}];" for i, event, j in edges]
    lines.append("}\n")
    return "\n".join(lines)
