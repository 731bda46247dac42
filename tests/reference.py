"""Set-based reference semantics, against which the tests check the library.

The constructions step through the row table (``opaq.core.RowTable``) and the
oracle through its own ``MaskEngine``.  The functions here are a third,
deliberately plain reading of the definitions over state names, kept for the
tests alone: one-event steps, silent closures, the observable and
secret-avoiding reaches, natural projection, the persistent cores, the
tagged automaton over every tagged state, and the observer read by event
name.  All set-valued results are canonical
``StateSet`` tuples in declaration order.

A model's set-based step views are built on first use and kept in the
model's instance dict under ``_step`` and ``_silent``, so a test can tell
whether anything but the reference built them.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from opaq import ModelError, Nfa, Observer
from opaq.core import ObservationString, StateSet
from opaq.projection import TAG_N, TAG_Y, Sipa, TaggedState


def _step_view(nfa: Nfa) -> dict[tuple[str, str], tuple[str, ...]]:
    view = vars(nfa).get("_step")
    if view is None:
        step: dict[tuple[str, str], list[str]] = {}
        for src, ev, dst in nfa.transitions:
            step.setdefault((src, ev), []).append(dst)
        view = vars(nfa)["_step"] = {k: tuple(v) for k, v in step.items()}
    return view


def _silent_view(nfa: Nfa) -> dict[str, tuple[str, ...]]:
    view = vars(nfa).get("_silent")
    if view is None:
        unobservable = set(nfa.unobservable_events)
        silent: dict[str, list[str]] = {}
        for src, ev, dst in nfa.transitions:
            if ev in unobservable:
                silent.setdefault(src, []).append(dst)
        view = vars(nfa)["_silent"] = {k: tuple(v) for k, v in silent.items()}
    return view


def _event_declared(nfa: Nfa, event: str) -> bool:
    return any(e.name == event for e in nfa.events)


def _require_observable(nfa: Nfa, event: str) -> None:
    if not _event_declared(nfa, event):
        raise ModelError(f"unknown event {event!r}")
    if event not in nfa.observable_events:
        raise ModelError(f"event {event!r} is not observable")


# -- natural projection --------------------------------------------------


def project(nfa: Nfa, s: Sequence[str]) -> ObservationString:
    """Erase unobservable events from *s*, preserving order."""
    observable = set(nfa.observable_events)
    out = []
    for ev in s:
        if not _event_declared(nfa, ev):
            raise ModelError(f"unknown event {ev!r}")
        if ev in observable:
            out.append(ev)
    return tuple(out)


# -- reachability primitives ---------------------------------------------


def step(nfa: Nfa, from_states: Iterable[str], event: str) -> StateSet:
    """One-event transition targets over the whole set; may be empty."""
    if not _event_declared(nfa, event):
        raise ModelError(f"unknown event {event!r}")
    view = _step_view(nfa)
    out: set[str] = set()
    for s in from_states:
        out.update(view.get((s, event), ()))
    return nfa.state_set(out)


def _silent_closure(nfa: Nfa, from_states: Iterable[str], barred: frozenset[str]) -> StateSet:
    # The input plus every state reached along unobservable edges without
    # entering a state in *barred*.  Unobservable cycles are handled by the
    # visited set, never by bounded unrolling.
    silent = _silent_view(nfa)
    reached = set(from_states)
    frontier = list(reached)
    while frontier:
        nxt = []
        for s in frontier:
            for t in silent.get(s, ()):
                if t not in reached and t not in barred:
                    reached.add(t)
                    nxt.append(t)
        frontier = nxt
    return nfa.state_set(reached)


def unobservable_reach(nfa: Nfa, from_states: Iterable[str]) -> StateSet:
    """States reachable via unobservable events only (fixpoint closure).

    Always a superset of the input.
    """
    return _silent_closure(nfa, from_states, frozenset())


def observable_reach(nfa: Nfa, from_states: Iterable[str], event: str) -> StateSet:
    """States reachable by strings whose projection is exactly *event*.

    Computed as unobservable closure, one observable step, unobservable
    closure again, which matches the there-exists-a-string quantification.
    """
    _require_observable(nfa, event)
    closed = unobservable_reach(nfa, from_states)
    return unobservable_reach(nfa, step(nfa, closed, event))


def observable_events_at(nfa: Nfa, from_states: Iterable[str]) -> tuple[str, ...]:
    """Observable events with a nonempty observable reach from the set."""
    src = list(from_states)
    return tuple(e for e in nfa.observable_events if observable_reach(nfa, src, e))


def nonsecret_unobservable_reach(nfa: Nfa, from_states: Iterable[str]) -> StateSet:
    """Unobservable closure where every state entered must be nonsecret.

    The starting states are used as given (they are not filtered); only
    states reached after an event are constrained.
    """
    return _silent_closure(nfa, from_states, nfa.secret_set)


def secret_avoiding_reach(nfa: Nfa, from_states: Iterable[str], event: str) -> StateSet:
    """Observable reach through runs whose every post-event state is nonsecret.

    Mirrors the nested intersect-with-nonsecret form: the source states are
    used as given, while the state after every event of the witnessing
    string (observable and unobservable alike) must be nonsecret.  The
    result is therefore always a subset of the nonsecret states.
    """
    _require_observable(nfa, event)
    secret = nfa.secret_set
    closed = nonsecret_unobservable_reach(nfa, from_states)
    after = [t for t in step(nfa, closed, event) if t not in secret]
    return nonsecret_unobservable_reach(nfa, after)


# -- persistent cores ----------------------------------------------------


def _greatest_core(nfa: Nfa, row) -> StateSet:
    # Start from every state and drop, all at once, each state whose row
    # under some observable event misses the current set, until a round
    # drops nothing.
    core = set(nfa.states)
    while True:
        dropped = {
            x for x in core
            if any(core.isdisjoint(row(x, event)) for event in nfa.observable_events)
        }
        if not dropped:
            return nfa.state_set(core)
        core -= dropped


def reach_core(nfa: Nfa) -> StateSet:
    """The greatest set of states each of which reaches the set under every observable event."""
    return _greatest_core(nfa, lambda x, event: observable_reach(nfa, [x], event))


def avoid_core(nfa: Nfa) -> StateSet:
    """As :func:`reach_core`, over the secret-avoiding reach of each nonsecret state.

    A secret state steps nowhere here, so it is in the core only when no
    event is observable.
    """
    secret = nfa.secret_set
    return _greatest_core(
        nfa, lambda x, event: () if x in secret else secret_avoiding_reach(nfa, [x], event)
    )


# -- the tagged automaton over every base --------------------------------


def untrimmed_sipa(nfa: Nfa) -> Sipa:
    """The secret-involved projected automaton over every tagged state, reachable or not.

    Its states are an N tag for each nonsecret state, then a Y tag for every
    state.  From a nonsecret base x, each target x' of x's observable reach
    under e gives (x_N,e,x'_N) and (x_Y,e,x'_N) when x' lies in x's
    secret-avoiding reach, and (x_N,e,x'_Y) and (x_Y,e,x'_Y) otherwise;
    from a secret base only (x_Y,e,x'_Y).  The initial states are the closed
    initial estimate, each tagged N exactly when a nonsecret initial state
    reaches it by an all-nonsecret unobservable run.
    """
    secret = nfa.secret_set
    transitions = []
    for x in nfa.states:
        tags = (TAG_Y,) if x in secret else (TAG_N, TAG_Y)
        for event in nfa.observable_events:
            avoiding = () if x in secret else secret_avoiding_reach(nfa, [x], event)
            for t in observable_reach(nfa, [x], event):
                target = TaggedState(t, TAG_N if t in avoiding else TAG_Y)
                transitions += [(TaggedState(x, tag), event, target) for tag in tags]
    clean = nonsecret_unobservable_reach(nfa, [x for x in nfa.initial if x not in secret])
    return Sipa(
        states=tuple(TaggedState(x, TAG_N) for x in nfa.states if x not in secret)
        + tuple(TaggedState(x, TAG_Y) for x in nfa.states),
        initial=tuple(TaggedState(x, TAG_N if x in clean else TAG_Y) for x in unobservable_reach(nfa, nfa.initial)),
        events=nfa.observable_events,
        transitions=tuple(transitions),
    )


# -- the observer read by event name -------------------------------------


def observer_state_after(obs: Observer, w: tuple[str, ...]) -> StateSet | None:
    """Unique estimate reached by observation *w*, or None if undefined."""
    position = {event: e for e, event in enumerate(obs.events)}
    i = 0
    for event in w:
        e = position.get(event)
        if e is None:
            return None
        i = obs.moves[i][e]
        if i < 0:
            return None
    return obs.states[i]


def successors(obs: Observer, state: StateSet) -> tuple[tuple[str, StateSet], ...]:
    """(event, target estimate) for each move of *state*, in event order."""
    states = obs.states
    return tuple(
        (event, states[j])
        for event, j in zip(obs.events, obs.moves[obs.index[state]])
        if j >= 0
    )
