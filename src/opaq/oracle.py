"""Brute-force definitional checks and a reproducible random-model generator.

Everything here is implemented directly from the four opacity definitions on
a bitmask engine of its own, independent of the observer, tagged-automaton,
tree, and verifier constructions, so the two sides can be cross-validated.
Per-observation set computations use fixpoint closures throughout, never raw
run enumeration, so unobservable cycles cannot cause nontermination.

Window semantics for the strong checks: for an observation w the window is
anchored at position max(0, |w|-K); the anchor set is the full (closure
included) reach at that position intersected with the nonsecret states, and
each subsequent step is a secret-avoiding reach.  With K=0 this coincides
with current-state opacity.

Every reported violation is replayed through an independent per-observation
recomputation before being returned (soundness self-check).

A :class:`MaskEngine` caches, for its one model, the whole-set steps
``reach(mask, event)`` and ``avoid_reach(mask, event)`` and the estimate BFS,
so the K-step and infinite-step searches and the replays accept an ``eng``
built once per model (a fresh one when omitted).  The self-check always replays on a fresh engine, so a
wrong cached step cannot confirm its own violation.

The K-step searches enumerate up to |Eo|^K observation strings.  Given
``max_states`` they count the strings they examine, over all anchors, and
raise ResourceLimitError, naming the search, once the count passes it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .core import Event, ModelError, Nfa, ResourceLimitError


@dataclass(frozen=True)
class OracleConfig:
    """Oracle bound and random-model parameters.

    ``max_len`` caps the examined observation length; None means the bound
    needed for an exact verdict is computed from the model.  The seed fully
    determines generated models.
    """

    max_len: int | None = None
    n_states: int = 4
    n_events: int = 3
    unobservable_fraction: float = 0.25
    secret_fraction: float = 0.3
    density: float = 1.8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_len is not None and self.max_len < 1:
            raise ValueError("max_len must be at least 1")


@dataclass(frozen=True)
class OracleVerdict:
    """Verdict of a bounded definitional search.

    A reported violation is always genuine; ``opaque`` with ``exact`` False
    is only a within-bound claim.  ``bound`` is the longest observation
    length the search accounted for.
    """

    opaque: bool
    violation: tuple[str, ...] | None
    split: int | None
    bound: int
    exact: bool


class MaskEngine:
    """Bitmask reachability over a fixed model; one bit per state.

    ``reach`` and ``avoid_reach`` are memoized per (mask, event), and the
    estimate BFS is kept once run; the caches live as long as the engine.
    """

    def __init__(self, nfa: Nfa):
        self.nfa = nfa
        self.states = nfa.states
        self.index = {s: i for i, s in enumerate(nfa.states)}
        n = len(nfa.states)
        self.n = n
        self.full = (1 << n) - 1
        self.secret = self._mask(nfa.secret)
        self.nonsecret = self.full & ~self.secret
        self.initial = self._mask(nfa.initial)
        self.events = nfa.observable_events
        self.step_tbl: dict[str, list[int]] = {
            e.name: [0] * n for e in nfa.events
        }
        self.silent_tbl = [0] * n
        unobservable = set(nfa.unobservable_events)
        for src, ev, dst in nfa.transitions:
            bit = 1 << self.index[dst]
            self.step_tbl[ev][self.index[src]] |= bit
            if ev in unobservable:
                self.silent_tbl[self.index[src]] |= bit
        self._reach_memo: dict[tuple[int, str], int] = {}
        self._avoid_memo: dict[tuple[int, str], int] = {}
        self._bfs: tuple[list[int], dict[int, tuple[str, ...]], int] | None = None

    def _mask(self, states) -> int:
        out = 0
        for s in states:
            out |= 1 << self.index[s]
        return out

    def to_states(self, mask: int) -> tuple[str, ...]:
        return tuple(s for i, s in enumerate(self.states) if mask >> i & 1)

    def _bits(self, mask: int):
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def step(self, mask: int, event: str) -> int:
        tbl = self.step_tbl[event]
        out = 0
        for i in self._bits(mask):
            out |= tbl[i]
        return out

    def ur(self, mask: int) -> int:
        reached = mask
        frontier = mask
        while frontier:
            added = 0
            for i in self._bits(frontier):
                added |= self.silent_tbl[i]
            frontier = added & ~reached
            reached |= frontier
        return reached

    def ur_nonsecret(self, mask: int) -> int:
        # Closure where every state entered (not the sources) is nonsecret.
        reached = mask
        frontier = mask
        while frontier:
            added = 0
            for i in self._bits(frontier):
                added |= self.silent_tbl[i]
            frontier = added & self.nonsecret & ~reached
            reached |= frontier
        return reached

    def reach(self, mask: int, event: str) -> int:
        out = self._reach_memo.get((mask, event))
        if out is None:
            out = self.ur(self.step(self.ur(mask), event))
            self._reach_memo[mask, event] = out
        return out

    def avoid_reach(self, mask: int, event: str) -> int:
        out = self._avoid_memo.get((mask, event))
        if out is None:
            inner = self.step(self.ur_nonsecret(mask), event) & self.nonsecret
            out = self.ur_nonsecret(inner)
            self._avoid_memo[mask, event] = out
        return out

    def reach_bfs(self) -> tuple[list[int], dict[int, tuple[str, ...]], int]:
        """All reachable estimate sets with shortest access observations.

        Computed on the first call and kept; callers must not mutate it.
        """
        if self._bfs is None:
            start = self.ur(self.initial)
            order = [start]
            access = {start: ()}
            depth = 0
            queue = [start]
            while queue:
                current = queue.pop(0)
                for event in self.events:
                    target = self.reach(current, event)
                    if target and target not in access:
                        access[target] = access[current] + (event,)
                        depth = max(depth, len(access[target]))
                        order.append(target)
                        queue.append(target)
            self._bfs = order, access, depth
        return self._bfs

    def estimates(self, w: tuple[str, ...]) -> list[int] | None:
        """Closure-included reach sets along *w*; None if infeasible."""
        current = self.ur(self.initial)
        out = [current]
        for event in w:
            current = self.reach(current, event)
            if not current:
                return None
            out.append(current)
        return out

    def continuation_sets(self, ests: list[int], w: tuple[str, ...]) -> list[int]:
        """Backward pass: states at each position with a run over the rest of *w*."""
        cont = [0] * len(ests)
        cont[-1] = ests[-1]
        for i in range(len(w) - 1, -1, -1):
            mask = 0
            for b in self._bits(ests[i]):
                if self.reach(1 << b, w[i]) & cont[i + 1]:
                    mask |= 1 << b
            cont[i] = mask
        return cont


def _engine(nfa: Nfa, eng: MaskEngine | None) -> MaskEngine:
    if eng is None:
        return MaskEngine(nfa)
    if eng.nfa is not nfa:
        raise ValueError("the engine was built for another model")
    return eng


# -- per-observation replays (soundness self-checks) -----------------------


def replay_weak_violation(
    nfa: Nfa, w: tuple[str, ...], split: int, k: int | None, *, eng: MaskEngine | None = None
) -> bool:
    """Definitional check of one claimed weak violation at (*w*, *split*).

    True when some secret state in the estimate at the split continues over
    the remaining observation while no nonsecret state there does.
    """
    eng = _engine(nfa, eng)
    if not 0 <= split <= len(w):
        return False
    if k is not None and len(w) - split > k:
        return False
    ests = eng.estimates(w)
    if ests is None:
        return False
    cont = eng.continuation_sets(ests, w)
    a = ests[split]
    c = cont[split]
    return bool(a & eng.secret & c) and not (a & eng.nonsecret & c)


def replay_strong_violation(
    nfa: Nfa, w: tuple[str, ...], k: int, *, eng: MaskEngine | None = None
) -> bool:
    """Definitional check of one claimed K-step strong violation at *w*."""
    eng = _engine(nfa, eng)
    ests = eng.estimates(w)
    if ests is None:
        return False
    cont = eng.continuation_sets(ests, w)
    anchor = max(0, len(w) - k)
    precondition = any(ests[i] & eng.secret & cont[i] for i in range(anchor, len(w) + 1))
    window = ests[anchor] & eng.nonsecret
    for event in w[anchor:]:
        window = eng.avoid_reach(window, event)
    return precondition and not window


def replay_infinite_strong_violation(
    nfa: Nfa, w: tuple[str, ...], *, eng: MaskEngine | None = None
) -> bool:
    """Definitional check of one claimed infinite-step strong violation at *w*."""
    eng = _engine(nfa, eng)
    if eng.estimates(w) is None:
        return False
    clean, dirty = _flagged_initial(eng)
    avoid = eng.ur_nonsecret(eng.initial & eng.nonsecret)
    for event in w:
        clean, dirty = _flagged_step(eng, clean, dirty, event)
        avoid = eng.avoid_reach(avoid, event)
    return bool(dirty) and not avoid


def _limit(max_states: int | None) -> float:
    return float("inf") if max_states is None else max_states


def _checked(nfa: Nfa, verdict: OracleVerdict, kind: str, k: int | None) -> OracleVerdict:
    # Replays on a fresh engine, independent of the search's memo.
    if verdict.violation is not None:
        if kind == "weak":
            ok = replay_weak_violation(nfa, verdict.violation, verdict.split, k)
        elif kind == "strong":
            ok = replay_strong_violation(nfa, verdict.violation, k)
        else:
            ok = replay_infinite_strong_violation(nfa, verdict.violation)
        if not ok:
            raise AssertionError(
                f"oracle self-check failed: {kind} violation {verdict.violation} does not replay"
            )
    return verdict


# -- K-step weak ------------------------------------------------------------


def oracle_k_step_weak(
    nfa: Nfa,
    k: int,
    cfg: OracleConfig | None = None,
    *,
    eng: MaskEngine | None = None,
    max_states: int | None = None,
) -> OracleVerdict:
    """Quantifier evaluation of the K-step weak definition.

    Every observation splits into a prefix reaching an estimate and a
    continuation of at most K observable events; the violation condition is
    evaluated per split.  Grouping observations by the estimate at the split
    makes the search exact at bound D+K, where D is the largest shortest
    access over reachable estimates.  Examining more than *max_states*
    strings, over all splits, raises ResourceLimitError.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    cfg = cfg or OracleConfig()
    eng = _engine(nfa, eng)
    order, access, depth = eng.reach_bfs()
    bound = depth + k if cfg.max_len is None else cfg.max_len
    exact = bound >= depth + k
    left = _limit(max_states)
    for a in order:
        if not a & eng.secret:
            continue
        budget = min(k, bound - len(access[a]))
        if budget < 0:
            exact = False
            continue
        if budget < k:
            exact = False
        hit, left = _weak_dfs(eng, a & eng.secret, a & eng.nonsecret, budget, left)
        if left < 0:
            raise ResourceLimitError(f"oracle k-step weak search exceeded {max_states} strings")
        if hit is not None:
            w = access[a] + hit
            return _checked(
                nfa,
                OracleVerdict(False, w, len(access[a]), bound, True),
                "weak", k,
            )
    return OracleVerdict(True, None, None, bound, exact)


def _weak_dfs(
    eng: MaskEngine, fs: int, fns: int, budget: int, left: float
) -> tuple[tuple[str, ...] | None, float]:
    # Preorder walk on an explicit stack (events in declaration order, first
    # hit wins), so a large K cannot exhaust the interpreter's recursion.
    # Returns the hit and how many more strings the cap allows (below 0:
    # the walk stopped at the cap).  A node carries its depth d and the
    # event into it.  In preorder, ``path[1:d]`` still spells the parent's
    # string when the node is popped, so one shared list, cut back to d and
    # extended by the event, spells each string in O(1); the tuple is built
    # for a hit only.
    stack = [(fs, fns, 0, None)]
    path: list[str | None] = []
    while stack:
        fs, fns, depth, event = stack.pop()
        path[depth:] = (event,)
        left -= 1
        if left < 0:
            return None, left
        if fs and not fns:
            return tuple(path[1:]), left
        if depth == budget or not fs:
            continue
        children = []
        for event in eng.events:
            ns, nns = eng.reach(fs, event), eng.reach(fns, event)
            if ns | nns:
                children.append((ns, nns, depth + 1, event))
        stack.extend(reversed(children))
    return None, left


# -- K-step strong -----------------------------------------------------------


def oracle_k_step_strong(
    nfa: Nfa,
    k: int,
    cfg: OracleConfig | None = None,
    *,
    eng: MaskEngine | None = None,
    max_states: int | None = None,
) -> OracleVerdict:
    """Quantifier evaluation of the K-step strong definition.

    For each observation the window covers its last K observable events (or
    all of them when shorter).  The check runs a full reach to the window
    anchor, intersects with the nonsecret states, then iterates the
    secret-avoiding reach; a violation needs a secret inside the window that
    continues to the end of the observation and an empty final set.
    Examining more than *max_states* strings, over all anchors, raises
    ResourceLimitError.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    cfg = cfg or OracleConfig()
    eng = _engine(nfa, eng)
    order, access, depth = eng.reach_bfs()
    bound = depth + k if cfg.max_len is None else cfg.max_len
    exact = bound >= depth + k
    left = _limit(max_states)
    start = order[0]
    for a in order:
        at_initial = a == start
        budget = min(k, bound - len(access[a]))
        if budget < k:
            exact = False
        if budget < 0:
            continue
        hit, left = _strong_dfs(eng, a, budget, k, at_initial, left)
        if left < 0:
            raise ResourceLimitError(f"oracle k-step strong search exceeded {max_states} strings")
        if hit is not None:
            w = access[a] + hit
            return _checked(
                nfa,
                OracleVerdict(False, w, max(0, len(w) - k), bound, True),
                "strong", k,
            )
    return OracleVerdict(True, None, None, bound, exact)


def _strong_dfs(
    eng: MaskEngine, anchor: int, budget: int, k: int, check_short: bool, left: float
) -> tuple[tuple[str, ...] | None, float]:
    # Preorder walk from the window anchor on an explicit stack, counted,
    # spelled and returned as in _weak_dfs.  Nodes are (estimate, secret
    # continuation, window, depth, event).
    stack = [(anchor, anchor & eng.secret, anchor & eng.nonsecret, 0, None)]
    path: list[str | None] = []
    while stack:
        estimate, sec_cont, window, depth, event = stack.pop()
        path[depth:] = (event,)
        left -= 1
        if left < 0:
            return None, left
        # Windows anchored at the initial estimate may be shorter than K; all
        # others are checked at full window length only.
        if (depth == k or (check_short and depth < k)) and sec_cont and not window:
            return tuple(path[1:]), left
        if depth >= budget:
            continue
        children = []
        for event in eng.events:
            nxt = eng.reach(estimate, event)
            if nxt:
                children.append((
                    nxt,
                    eng.reach(sec_cont, event) | (nxt & eng.secret),
                    eng.avoid_reach(window, event),
                    depth + 1,
                    event,
                ))
        stack.extend(reversed(children))
    return None, left


# -- infinite-step weak -------------------------------------------------------


def oracle_infinite_step_weak(
    nfa: Nfa, cfg: OracleConfig | None = None, *, eng: MaskEngine | None = None
) -> OracleVerdict:
    """K-step weak check with unbounded continuations.

    Continuation behavior depends only on the (secret-descended,
    nonsecret-descended) pair, so the per-root search prunes repeated pairs;
    exploration is exact once every reachable pair has been expanded.
    """
    cfg = cfg or OracleConfig()
    eng = _engine(nfa, eng)
    order, access, _ = eng.reach_bfs()
    bound = 0
    exact = True
    for a in order:
        if not a & eng.secret:
            continue
        seen: set[tuple[int, int]] = set()
        stack = [(a & eng.secret, a & eng.nonsecret, ())]
        seen.add((a & eng.secret, a & eng.nonsecret))
        while stack:
            fs, fns, path = stack.pop()
            bound = max(bound, len(access[a]) + len(path))
            if fs and not fns:
                w = access[a] + path
                return _checked(
                    nfa,
                    OracleVerdict(False, w, len(access[a]), len(w), True),
                    "weak", None,
                )
            if cfg.max_len is not None and len(access[a]) + len(path) >= cfg.max_len:
                exact = False
                continue
            for event in reversed(eng.events):
                ns, nns = eng.reach(fs, event), eng.reach(fns, event)
                if (ns | nns) and (ns, nns) not in seen:
                    seen.add((ns, nns))
                    stack.append((ns, nns, path + (event,)))
    return OracleVerdict(True, None, None, bound, exact)


# -- infinite-step strong ------------------------------------------------------


def _flagged_initial(eng: MaskEngine) -> tuple[int, int]:
    clean = eng.initial & eng.nonsecret
    dirty = eng.initial & eng.secret
    return _flagged_ur(eng, clean, dirty)


def _flagged_ur(eng: MaskEngine, clean: int, dirty: int) -> tuple[int, int]:
    # Visited-a-secret flag propagated through the unobservable closure.
    changed = True
    while changed:
        changed = False
        add_clean = add_dirty = 0
        for i in eng._bits(clean):
            t = eng.silent_tbl[i]
            add_clean |= t & eng.nonsecret
            add_dirty |= t & eng.secret
        for i in eng._bits(dirty):
            add_dirty |= eng.silent_tbl[i]
        if add_clean & ~clean:
            clean |= add_clean
            changed = True
        if add_dirty & ~dirty:
            dirty |= add_dirty
            changed = True
    return clean, dirty


def _flagged_step(eng: MaskEngine, clean: int, dirty: int, event: str) -> tuple[int, int]:
    from_clean = eng.step(clean, event)
    from_dirty = eng.step(dirty, event)
    new_clean = from_clean & eng.nonsecret
    new_dirty = from_dirty | (from_clean & eng.secret)
    return _flagged_ur(eng, new_clean, new_dirty)


def oracle_infinite_step_strong(
    nfa: Nfa, cfg: OracleConfig | None = None, *, eng: MaskEngine | None = None
) -> OracleVerdict:
    """Quantifier evaluation of the infinite-step strong definition.

    Runs that have visited a secret are tracked by flagged reachability over
    (state, visited-bit) pairs; the companion chain tracks states reachable
    from a nonsecret initial state, after nonsecret unobservable closure,
    with every post-event state nonsecret.  The search deduplicates the
    joint (flagged set, avoiding set) node, so it is exact on termination.
    """
    cfg = cfg or OracleConfig()
    eng = _engine(nfa, eng)
    clean, dirty = _flagged_initial(eng)
    avoid = eng.ur_nonsecret(eng.initial & eng.nonsecret)
    queue: list[tuple[int, int, int, tuple[str, ...]]] = [(clean, dirty, avoid, ())]
    seen = {(clean, dirty, avoid)}
    bound = 0
    exact = True
    while queue:
        clean, dirty, avoid, path = queue.pop(0)
        bound = max(bound, len(path))
        if dirty and not avoid:
            return _checked(
                nfa,
                OracleVerdict(False, path, None, len(path), True),
                "inf-strong", None,
            )
        if cfg.max_len is not None and len(path) >= cfg.max_len:
            exact = False
            continue
        for event in eng.events:
            if not eng.reach(clean | dirty, event):
                continue
            nclean, ndirty = _flagged_step(eng, clean, dirty, event)
            navoid = eng.avoid_reach(avoid, event)
            key = (nclean, ndirty, navoid)
            if key not in seen:
                seen.add(key)
                queue.append((nclean, ndirty, navoid, path + (event,)))
    return OracleVerdict(True, None, None, bound, exact)


def oracle_current_state(nfa: Nfa, cfg: OracleConfig | None = None) -> OracleVerdict:
    return oracle_k_step_weak(nfa, 0, cfg)


# -- random models -------------------------------------------------------------


def random_nfa(cfg: OracleConfig) -> Nfa:
    """Seeded, reproducible model satisfying all structural invariants.

    Guarantees at least one observable event and a nonempty initial set;
    with a positive unobservable fraction at least one event is
    unobservable.  Cycles and nondeterminism are allowed.

    The transitions are drawn as positions of the (state, event, state)
    universe in row-major order and decoded, without building the
    universe: ``random.sample`` picks from the length of its population
    alone, so the positions are those a sample of the universe would pick.
    The model is built directly; ``Nfa`` checks its structural invariants.
    """
    if cfg.n_states < 1:
        raise ModelError("random model needs at least one state")
    if cfg.n_events < 1:
        raise ModelError("random model needs at least one event")
    rng = random.Random(cfg.seed)
    n, m = cfg.n_states, cfg.n_events
    states = tuple(str(i) for i in range(n))
    observable = [rng.random() >= cfg.unobservable_fraction for _ in range(m)]
    if not any(observable):
        observable[0] = True
    if cfg.unobservable_fraction > 0 and all(observable) and m > 1:
        observable[-1] = False
    names = [f"e{i}" for i in range(m)]
    universe = n * m * n
    wanted = max(1, round(cfg.density * n))
    # Sorted as the names sort, as the universe's triples would be.
    transitions = sorted(
        (states[p // (m * n)], names[p // n % m], states[p % n])
        for p in rng.sample(range(universe), min(wanted, universe))
    )
    size = 2 if n > 1 and rng.random() < 0.3 else 1
    initial = rng.sample(states, size)
    secret = tuple(s for s in states if rng.random() < cfg.secret_fraction)
    return Nfa(
        states=states,
        events=tuple(map(Event, names, observable)),
        transitions=tuple(transitions),
        initial=tuple(sorted(initial)),
        secret=secret,
    )
