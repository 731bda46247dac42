"""The crosscheck batch's construction verdicts and structural tree checks.

The batch runs one weak walk and one K-step strong walk per model and reads
every K's verdict off them: the walk's verdict when its first empty node
lies at depth <= K, opaque otherwise.  The tree checks build no tree: a
per-root path count gives the node count of both tree kinds at every K, and
one SST pair walk per root gives the depth at which an empty second
component refills.  These tests pin both derivations against the per-K
searches and against trees built one per (root, K).  The verifier walk's
projection check, stepped by the oracle engine, is pinned against three
mutants of the walk's side.
"""

from __future__ import annotations

import inspect
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opaq.crosscheck as crosscheck
import opaq.projection
import opaq.strong
import opaq.weak
from opaq import (
    build_observer,
    build_sst,
    build_weak_state_tree,
    random_nfa,
    validate_model,
    verify_current_state_opacity,
    verify_infinite_step_weak,
    verify_k_step_strong,
    verify_k_step_weak,
)
from opaq.core import ResourceLimitError, row_table, set_step
from opaq.crosscheck import BatchResult, model_config, run_crosscheck
from opaq.oracle import MaskEngine
from opaq.weak import StateTree, TreeNode, Verdict, Witness, _grow_tree, secret_intersecting_roots

from conftest import g2_dict, hidden_crossing_dict, structural_checks
from test_reach import small_models

KS = (0, 1, 2, 3)


@settings(max_examples=150, deadline=None)
@given(nfa=small_models())
def test_one_walk_per_family_gives_every_k(nfa):
    obs = build_observer(nfa)
    weak = verify_infinite_step_weak(nfa, obs)
    strong = verify_k_step_strong(nfa, 8, obs)
    assert crosscheck._at_depth(weak, 0) == verify_current_state_opacity(nfa, obs)
    for k in range(9):
        assert crosscheck._at_depth(weak, k) == verify_k_step_weak(nfa, k, obs)
        assert crosscheck._at_depth(strong, k) == verify_k_step_strong(nfa, k, obs)


def secret_chain(n):
    """A secret and a nonsecret chain of length n behind one ``a``; only the secret one ends in ``c``."""
    s = [f"s{i}" for i in range(1, n + 1)]
    t = [f"t{i}" for i in range(1, n + 1)]
    transitions = [["0", "a", "s1"], ["0", "a", "t1"], [s[-1], "c", "u"]]
    for chain in (s, t):
        transitions += [[src, "b", dst] for src, dst in zip(chain, chain[1:])]
    return validate_model(
        {
            "states": ["0", *s, *t, "u"],
            "events": [{"name": e, "observable": True} for e in "abc"],
            "initial": ["0"],
            "secret": ["s1"],
            "transitions": transitions,
        }
    )


@pytest.mark.parametrize("n", range(1, 13))
def test_secret_chain_first_fails_at_its_length(n):
    nfa = secret_chain(n)
    obs = build_observer(nfa)
    weak = verify_infinite_step_weak(nfa, obs)
    strong = verify_k_step_strong(nfa, n + 1, obs)
    assert verify_current_state_opacity(nfa, obs).opaque
    for family, search in ((weak, verify_k_step_weak), (strong, verify_k_step_strong)):
        for k in range(n + 2):
            assert crosscheck._at_depth(family, k) == search(nfa, k, obs)
            assert crosscheck._at_depth(family, k).opaque == (k < n)
        assert family.witness.prefix == ("a",)
        assert family.witness.continuation == ("b",) * (n - 1) + ("c",)


def emptiness_absorbing(tree) -> bool:
    # Reference: no node with a nonempty x2 below a node with an empty one.
    children: dict[int, list] = {}
    for src, _, dst in tree.edges:
        children.setdefault(id(src), []).append(dst)
    stack = [(tree.root, False)]
    while stack:
        node, saw_empty = stack.pop()
        if saw_empty and node.x2:
            return False
        for child in children.get(id(node), ()):
            stack.append((child, saw_empty or not node.x2))
    return True


def per_k_failures(seed, ks, n_eo, roots, weak_tree, sst):
    """(cap, absorbing) messages of the tree checks made on one built tree per (root, K)."""
    cap_failures, absorbing_failures = [], []
    for k in ks:
        cap = sum(n_eo**i for i in range(k + 1))
        for root in roots:
            if weak_tree(root, k).node_count > cap:
                cap_failures.append(f"seed {seed}: weak tree exceeds node cap at k={k}")
            tree = sst(root, k)
            if tree.node_count > cap:
                cap_failures.append(f"seed {seed}: sst exceeds node cap at k={k}")
            if not emptiness_absorbing(tree):
                absorbing_failures.append(f"seed {seed}: sst emptiness not absorbing at k={k}")
    return cap_failures, absorbing_failures


def tree_failures(nfa, seed, ks, obs):
    result = BatchResult()
    structural_checks(nfa, seed, ks, result, obs, verify_infinite_step_weak(nfa, obs))
    return result.cap_failures, result.absorbing_failures


def refill_of(tree, top):
    """Least depth of a tree edge from an empty x2 to a nonempty one (top + 1: none)."""
    return min((d.depth for s, _, d in tree.edges if d.x2 and not s.x2), default=top + 1)


@settings(max_examples=100, deadline=None)
@given(nfa=small_models())
def test_structural_checks_equal_the_checks_on_built_trees(nfa):
    obs = build_observer(nfa)
    roots = secret_intersecting_roots(nfa, obs)
    expected = per_k_failures(
        5, KS, len(nfa.observable_events), roots,
        lambda root, k: build_weak_state_tree(nfa, obs, root, k),
        lambda root, k: build_sst(nfa, obs, root, k),
    )
    assert tree_failures(nfa, 5, KS, obs) == expected


def leaky(table):
    # A step table whose empty x2 refills with the target's nonsecret part
    # (the walk masks it by the estimate), so emptiness is not absorbing.
    return [lambda x2, step=step: step(x2) if x2 else table.nonsecret for step in table.avoid_steps]


@settings(max_examples=100, deadline=None)
@given(nfa=small_models(), k=st.integers(0, 3))
def test_counts_and_refill_equal_the_built_trees(nfa, k):
    obs = build_observer(nfa)
    table = row_table(nfa)
    counts = list(crosscheck._node_counts(obs, 3))
    assert len(counts) == 4
    for root in secret_intersecting_roots(nfa, obs):
        i = obs.index[root]
        assert counts[k][i] == build_weak_state_tree(nfa, obs, root, k).node_count
        assert counts[k][i] == build_sst(nfa, obs, root, k).node_count
        m = obs.masks[i]
        for steps in (table.avoid_steps, leaky(table)):
            tree = _grow_tree(table, obs, (i, m, m & table.nonsecret), k, steps)
            assert crosscheck._refill_depth(obs, steps, i, m & table.nonsecret, k) == refill_of(tree, k)


def test_a_leaky_step_table_refills_an_empty_x2(g2):
    # From {1,4,7}, ``b c`` empties x2 at depth 2; the leaky table refills
    # it on the ``d`` at depth 3, which the SST steps never do.
    obs = build_observer(g2)
    table = row_table(g2)
    i = obs.index[("1", "4", "7")]
    m = obs.masks[i]
    x2 = m & table.nonsecret
    assert crosscheck._refill_depth(obs, table.avoid_steps, i, x2, 3) == 4
    assert crosscheck._refill_depth(obs, leaky(table), i, x2, 3) == 3
    tree = _grow_tree(table, obs, (i, m, m & table.nonsecret), 3, leaky(table))
    assert refill_of(tree, 3) == 3


def shape(tree, k):
    """Nodes of depth <= k as (x1, x2, depth), and edges between them as (src, event, dst) positions."""
    kept = [node for node in tree.nodes if node.depth <= k]
    position = {id(node): i for i, node in enumerate(kept)}
    edges = [
        (position[id(src)], event, position[id(dst)])
        for src, event, dst in tree.edges
        if dst.depth <= k
    ]
    return [(node.x1, node.x2, node.depth) for node in kept], edges


@settings(max_examples=100, deadline=None)
@given(nfa=small_models(), k=st.integers(0, 3))
def test_tree_at_k_is_the_depth_k_prefix_of_the_tree_at_3(nfa, k):
    obs = build_observer(nfa)
    for root in secret_intersecting_roots(nfa, obs):
        weak = build_weak_state_tree(nfa, obs, root, k)
        assert shape(build_weak_state_tree(nfa, obs, root, 3), k) == shape(weak, k)
        sst = build_sst(nfa, obs, root, k)
        assert shape(build_sst(nfa, obs, root, 3), k) == shape(sst, k)


def broom(root_state, k, fan, refill):
    """Level-order tree of depth *k* with *fan* children per node.

    x2 is empty at depth ``refill - 1`` only, so edges from an empty x2 to a
    nonempty one end at depth *refill* (None: x2 is never empty).
    """

    def node(depth):
        empty = refill is not None and depth == refill - 1
        return TreeNode(("s",), () if empty else ("n",), depth)

    root = node(0)
    nodes, edges, frontier = [root], [], [root]
    for depth in range(1, k + 1):
        nxt = []
        for parent in frontier:
            for _ in range(fan):
                child = node(depth)
                nodes.append(child)
                edges.append((parent, "a", child))
                nxt.append(child)
        frontier = nxt
    return StateTree(root_state, root, tuple(nodes), tuple(edges))


# Both kinds of tree have the shape of the observer's paths from the root,
# so a weak tree and an SST always share their fan.
@pytest.mark.parametrize(
    "weak_fan, sst_fan, refill",
    [(5, 5, 1), (1, 1, 2), (5, 5, 3), (1, 1, None), (4, 4, 1)],
)
def test_structural_failures_are_unchanged(g2, monkeypatch, weak_fan, sst_fan, refill):
    # g2 has three secret-intersecting roots and four observable events, so
    # a fan of 5 breaks the node cap at every k >= 1 and a fan of 4 meets it.
    # The per-root count and the SST walk report the brooms' shape.
    monkeypatch.setattr(
        crosscheck, "_node_counts",
        lambda obs, top: [[broom((), k, weak_fan, None).node_count] * len(obs.masks) for k in range(top + 1)],
    )
    monkeypatch.setattr(
        crosscheck, "_refill_depth",
        lambda obs, steps, i, x2, top, max_states=None: refill_of(broom((), top, sst_fan, refill), top),
    )
    obs = build_observer(g2)
    roots = secret_intersecting_roots(g2, obs)
    assert len(roots) == 3
    cap, absorbing = tree_failures(g2, 9, KS, obs)
    assert (cap, absorbing) == per_k_failures(
        9, KS, len(g2.observable_events), roots,
        lambda root, k: broom(root, k, weak_fan, None),
        lambda root, k: broom(root, k, sst_fan, refill),
    )

    expected_cap = []
    for k in KS:
        per_root = []
        if weak_fan > 4 and k >= 1:
            per_root.append(f"seed 9: weak tree exceeds node cap at k={k}")
        if sst_fan > 4 and k >= 1:
            per_root.append(f"seed 9: sst exceeds node cap at k={k}")
        expected_cap += per_root * len(roots)
    assert cap == expected_cap
    assert absorbing == [
        f"seed 9: sst emptiness not absorbing at k={k}"
        for k in KS
        if refill is not None and k >= refill
        for _ in roots
    ]


def test_a_large_k_top_holds_one_level_of_node_counts():
    # Seed 45's model has 23 estimates over 3 observable events, and its
    # per-estimate path counts grow as 3^k.  Held for all 1,501 levels, the
    # counts peaked at about 6.8 MB over the batch; stepped one level at a
    # time, at about 1.2 MB, most of it the 3,000 report rows.
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = run_crosscheck(models=1, max_states=8, ks=tuple(range(1501)), seed=45)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert result.ok and len(result.rows) == 3 + 2 * 1501
    assert peak < 3_000_000


def test_the_batch_builds_no_tree(monkeypatch):
    def refuse(*args):
        raise AssertionError("crosscheck built a tree")

    monkeypatch.setattr(opaq.weak, "_grow_tree", refuse)
    monkeypatch.setattr(opaq.strong, "_grow_tree", refuse)
    result = run_crosscheck(models=100, max_states=8, ks=KS, seed=7)
    assert result.ok
    roots = sum(
        len(secret_intersecting_roots(nfa, build_observer(nfa)))
        for nfa in (random_nfa(model_config(7, i, 8)) for i in range(100))
    )
    assert roots > 0


def test_the_batch_builds_no_sipa(monkeypatch):
    # The size caps read the tagged automaton's counts off the row table.
    def refuse(*args, **kwargs):
        raise AssertionError("crosscheck built a SIPA")

    monkeypatch.setattr(opaq.projection, "build_sipa", refuse)
    result = run_crosscheck(models=100, max_states=8, ks=KS, seed=7)
    assert result.ok
    assert len(result.rows) == 100 * 11


def test_the_batch_builds_no_verifier_automaton(monkeypatch):
    # One verifier walk with edges per model gives the inf-strong row, the
    # 4^|X| cap and the projection check.
    def refuse(*args, **kwargs):
        raise AssertionError("crosscheck built a verifier automaton")

    monkeypatch.setattr(opaq.strong, "build_verifier", refuse)
    monkeypatch.setattr(crosscheck, "build_verifier", refuse, raising=False)
    walks = []
    run = opaq.strong.walk_verifier

    def recorded(nfa, obs=None, max_states=None, *, edges=None):
        walks.append(edges is not None)
        return run(nfa, obs, max_states, edges=edges)

    # The batch calls the walk by its own name.
    monkeypatch.setattr(crosscheck, "walk_verifier", recorded)
    result = run_crosscheck(models=100, max_states=8, ks=KS, seed=7)
    assert result.ok
    assert len(result.rows) == 100 * 11
    assert walks == [True] * 100


CAPPED = (
    "build_observer", "verify_infinite_step_weak", "verify_k_step_strong", "walk_verifier",
    "verify_k_step_weak", "_explore",
)


def test_every_batch_construction_gets_the_state_cap(monkeypatch):
    # The observer, the inf-weak and K-step strong walks, the verifier walk,
    # the refill walks and the weak-bound walk.
    caps = {}
    for name in CAPPED:
        fn = getattr(crosscheck, name)

        def recorded(*args, fn=fn, name=name, **kwargs):
            bound = inspect.signature(fn).bind(*args, **kwargs)
            caps.setdefault(name, set()).add(bound.arguments.get("max_states"))
            return fn(*args, **kwargs)

        monkeypatch.setattr(crosscheck, name, recorded)
    assert run_crosscheck(models=10, max_states=5, ks=KS, seed=7, state_cap=999).ok
    assert caps == {name: {999} for name in CAPPED}


def test_a_tiny_state_cap_stops_the_batch_at_the_observer():
    # Seed 5's first model has 12 estimates.
    with pytest.raises(ResourceLimitError, match="^observer exceeded 4 states$"):
        run_crosscheck(models=1, max_states=5, ks=KS, seed=5, state_cap=4)


# -- criterion 4: the projection check against mutants -------------------------
#
# g2's verifier walk is ({0},{0}) -a-> ({1,4,7},{4,7}) -b-> ({2,5,8},{8})
# -c-> ({3,6,9},{}) -d-> itself.  Each mutant breaks one step of the walk's
# side; the oracle engine, built from the model's transitions, does not
# share it.


def mutated_g2(family, e, x, row):
    """g2 with the row table's *family* row of state *x* under event *e* replaced by *row*."""
    nfa = validate_model(g2_dict())
    table = row_table(nfa)
    getattr(table, family)[e][x] = row
    setattr(table, f"{family}_steps", tuple(map(set_step, getattr(table, family), table.support)))
    return nfa


def projection_failures(nfa, drop=None):
    obs = build_observer(nfa)
    edges = []
    _, walk = opaq.strong.walk_verifier(nfa, obs, edges=edges)
    if drop is not None:
        del edges[drop]
    result = BatchResult()
    crosscheck._structural_checks(
        nfa, 0, KS, result, obs, verify_infinite_step_weak(nfa, obs), MaskEngine(nfa), walk, edges
    )
    return result.projection_failures


@pytest.mark.parametrize(
    "mutant, message",
    [
        # The b edge out of ({1,4,7},{4,7}) is lost.
        (lambda: projection_failures(validate_model(g2_dict()), drop=1),
         "transition definedness mismatch at ({1,4,7},{4,7}) on 'b'"),
        # 7's avoid row under b loses 8, so the walk's x2 after ``a b`` is {}.
        (lambda: projection_failures(mutated_g2("avoid", 1, 7, 0)),
         "transition x2 mismatch at ({1,4,7},{4,7}) on 'b': the oracle's secret-avoiding step gives {8}"),
        # 0's reach row under a loses 7, so the observer moves to {1,4}.
        (lambda: projection_failures(mutated_g2("reach", 0, 0, 0b10010)),
         "transition target mismatch at ({0},{0}) on 'a'"),
    ],
    ids=["dropped-edge", "wrong-avoid-row", "wrong-reach-target"],
)
def test_each_mutant_fails_the_projection_check(mutant, message):
    failures = mutant()
    assert failures == [f"seed 0: verifier/observer projection failed: {message}"]


@settings(max_examples=100, deadline=None)
@given(nfa=small_models())
def test_the_projection_check_passes_on_every_model(nfa):
    obs = build_observer(nfa)
    edges = []
    verdict, walk = opaq.strong.walk_verifier(nfa, obs, edges=edges)
    assert crosscheck._projection_problems(obs, walk, edges, MaskEngine(nfa)) == []
    assert verdict == opaq.strong.verify_infinite_step_strong(nfa, obs)


def test_the_batch_walks_inf_weak_once_per_model(monkeypatch):
    # The weak-bound check compares the rows' inf-weak verdict with its own
    # bounded walk rather than walking the unbounded one again.
    calls = []
    walk = crosscheck.verify_infinite_step_weak

    def counted(nfa, obs=None, max_states=None):
        calls.append(nfa)
        return walk(nfa, obs, max_states)

    bounded = []
    k_walk = crosscheck.verify_k_step_weak

    def counted_k(nfa, k, obs=None, max_states=None):
        bounded.append(k)
        return k_walk(nfa, k, obs, max_states)

    monkeypatch.setattr(crosscheck, "verify_infinite_step_weak", counted)
    monkeypatch.setattr(crosscheck, "verify_k_step_weak", counted_k)
    result = run_crosscheck(models=100, max_states=8, ks=KS, seed=7)
    assert result.ok
    assert len(calls) == 100
    assert len({id(nfa) for nfa in calls}) == 100
    # The bounded walk runs on every model, at K = 2^|X| - 2.
    models = [random_nfa(model_config(7, i, 8)) for i in range(100)]
    assert bounded == [2 ** len(nfa.states) - 2 for nfa in models]
    assert max(len(nfa.states) for nfa in models) > 4


def test_weak_bound_check_compares_the_given_verdict():
    # The model is opaque at every K, and a verdict passed in that says
    # otherwise is reported.
    nfa = validate_model(
        {
            "states": ["0", "1"],
            "events": [{"name": "a", "observable": True}],
            "initial": ["0", "1"],
            "secret": ["0"],
            "transitions": [["0", "a", "0"], ["1", "a", "1"]],
        }
    )
    obs = build_observer(nfa)
    infinite = verify_infinite_step_weak(nfa, obs)
    assert infinite.opaque
    result = BatchResult()
    structural_checks(nfa, 3, KS, result, obs, infinite)
    assert result.weak_bound_failures == []
    stale = Verdict(False, Witness((), (), (("0",), ())))
    structural_checks(nfa, 3, KS, result, obs, stale)
    assert result.weak_bound_failures == [
        "seed 3: weak verdict at k=2^|X|-2 disagrees with the infinite check"
    ]


def test_structural_checks_run_at_k_1500(g2):
    # On g2 the node caps 1 + 4 + ... + 4^k are the large numbers; on the
    # two-loop model the depth-1500 trees would hold 2^1501 - 1 nodes each.
    two_loops = validate_model(
        {
            "states": ["0", "1"],
            "events": [{"name": e, "observable": True} for e in "ab"],
            "initial": ["0", "1"],
            "secret": ["0"],
            "transitions": [[s, e, s] for s in "01" for e in "ab"],
        }
    )
    for nfa in (g2, two_loops):
        result = BatchResult()
        obs = build_observer(nfa)
        structural_checks(nfa, 0, tuple(range(1501)), result, obs, verify_infinite_step_weak(nfa, obs))
        assert result.structural_failures == []


def sweep(verdicts, search):
    # The oracle asked at every K, as the batch did before it probed.
    return {k: search(k) for k in verdicts}


def count_oracle_calls(monkeypatch):
    """Wrap the batch's K-step oracle searches; the list gets (family, model, K) per call.

    Holding each model keeps its id from being reused within the batch.
    """
    calls = []
    for family, name in (("weak", "oracle_k_step_weak"), ("strong", "oracle_k_step_strong")):
        search = getattr(crosscheck, name)

        def counted(nfa, k, *args, family=family, search=search, **kwargs):
            calls.append((family, nfa, k))
            return search(nfa, k, *args, **kwargs)

        monkeypatch.setattr(crosscheck, name, counted)
    return calls


def test_the_batch_asks_the_oracle_at_two_k_per_family(monkeypatch):
    calls = count_oracle_calls(monkeypatch)
    probed = run_crosscheck(models=100, max_states=8, ks=KS, seed=7)
    assert probed.ok
    per_family = {}
    for family, nfa, _ in calls:
        per_family[family, id(nfa)] = per_family.get((family, id(nfa)), 0) + 1
    assert len(per_family) == 200
    assert max(per_family.values()) == 2
    assert len(calls) < 300
    monkeypatch.setattr(crosscheck, "_oracle_at", sweep)
    assert run_crosscheck(models=100, max_states=8, ks=KS, seed=7).rows == probed.rows


def test_a_disagreement_asks_every_k(tmp_path, monkeypatch):
    # The hidden-crossing model violates k-strong at K >= 1; the strong walk
    # made to say opaque disagrees with the probe at K = 3, so the batch
    # asks the oracle at every other K and reports as a per-K sweep does.
    monkeypatch.setattr(crosscheck, "random_nfa", lambda cfg: validate_model(hidden_crossing_dict()))
    monkeypatch.setattr(crosscheck, "verify_k_step_strong", lambda *args, **kwargs: Verdict(True))
    calls = count_oracle_calls(monkeypatch)
    probed = run_crosscheck(models=1, max_states=4, ks=KS, seed=0, fixtures_dir=str(tmp_path / "probed"))
    assert [k for family, _, k in calls if family == "strong"] == [3, 0, 1, 2]
    assert [k for family, _, k in calls if family == "weak"] == [3]
    monkeypatch.setattr(crosscheck, "_oracle_at", sweep)
    swept = run_crosscheck(models=1, max_states=4, ks=KS, seed=0, fixtures_dir=str(tmp_path / "swept"))
    assert [(r["k"], r["oracle_opaque"]) for r in probed.disagreements] == [(1, False), (2, False), (3, False)]
    assert probed.rows == swept.rows
    assert probed.disagreements == swept.disagreements
    names = sorted(p.name for p in (tmp_path / "probed").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "swept").iterdir())
    for name in names:
        assert (tmp_path / "probed" / name).read_text() == (tmp_path / "swept" / name).read_text()


def test_an_empty_k_range_is_rejected():
    with pytest.raises(ValueError, match="empty"):
        run_crosscheck(models=1, max_states=2, ks=(), seed=0)
