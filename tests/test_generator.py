"""The random-model generator against its universe-based reference.

``random_nfa`` samples positions of the (state, event, state) universe and
decodes them; the reference below is the generator as it was written
first, sampling the universe list itself and validating the result as a
raw model.  ``random.sample`` picks by position from the population's
length alone, so the two must give the same model field for field.
"""

from __future__ import annotations

import random

import pytest

from opaq import OracleConfig, random_nfa, validate_model
from opaq.core import ModelError
from opaq.crosscheck import model_config


def reference_random_nfa(cfg: OracleConfig):
    if cfg.n_states < 1:
        raise ModelError("random model needs at least one state")
    if cfg.n_events < 1:
        raise ModelError("random model needs at least one event")
    rng = random.Random(cfg.seed)
    states = [str(i) for i in range(cfg.n_states)]
    observable = [rng.random() >= cfg.unobservable_fraction for _ in range(cfg.n_events)]
    if not any(observable):
        observable[0] = True
    if cfg.unobservable_fraction > 0 and all(observable) and cfg.n_events > 1:
        observable[-1] = False
    events = [
        {"name": f"e{i}", "observable": observable[i]} for i in range(cfg.n_events)
    ]
    universe = [
        (s, e["name"], t) for s in states for e in events for t in states
    ]
    wanted = max(1, round(cfg.density * cfg.n_states))
    transitions = [list(t) for t in sorted(rng.sample(universe, min(wanted, len(universe))))]
    size = 2 if cfg.n_states > 1 and rng.random() < 0.3 else 1
    initial = rng.sample(states, size)
    secret = [s for s in states if rng.random() < cfg.secret_fraction]
    return validate_model(
        {
            "states": states,
            "events": events,
            "initial": sorted(initial),
            "secret": secret,
            "transitions": transitions,
        }
    )


FIELDS = ("states", "events", "transitions", "initial", "secret")


def assert_same_model(cfg):
    got, expected = random_nfa(cfg), reference_random_nfa(cfg)
    for name in FIELDS:
        assert getattr(got, name) == getattr(expected, name), (cfg, name)
    assert got == expected


def test_batch_models_equal_the_reference():
    for i in range(2000):
        assert_same_model(model_config(7, i, 8))


@pytest.mark.parametrize(
    "cfg",
    [
        OracleConfig(n_states=1, n_events=3, seed=1),
        OracleConfig(n_states=5, n_events=1, unobservable_fraction=0.5, seed=2),
        OracleConfig(n_states=1, n_events=1, seed=3),
        # Past ten states and events the names sort as strings, not as numbers.
        OracleConfig(n_states=12, n_events=11, density=4.0, seed=4),
    ],
    ids=["one-state", "one-event", "one-of-each", "two-digit-names"],
)
def test_edge_configs_equal_the_reference(cfg):
    assert_same_model(cfg)


@pytest.mark.parametrize("n_states, n_events", [(1, 1), (2, 2), (3, 2)])
def test_a_sample_of_the_whole_universe_equals_the_reference(n_states, n_events):
    universe = n_states * n_events * n_states
    for seed in range(20):
        cfg = OracleConfig(n_states=n_states, n_events=n_events, density=universe + 1.0, seed=seed)
        assert len(random_nfa(cfg).transitions) == universe
        assert_same_model(cfg)


def test_degenerate_configs_are_rejected_alike():
    for cfg in (OracleConfig(n_states=0), OracleConfig(n_events=0)):
        for generate in (random_nfa, reference_random_nfa):
            with pytest.raises(ModelError):
                generate(cfg)
