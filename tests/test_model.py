from __future__ import annotations

from types import MappingProxyType

import pytest

from opaq import ModelError, OracleConfig, validate_model

from conftest import g2_dict
from reference import project


def test_g2_loads(g2):
    assert len(g2.states) == 10
    assert len(g2.events) == 4
    assert g2.initial == ("0",)
    assert g2.secret == ("1", "5", "9")
    assert g2.nonsecret == ("0", "2", "3", "4", "6", "7", "8")


def test_any_mapping_is_a_model_and_a_list_is_not(g2):
    raw = g2_dict()
    raw["events"] = [MappingProxyType(event) for event in raw["events"]]
    assert validate_model(MappingProxyType(raw)) == g2
    with pytest.raises(ModelError, match="^model must be a JSON object$"):
        validate_model(list(raw.items()))


def test_transition_from_undeclared_state_names_it():
    raw = g2_dict()
    raw["transitions"].append(["99", "a", "0"])
    with pytest.raises(ModelError, match="99"):
        validate_model(raw)


def test_empty_initial_set_rejected():
    raw = g2_dict()
    raw["initial"] = []
    with pytest.raises(ModelError, match="empty initial"):
        validate_model(raw)


def test_unknown_fields_rejected():
    raw = g2_dict()
    raw["extra"] = 1
    with pytest.raises(ModelError, match="unknown model fields"):
        validate_model(raw)


def test_duplicate_states_rejected():
    raw = g2_dict()
    raw["states"].append("0")
    with pytest.raises(ModelError, match="duplicate state"):
        validate_model(raw)


def test_duplicate_transitions_rejected():
    raw = g2_dict()
    raw["transitions"].append(["0", "a", "1"])
    with pytest.raises(ModelError, match="duplicate transitions"):
        validate_model(raw)


def test_undeclared_event_rejected():
    raw = g2_dict()
    raw["transitions"].append(["0", "z", "1"])
    with pytest.raises(ModelError, match="'z'"):
        validate_model(raw)


def test_secret_member_must_be_declared():
    raw = g2_dict()
    raw["secret"] = ["1", "42"]
    with pytest.raises(ModelError, match="42"):
        validate_model(raw)


def test_event_entries_must_be_name_observable_objects():
    raw = g2_dict()
    raw["events"][0] = {"name": "a"}
    with pytest.raises(ModelError, match="events\\[0\\]"):
        validate_model(raw)


def test_state_set_is_canonical(g2):
    assert g2.state_set(["9", "1", "5", "1"]) == ("1", "5", "9")
    with pytest.raises(ModelError):
        g2.state_set(["nope"])


def test_project_identity_when_everything_observable(g2):
    assert project(g2, ("a", "b", "c")) == ("a", "b", "c")


def test_project_deletes_unobservable(g8frag):
    assert project(g8frag, ("b", "a")) == ("a",)


def test_project_empty_string(g2, g8frag):
    assert project(g2, ()) == ()
    assert project(g8frag, ()) == ()


def test_project_rejects_undeclared_event(g2):
    with pytest.raises(ModelError, match="'x'"):
        project(g2, ("a", "x"))


TRIPLE_MESSAGE = "transitions\\[12\\] must be a \\[src, event, dst\\] triple of strings"


@pytest.mark.parametrize(
    "entry",
    [
        {"src": "0", "event": "a", "dst": "1"},
        "0a1",
        ["0", "a"],
        ["0", "a", "1", "2"],
        [0, "a", "1"],
        ["0", None, "1"],
        ["0", "a", ["1"]],
    ],
    ids=["dict", "string", "length-2", "length-4", "int-src", "null-event", "list-dst"],
)
def test_malformed_transitions_name_their_index(entry):
    raw = g2_dict()
    raw["transitions"].append(entry)
    with pytest.raises(ModelError, match=TRIPLE_MESSAGE):
        validate_model(raw)


def test_tuple_transitions_are_accepted(g2):
    raw = g2_dict()
    raw["transitions"] = [tuple(t) for t in raw["transitions"]]
    assert validate_model(raw) == g2


def test_a_model_is_an_immutable_value(g2):
    # Equal fields give equal models with equal hashes; any field differing
    # (here only the secret) makes them unequal, and no field can be set.
    again = validate_model(g2_dict())
    assert again == g2 and hash(again) == hash(g2) and again is not g2
    raw = g2_dict()
    raw["secret"] = ["1"]
    assert validate_model(raw) != g2
    for name in ("states", "secret", "_rows"):
        with pytest.raises(AttributeError):
            setattr(g2, name, ())
    with pytest.raises(AttributeError):
        del g2.secret
    assert g2.secret == ("1", "5", "9")


def test_the_generator_config_keeps_its_defaults():
    assert OracleConfig() == OracleConfig(
        n_states=4, n_events=3, unobservable_fraction=0.25, secret_fraction=0.3, density=1.8, seed=0
    )
    cfg = OracleConfig(seed=7)
    assert (cfg.n_states, cfg.density, cfg.seed) == (4, 1.8, 7)
