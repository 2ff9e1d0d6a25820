"""File formats: round trips, family detection, and malformed inputs."""

from __future__ import annotations

import json

import pytest

from awarekit.awareness import AwarenessModel
from awarekit.errors import ModelFormatError
from awarekit.fixtures import fig1L as load_fig1L, fixture_path
from awarekit.gen import gen_fh, gen_hms, gen_implicit
from awarekit.implicit import implicit_from_complemented
from awarekit.modelio import (
    data_to_model,
    dumps_model,
    load_model,
    model_to_data,
    parse_proof,
    parse_state_token,
    proof_line_to_json,
    save_model,
    state_token,
    lattice_dot,
)
from awarekit.transforms import hms_transform
from awarekit.unawareness import StateRef
from conftest import PQ, ref


def test_fixture_loads_as_complemented(fig1L):
    assert fig1L.family == "complemented"


def test_fixture_file_round_trips():
    raw = json.loads(fixture_path("fig1L.model").read_text())
    model = data_to_model(raw)
    assert model_to_data(model) == json.loads(dumps_model(model))


def _bare_pi(seed: int):
    data = model_to_data(gen_hms(seed))
    del data["lambda"]
    return data_to_model(data)


@pytest.mark.parametrize("family,build", [
    ("fh", lambda seed: gen_fh(seed)),
    ("hms", lambda seed: gen_hms(seed)),
    ("implicit", lambda seed: gen_implicit(seed)),
    ("unawareness", lambda seed: _bare_pi(seed)),
])
def test_serialization_round_trip(family, build, tmp_path):
    """Saving and loading keeps the model and its family, and dumping the
    loaded model gives the saved bytes back."""
    for seed in range(10):
        model = build(seed)
        path = tmp_path / f"{family}{seed}.model"
        save_model(model, path)
        loaded = load_model(path)
        assert type(loaded) is type(model) and loaded.family == model.family
        assert model_to_data(loaded) == model_to_data(model)
        assert dumps_model(loaded) == path.read_text(encoding="utf-8")


def test_family_detection(fig1L):
    data = model_to_data(fig1L)
    assert data_to_model(data).family == "complemented"
    data.pop("lambda")
    assert data_to_model(data).family == "unawareness"
    implicit = implicit_from_complemented(load_fig1L())
    assert data_to_model(model_to_data(implicit)).family == "implicit"


def test_mixed_primitives_rejected(fig1L):
    """Every shape of lattice primitives but pi, pi and lambda, and
    lambda_star and alpha is a format error."""
    complemented = model_to_data(fig1L)
    implicit = model_to_data(implicit_from_complemented(fig1L))

    def without(data: dict, name: str) -> dict:
        return {key: value for key, value in data.items() if key != name}

    shapes = {
        "pi with lambda_star": {**complemented, "lambda_star": complemented["lambda"]},
        "lambda without pi": without(complemented, "pi"),
        "lambda_star without alpha": without(implicit, "alpha"),
        "alpha without lambda_star": without(implicit, "lambda_star"),
        "pi with alpha": {**without(complemented, "lambda"), "alpha": implicit["alpha"]},
    }
    for shape, data in shapes.items():
        with pytest.raises(ModelFormatError):
            data_to_model(data)
            pytest.fail(f"{shape} was accepted")


def test_missing_space_rejected(fig1L):
    data = model_to_data(fig1L)
    del data["spaces"]["q"]
    with pytest.raises(ModelFormatError):
        data_to_model(data)


def test_missing_projection_rejected(fig1L):
    data = model_to_data(fig1L)
    del data["projections"]["p->"]
    with pytest.raises(ModelFormatError):
        data_to_model(data)


def test_partial_projection_rejected(fig1L):
    data = model_to_data(fig1L)
    del data["projections"]["p,q->p"]["pq"]
    with pytest.raises(ModelFormatError):
        data_to_model(data)


def test_dangling_possibility_state_rejected(fig1L):
    data = model_to_data(fig1L)
    data["pi"]["1"]["p,q:pq"] = ["p:ghost"]
    with pytest.raises(ModelFormatError):
        data_to_model(data)


def test_empty_possibility_set_rejected(fig1L):
    data = model_to_data(fig1L)
    data["pi"]["1"]["p,q:pq"] = []
    with pytest.raises(ModelFormatError):
        data_to_model(data)


def test_empty_state_id_rejected():
    data = {
        "atoms": ["p"], "agents": ["1"],
        "spaces": {"": [""], "p": ["w0"]},
        "projections": {"p->": {"w0": ""}},
        "valuation": {"p": {"base_space": "p", "base": ["w0"]}},
        "pi": {"1": {":": [":"], "p:w0": ["p:w0"]}},
    }
    with pytest.raises(ModelFormatError, match="empty state id in space ''"):
        data_to_model(data)


def test_valuation_must_be_total(fig1L):
    data = model_to_data(fig1L)
    del data["valuation"]["q"]
    with pytest.raises(ModelFormatError):
        data_to_model(data)


def test_atom_cap_enforced(monkeypatch, fig1L):
    monkeypatch.setenv("AWAREKIT_MAX_ATOMS", "1")
    data = model_to_data(fig1L)
    with pytest.raises(ModelFormatError):
        data_to_model(data)
    monkeypatch.setenv("AWAREKIT_MAX_ATOMS", "2")
    assert data_to_model(data).family == "complemented"
    monkeypatch.setenv("AWAREKIT_MAX_ATOMS", "zero")
    with pytest.raises(ModelFormatError):
        data_to_model(data)


def test_state_tokens():
    state = ref(PQ, "pq")
    assert state_token(state) == "p,q:pq"
    assert parse_state_token("p,q:pq") == state
    assert parse_state_token(":*") == StateRef(frozenset(), "*")
    with pytest.raises(ModelFormatError):
        parse_state_token("no-colon")


def test_awareness_model_detection_and_errors():
    data = {
        "atoms": ["p"], "agents": ["1"], "worlds": ["w0"],
        "relations": {"1": [["w0", "w0"]]},
        "awareness": {"1": {"w0": ["p"]}},
        "valuation": {"p": ["w0"]},
    }
    assert isinstance(data_to_model(data), AwarenessModel)
    bad = dict(data)
    bad["relations"] = {"1": [["w0", "w9"]]}
    with pytest.raises(ModelFormatError):
        data_to_model(bad)


def test_proof_parsing_skips_comments_and_blanks():
    text = """
# a comment
{"formula": "T", "by": "taut"}

{"formula": "l_1 T", "by": "nec 1"}
"""
    lines = parse_proof(text)
    assert len(lines) == 2


def test_proof_parse_errors():
    with pytest.raises(ModelFormatError):
        parse_proof('{"formula": "T"}')
    with pytest.raises(ModelFormatError):
        parse_proof('{"formula": "T", "by": "mp one two"}')
    with pytest.raises(ModelFormatError):
        parse_proof('{"formula": "T", "by": "zap"}')
    with pytest.raises(ModelFormatError):
        parse_proof("not json")


def test_proof_line_render_round_trip():
    text = '{"formula": "a_1 ~p <-> a_1 p", "by": "ax:a-neg phi=\\"(~ p)\\" i=1"}'
    (line,) = parse_proof(text)
    again = parse_proof(proof_line_to_json(line))
    assert again == [line]


def test_dot_export_mentions_every_space(fig1L):
    dot = lattice_dot(fig1L)
    for key in ('"p,q"', '"p"', '"q"', '""'):
        assert key in dot
    assert dot.startswith("digraph")


def test_load_model_io_errors(tmp_path):
    with pytest.raises(ModelFormatError):
        load_model(tmp_path / "missing.model")
    bad = tmp_path / "bad.model"
    bad.write_text("{not json")
    with pytest.raises(ModelFormatError):
        load_model(bad)
    array = tmp_path / "array.model"
    array.write_text("[1, 2]")
    with pytest.raises(ModelFormatError):
        load_model(array)


# -- JSON shapes: every malformed shape is a ModelFormatError -----------------------


FH_DATA = {
    "atoms": ["p"], "agents": ["1"], "worlds": ["w0"],
    "relations": {"1": [["w0", "w0"]]},
    "awareness": {"1": {"w0": ["p"]}},
    "valuation": {"p": ["w0"]},
}


def _rejected(data) -> None:
    with pytest.raises(ModelFormatError):
        data_to_model(data)


def test_lattice_valuation_base_string_rejected(fig1L):
    data = model_to_data(fig1L)
    data["valuation"]["p"]["base"] = "p"
    _rejected(data)


def test_lattice_valuation_base_nested_list_rejected(fig1L):
    data = model_to_data(fig1L)
    data["valuation"]["p"]["base"] = [["p"]]
    _rejected(data)


def test_lattice_valuation_not_an_object_rejected(fig1L):
    data = model_to_data(fig1L)
    data["valuation"] = "x"
    _rejected(data)


@pytest.mark.parametrize("field,value", [("atoms", "pq"), ("agents", "1")])
def test_atoms_and_agents_strings_rejected(fig1L, field, value):
    data = model_to_data(fig1L)
    data[field] = value
    _rejected(data)


def test_projection_table_as_pair_list_rejected(fig1L):
    data = model_to_data(fig1L)
    data["projections"]["p->"] = [[state, image]
                                  for state, image in data["projections"]["p->"].items()]
    _rejected(data)


def test_fh_relation_triple_rejected():
    data = json.loads(json.dumps(FH_DATA))
    data["relations"]["1"] = [["w0", "w0", "w0"]]
    _rejected(data)


def test_fh_valuation_nested_list_rejected():
    data = json.loads(json.dumps(FH_DATA))
    data["valuation"]["p"] = [["w0"]]
    _rejected(data)


@pytest.mark.parametrize("atom", ["p,q", "T", "l_x", "k_1", "1p", "p q", ""])
def test_atom_names_that_cannot_round_trip_rejected(atom):
    data = json.loads(json.dumps(FH_DATA).replace('"p"', json.dumps(atom)))
    _rejected(data)
    built = AwarenessModel(*(data[field] for field in (
        "atoms", "agents", "worlds", "relations", "awareness", "valuation")))
    _rejected(model_to_data(hms_transform(built)))


@pytest.mark.parametrize("agent", ["a b", "1,2", "", "i:j"])
def test_agent_ids_that_cannot_round_trip_rejected(fig1L, agent):
    data = json.loads(json.dumps(FH_DATA))
    data["agents"] = [agent]
    for field in ("relations", "awareness"):
        data[field] = {agent: data[field]["1"]}
    _rejected(data)
    data = model_to_data(fig1L)
    data["agents"] = [agent]
    for field in ("pi", "lambda"):
        data[field] = {agent: data[field]["1"]}
    _rejected(data)


def test_names_of_the_token_grammar_load():
    data = json.loads(json.dumps(FH_DATA))
    data.update(atoms=["rain_now", "q1", "lx", "Tt"], agents=["alice", "2", "_b"],
                relations={a: [["w0", "w0"]] for a in ("alice", "2", "_b")},
                awareness={a: {"w0": ["q1"]} for a in ("alice", "2", "_b")})
    assert data_to_model(data).language_atoms == {"rain_now", "q1", "lx", "Tt"}
