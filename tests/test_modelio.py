"""File formats: round trips, family detection, and malformed inputs."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import awarekit
from awarekit.awareness import AwarenessModel
from awarekit.cli import _validate_any, main as cli_main
from awarekit.errors import ModelFormatError
from awarekit.fixtures import fig1L as load_fig1L, fig1R as load_fig1R, fixture_path
from awarekit.gen import GenCaps, gen_fh, gen_hms, gen_implicit
from awarekit.implicit import implicit_from_complemented
from awarekit.modelio import (
    awareness_model_from_fields,
    data_to_model,
    dumps_model,
    lattice_model_from_rows,
    load_model,
    model_to_data,
    parse_proof,
    parse_state_token,
    proof_line_to_json,
    save_model,
    lattice_dot,
)
from awarekit.transforms import hms_transform
from awarekit.unawareness import LatticeModel, SpaceLattice, StateRef
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
    assert str(state) == "p,q:pq"
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
    # Errors number a line as ``mp`` and ``nec`` do: blank and ``#`` lines
    # do not count.
    with pytest.raises(ModelFormatError, match="^line 1: unknown justification 'zap'$"):
        parse_proof('# header\n{"formula": "T", "by": "zap"}')
    with pytest.raises(ModelFormatError, match="^line 2: not valid JSON"):
        parse_proof('{"formula": "T", "by": "taut"}\n\n# note\nnot json')


@pytest.mark.parametrize("entry, message", [
    ('{"formula": "T", "by": 5}', "line 2: 'by' must be a string"),
    ('{"formula": 5, "by": "taut"}', "line 2: 'formula' must be a string"),
    ('{"formula": "T", "by": ["taut"]}', "line 2: 'by' must be a string"),
    ('{"formula": null, "by": 5}', "line 2: 'formula' must be a string"),
], ids=["by-number", "formula-number", "by-list", "both"])
def test_proof_fields_must_be_strings(entry, message):
    with pytest.raises(ModelFormatError) as err:
        parse_proof('{"formula": "T", "by": "taut"}\n' + entry)
    assert str(err.value) == message


@pytest.mark.parametrize("entry, message", [
    ('{"formula": "((p", "by": "taut"}', "line 2: expected ')' (at offset 3)"),
    ('{"formula": "T", "by": "ax:a-neg phi=~"}',
     "line 2: unexpected end of input (at offset 1)"),
    ('{"formula": "((p", "by": "ax:a-neg phi=~"}', "line 2: expected ')' (at offset 3)"),
], ids=["formula", "hint", "formula-first"])
def test_proof_formula_errors_name_their_line(entry, message):
    with pytest.raises(ModelFormatError) as err:
        parse_proof('# header\n{"formula": "T", "by": "taut"}\n\n' + entry)
    assert str(err.value) == message


@pytest.mark.parametrize("by, message", [
    ("ax:a-neg phi=p i=!!", "line 2: i='!!' is not an agent id"),
    ("ax:a-neg phi=p i=", "line 2: i='' is not an agent id"),
    ("ax:a-neg phi=p j=1 j=2", "line 2: metavariable 'j' is given twice"),
    ("ax:a-neg phi=p phi=q", "line 2: metavariable 'phi' is given twice"),
    ("ax:a-neg phi=p phi=((", "line 2: metavariable 'phi' is given twice"),
], ids=["agent-not-an-id", "agent-empty", "agent-twice", "formula-twice",
        "twice-before-parse"])
def test_proof_hints_are_agent_ids_given_once(by, message):
    """A malformed hint is an input error, not a proof that the checker
    rejects."""
    entry = json.dumps({"formula": "a_1 p <-> a_1 ~p", "by": by})
    with pytest.raises(ModelFormatError) as err:
        parse_proof('{"formula": "T", "by": "taut"}\n' + entry)
    assert str(err.value) == message


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


def _cell_faults():
    """Files with one or two faulty cells of a table, each with the message
    that names the first faulty cell in the file's order."""
    def lattice(edit):
        data = model_to_data(load_fig1L())
        edit(data)
        return data

    def fh(edit):
        data = json.loads(json.dumps(FH_DATA))
        edit(data)
        return data

    def spaces(data):
        data["spaces"]["q"] = "q"
        data["spaces"]["p,q"] = 7

    return [
        ("space", lattice(lambda d: d["spaces"].update(q="q")),
         "spaces[q] must be a list of strings"),
        # The file lists its spaces by key: ``p,q`` before ``q``.
        ("two spaces", lattice(spaces), "spaces[p,q] must be a list of strings"),
        ("projection table", lattice(lambda d: d["projections"].update({"p->": ["p"]})),
         "projections[p->] must be an object"),
        ("projection entry", lattice(lambda d: d["projections"]["p->"].update(p=7)),
         "projections[p->][p] must be a string"),
        ("valuation entry", lattice(lambda d: d["valuation"].update(p="p")),
         "valuation[p] must be an object"),
        ("relation", fh(lambda d: d["relations"].update({"1": [["w0"]]})),
         "relations[1] must be a list of [world, world] pairs"),
        ("awareness cell", fh(lambda d: d["awareness"]["1"].update(w0="p")),
         "awareness[1][w0] must be a list of strings"),
        ("awareness row", fh(lambda d: d["awareness"].update({"1": ["p"]})),
         "awareness[1] must be an object"),
        ("fh valuation", fh(lambda d: d["valuation"].update(p=[["w0"]])),
         "valuation[p] must be a list of strings"),
    ]


@pytest.mark.parametrize("fault,data,message", _cell_faults(),
                         ids=[fault for fault, _, _ in _cell_faults()])
def test_a_faulty_table_cell_is_named_in_its_message(fault, data, message):
    with pytest.raises(ModelFormatError) as err:
        data_to_model(data)
    assert str(err.value) == message


def _file_errors():
    """Files with one fault each that the other tests do not build, and
    the loader's message for each."""
    def fh(**fields):
        data = json.loads(json.dumps(FH_DATA))
        data.update(fields)
        return data

    no_agents = model_to_data(load_fig1L())
    no_agents["agents"] = []
    no_arrow = model_to_data(load_fig1L())
    no_arrow["projections"]["p"] = no_arrow["projections"].pop("p->")
    return [
        ("fh without agents", fh(agents=[]), "model needs at least one agent"),
        ("fh without worlds", fh(worlds=[]), "model needs at least one world"),
        ("repeated world id", fh(worlds=["w0", "w0"]), "duplicate world ids"),
        ("awareness missing an agent", fh(awareness={}),
         "awareness must cover exactly the agents ['1']"),
        ("awareness keyed by an unknown world", fh(awareness={"1": {"w0": ["p"], "w9": []}}),
         "awareness[1] keyed by unknown world 'w9'"),
        # The rows still name agent 1: the empty agent list is found first.
        ("lattice without agents", no_agents, "model needs at least one agent"),
        ("projection key without an arrow", no_arrow,
         "projection key 'p' is not of the form 'parent->child'"),
    ]


@pytest.mark.parametrize("fault,data,message", _file_errors(),
                         ids=[fault for fault, _, _ in _file_errors()])
def test_each_file_error_has_its_message_and_exit_code(fault, data, message, tmp_path, capsys):
    with pytest.raises(ModelFormatError) as err:
        data_to_model(data)
    assert str(err.value) == message
    path = tmp_path / "fault.model"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert cli_main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


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
    built = awareness_model_from_fields(*(data[field] for field in (
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


@pytest.mark.parametrize("field,names", [("atoms", ["p", "p"]), ("agents", ["1", "1"])])
def test_repeated_names_rejected(field, names):
    data = json.loads(json.dumps(FH_DATA))
    data[field] = names
    with pytest.raises(ModelFormatError, match=rf"^{field}: '{names[0]}' is repeated$"):
        data_to_model(data)


def test_names_of_the_token_grammar_load():
    data = json.loads(json.dumps(FH_DATA))
    data.update(atoms=["rain_now", "q1", "lx", "Tt"], agents=["alice", "2", "_b"],
                relations={a: [["w0", "w0"]] for a in ("alice", "2", "_b")},
                awareness={a: {"w0": ["q1"]} for a in ("alice", "2", "_b")})
    assert data_to_model(data).language_atoms == {"rain_now", "q1", "lx", "Tt"}


# -- the loader against an oracle ----------------------------------------------------

PRIMITIVES = (("pi", "_pi"), ("lambda_", "_lambda"), ("alpha", "_alpha"))


def _gen_at(atoms: int, build):
    """A generated model with exactly ``atoms`` atoms."""
    caps = GenCaps(atoms=atoms, worlds=3, agents=2)
    seed = next(s for s in range(200) if len(gen_fh(s, caps).language_atoms) == atoms)
    return build(seed, caps)


def _masks(rows):
    """A primitive's rows as the ``(images, levels)`` lists of each agent,
    None when the primitive is absent."""
    if rows is None:
        return None
    return {agent: (row.images, row.levels) for agent, row in rows.items()}


def _oracle_masks(lattice, data: dict, field: str):
    """A primitive's ``(images, levels)`` lists per agent straight from its
    token rows, as :func:`_masks` gives them: a state is its position in
    ``lattice.states``, a space the bits of its atoms' positions in the
    sorted atoms."""
    states = list(lattice.states)
    atoms = sorted(lattice.atoms)

    def position(token: str) -> int:
        return states.index(parse_state_token(token))

    def space_mask(space) -> int:
        return sum(1 << atoms.index(atom) for atom in space)

    table = {}
    for agent, row in data[field].items():
        if field == "alpha":
            levels = [0] * len(states)
            for token, key in row.items():
                levels[position(token)] = space_mask(key.split(",") if key else [])
            table[agent] = (None, levels)
            continue
        images, levels = [0] * len(states), [0] * len(states)
        for token, image in row.items():
            i = position(token)
            images[i] = sum({1 << position(t) for t in image})
            found = {parse_state_token(t).space for t in image}
            levels[i] = space_mask(found.pop()) if len(found) == 1 else -1
        table[agent] = (images, levels)
    return table


LOADED = [("fig1L", load_fig1L), ("fig1R", load_fig1R)] + [
    (f"{name}@{atoms}", lambda atoms=atoms, build=build: _gen_at(atoms, build))
    for atoms in range(2, 7) for name, build in (("hms", gen_hms), ("implicit", gen_implicit))]


@pytest.mark.parametrize("name,build", LOADED, ids=[name for name, _ in LOADED])
def test_loaded_masks_match_stateref_built_masks(name, build):
    """The masks that a file's token rows load to equal the masks of the
    model that was written, and the oracle's, which it builds from the
    ``StateRef`` of each token."""
    model = build()
    data = model_to_data(model)
    loaded = data_to_model(data)
    fields = {"pi": "pi", "lambda_": "lambda" if "lambda" in data else "lambda_star",
              "alpha": "alpha"}
    for field, rows in PRIMITIVES:
        masks = _masks(getattr(loaded, rows))
        assert masks == _masks(getattr(model, rows))
        if masks is not None:
            assert masks == _oracle_masks(loaded.lattice, data, fields[field]), field


@pytest.mark.parametrize("family,build", [
    ("unawareness", _bare_pi),
    ("complemented", gen_hms),
    ("implicit", gen_implicit),
])
def test_dumps_load_dumps_is_a_fixed_point(family, build):
    for seed in range(4):
        text = dumps_model(build(seed))
        loaded = data_to_model(json.loads(text))
        assert loaded.family == family
        assert dumps_model(loaded) == text


def _fault_data():
    """One file per fault, each with the message the loader gives for it:
    the lattice's structural faults, then the correspondences', then an
    awareness model's repeated list members."""
    def complemented():
        return model_to_data(load_fig1L())

    def implicit():
        return model_to_data(implicit_from_complemented(load_fig1L()))

    def fh():
        return model_to_data(gen_fh(3))

    cases = []
    data = complemented()
    del data["spaces"]["q"]
    cases.append(("missing space", data, "missing space 'q'"))
    data = complemented()
    data["spaces"]["q"] = []
    cases.append(("empty space", data, "space 'q' is empty"))
    data = complemented()
    data["spaces"]["q"] = ["q", "~q", "q"]
    cases.append(("duplicate ids", data, "duplicate state ids in space 'q'"))
    data = complemented()
    data["spaces"]["r"] = ["r"]
    cases.append(("space outside the atoms", data,
                  "space 'r' is not a subset of the atom universe"))
    data = complemented()
    del data["projections"]["p->"]
    cases.append(("missing projection", data, "missing projection 'p' -> ''"))
    data = complemented()
    del data["projections"]["p,q->p"]["pq"]
    cases.append(("partial projection", data,
                  "projection 'p,q' -> 'p' is undefined on state 'pq'"))
    data = complemented()
    data["projections"]["p,q->q"]["~pq"] = "ghost"
    cases.append(("projection to an unknown state", data,
                  "projection 'p,q' -> 'q' maps '~pq' to unknown state 'ghost'"))
    data = complemented()
    data["projections"]["p->"]["ghost"] = "*"
    cases.append(("projection of an unknown state", data,
                  "projection 'p' -> '' is defined on unknown state 'ghost'"))
    data = complemented()
    data["projections"]["p,q->"] = {state: "*" for state in data["spaces"]["p,q"]}
    data["projections"]["q->p"] = {}
    cases.append(("projection of a pair that is not covering", data,
                  "projection 'p,q' -> '' is not a covering pair"))
    data = complemented()
    data["projections"]["x->"] = {"x": "*"}
    cases.append(("projection of an unknown space", data,
                  "projection 'x' -> '' is not a covering pair"))
    data = complemented()
    data["projections"]["q,p->p"] = data["projections"]["p,q->p"]
    cases.append(("duplicate projection keys", data,
                  "duplicate projection keys after normalization"))
    data = complemented()
    data["atoms"] = ["p", "q", "p"]
    cases.append(("repeated atom", data, "atoms: 'p' is repeated"))
    data = complemented()
    data["agents"] = ["1", "1"]
    cases.append(("repeated agent", data, "agents: '1' is repeated"))
    data = complemented()
    del data["valuation"]["q"]
    cases.append(("partial valuation", data,
                  "valuation must be total on the atom universe; mismatched atoms: ['q']"))
    data = complemented()
    data["valuation"]["q"]["base_space"] = "r"
    cases.append(("valuation in an unknown space", data,
                  "valuation of 'q' uses unknown space 'r'"))
    data = complemented()
    data["valuation"]["p"]["base"] = ["p", "ghost"]
    cases.append(("valuation of an unknown state", data,
                  "valuation of 'p' references unknown state p:ghost"))
    data = complemented()
    data["valuation"]["p"]["base"] = ["p", "p"]
    cases.append(("repeated valuation state", data, "valuation of 'p' repeats state p:p"))
    data = complemented()
    del data["pi"]["1"]
    cases.append(("missing agent", data, "pi must cover exactly the agents ['1']"))
    data = complemented()
    del data["lambda"]["1"]["p:~p"]
    cases.append(("undefined state", data, "lambda[1] is undefined on state p:~p"))
    data = complemented()
    data["pi"]["1"]["p,q:~pq"] = []
    cases.append(("empty image", data, "pi[1] is empty at state p,q:~pq"))
    data = complemented()
    data["lambda"]["1"]["q:q"] = ["q:q", "q,p:ghost"]
    cases.append(("unknown target token", data,
                  "lambda[1] at q:q references unknown state p,q:ghost"))
    data = complemented()
    data["lambda"]["1"]["q:q"] = ["q:q", "q:q"]
    cases.append(("repeated target token", data, "lambda[1] at q:q repeats state q:q"))
    data = complemented()
    data["pi"]["1"]["q,p:ghost"] = ["p:p"]
    cases.append(("unknown key token", data, "pi[1] keyed by unknown state p,q:ghost"))
    data = complemented()
    data["pi"]["1"]["q,p:pq"] = data["pi"]["1"]["p,q:pq"]
    cases.append(("state keyed twice", data, "pi[1] names state p,q:pq twice"))
    data = complemented()
    data["pi"]["1"]["p:p"] = "p:p"
    cases.append(("non-list image", data, "pi[1][p:p] must be a list of strings"))
    # Images are resolved once per distinct image: neither an object whose
    # keys spell an image resolved at an earlier state, nor a bad image
    # that the file gives first at a later state, may slip past the walk.
    data = complemented()
    data["pi"]["1"]["p:p"] = {"p:p": True}
    cases.append(("image as an object of tokens", data, "pi[1][p:p] must be a list of strings"))
    data = complemented()
    data["pi"]["1"][":*"] = data["pi"]["1"]["q:q"] = ["p:p", "p:p"]
    assert list(data["pi"]["1"]).index(":*") < list(data["pi"]["1"]).index("q:q")
    cases.append(("bad image at two states", data, "pi[1] at q:q repeats state p:p"))
    data = complemented()
    data["lambda"]["1"]["q:q"] = ["q:q", "q~q"]
    cases.append(("malformed token", data,
                  "state token 'q~q' is not of the form 'spaceKey:stateId'"))
    data = complemented()
    data["pi"]["1"]["p:p"] = ["p:"]
    cases.append(("empty state id", data, "state token 'p:' has an empty state id"))
    data = implicit()
    del data["lambda_star"]["1"][":*"]
    cases.append(("implicit undefined state", data, "lambda_star[1] is undefined on state :*"))
    data = implicit()
    data["alpha"]["1"]["q:q"] = "q,r"
    cases.append(("unknown level", data, "alpha[1] at q:q names unknown space 'q,r'"))
    data = implicit()
    data["alpha"]["1"]["q:w"] = "q"
    cases.append(("alpha unknown key token", data, "alpha[1] keyed by unknown state q:w"))
    data = fh()
    data["relations"]["1"].append(["w0", "w1"])
    cases.append(("repeated relation pair", data,
                  "relation of agent 1 lists ('w0', 'w1') twice"))
    data = fh()
    data["awareness"]["1"]["w1"] = ["p", "p"]
    cases.append(("repeated awareness atom", data,
                  "awareness[1] at world 'w1' repeats atom 'p'"))
    data = fh()
    data["valuation"]["p"] = ["w0", "w1", "w0"]
    cases.append(("repeated valuation world", data, "valuation of 'p' repeats world 'w0'"))
    return cases + _shape_faults(complemented, implicit)


def _shape_faults(complemented, implicit):
    """One file per JSON shape fault of a correspondence or ``alpha`` row,
    each with the message the loader gives for it."""
    cases = []

    def case(fault, build, field, path, value, message):
        data = build()
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        cases.append((f"{field} {fault}", data, message))

    for build, field in ((complemented, "pi"), (complemented, "lambda"),
                         (implicit, "lambda_star"), (implicit, "alpha")):
        table, row = (field,), (field, "1")
        case("table as a list", build, field, table, [], f"{field} must be an object")
        case("null table", build, field, table, None, f"{field} must be an object")
        case("row as a list", build, field, row, [["q:q", ["q:q"]]],
             f"{field}[1] must be an object")
        if field == "alpha":
            for fault, level in (("level as a list", ["q"]), ("level as a number", 1)):
                case(fault, build, field, row + ("q:q",), level, "alpha[1][q:q] must be a string")
            continue
        for fault, image in (("image as a string", "q:q"), ("image as a number", 7),
                             ("number token", ["q:q", 7]), ("list token", [["q:q"]])):
            case(fault, build, field, row + ("q:q",), image,
                 f"{field}[1][q:q] must be a list of strings")
    return cases


@pytest.mark.parametrize("fault,data,message", _fault_data(),
                         ids=[fault for fault, _, _ in _fault_data()])
def test_each_correspondence_fault_has_its_message(fault, data, message):
    with pytest.raises(ModelFormatError) as err:
        data_to_model(data)
    assert str(err.value) == message


@pytest.mark.parametrize("fault,data,message", _fault_data(),
                         ids=[fault for fault, _, _ in _fault_data()])
def test_each_correspondence_fault_is_an_input_error(fault, data, message, tmp_path, capsys):
    """``validate`` gives each fault's message with exit code 2, never the
    internal error's 3."""
    path = tmp_path / "fault.model"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert cli_main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_stateref_keyed_rows_are_a_format_error(fig1L):
    """Rows are keyed by state tokens and their images list state tokens; a
    ``StateRef`` in either place is a format error."""
    star = StateRef(frozenset(), "*")
    lattice = SpaceLattice([], {frozenset(): ["*"]}, {}, {})
    with pytest.raises(ModelFormatError, match=r"^pi\[1\] is keyed by StateRef"):
        lattice_model_from_rows(lattice, ["1"], pi={"1": {star: [":*"]}})
    data = model_to_data(fig1L)
    refs = {"1": {token: [parse_state_token(t) for t in image]
                  for token, image in data["lambda"]["1"].items()}}
    with pytest.raises(ModelFormatError, match=r"^lambda\[1\]\[p,q:pq\] must be a list"):
        lattice_model_from_rows(fig1L.lattice, fig1L.agents, pi=data["pi"], lambda_=refs)


def test_a_key_repeated_in_one_object_is_an_input_error(tmp_path, capsys):
    """``json.dumps`` cannot write a repeated key, so the text of
    ``fig1L.model`` gets a second ``p,q:pq`` entry spliced into ``pi["1"]``
    before the real one; plain ``json.loads`` would keep the real one and
    drop it unseen."""
    text = fixture_path("fig1L.model").read_text()
    real = '"p,q:pq": ["p:p"],'
    assert text.index(real) < text.index('"lambda"')
    spliced = text.replace(real, '"p,q:pq": ["p:~p"], ' + real, 1)
    assert json.loads(spliced) == json.loads(text)
    path = tmp_path / "repeated-key.model"
    path.write_text(spliced, encoding="utf-8")
    with pytest.raises(ModelFormatError,
                       match=r"repeated-key\.model names key 'p,q:pq' twice in one object$"):
        load_model(path)
    assert cli_main(["validate", str(path)]) == 2
    assert "names key 'p,q:pq' twice" in capsys.readouterr().err
    with pytest.raises(ModelFormatError, match="^line 2: names key 'by' twice in one object$"):
        parse_proof('{"formula": "T", "by": "taut"}\n{"formula": "T", "by": "taut", "by": "zap"}')


def test_first_load_error_is_the_same_under_any_hash_seed(tmp_path):
    """With two covering maps missing, ``validate`` reports the first in
    load order (dropped atoms sorted), whatever the hash seed."""
    data = model_to_data(load_fig1L())
    del data["projections"]["p,q->p"], data["projections"]["p,q->q"]
    path = tmp_path / "two-faults.model"
    path.write_text(json.dumps(data), encoding="utf-8")
    runs = []
    for seed in ("0", "1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=str(Path(awarekit.__file__).resolve().parents[1]))
        runs.append(subprocess.run([sys.executable, "-m", "awarekit.cli", "validate", str(path)],
                                   env=env, capture_output=True, text=True))
    assert [run.returncode for run in runs] == [2] * 4
    assert "missing projection 'p,q' -> 'q'" in runs[0].stderr
    assert all(run.stderr == runs[0].stderr for run in runs)


def _reversed_key(key: str) -> str:
    return ",".join(reversed(key.split(",")))


def _respelled(token: str) -> str:
    key, _, state_id = token.partition(":")
    return f"{_reversed_key(key)}:{state_id}"


RESPELLED = [("fig1L", load_fig1L)] + LOADED[4:6]


@pytest.mark.parametrize("name,build", RESPELLED, ids=[name for name, _ in RESPELLED])
def test_space_key_order_does_not_matter(name, build):
    """Tokens and levels whose space keys list their atoms in reverse
    order (``q,p:pq`` for ``p,q:pq``) load to the same masks."""
    model = build()
    data = model_to_data(model)
    for field in ("pi", "lambda", "lambda_star"):
        if field in data:
            data[field] = {agent: {_respelled(token): [_respelled(t) for t in image]
                                   for token, image in row.items()}
                           for agent, row in data[field].items()}
    if "alpha" in data:
        data["alpha"] = {agent: {_respelled(token): _reversed_key(level)
                                 for token, level in row.items()}
                         for agent, row in data["alpha"].items()}
    assert data != model_to_data(model)
    loaded = data_to_model(data)
    for _, rows in PRIMITIVES:
        assert _masks(getattr(loaded, rows)) == _masks(getattr(model, rows))


# -- the fast path stays fast: nothing decodes the StateRef views ------------------


def _views_built(model) -> list[str]:
    return [field for field, _ in PRIMITIVES if field in vars(model)]


def test_load_and_validate_build_no_views(tmp_path):
    broken = model_to_data(load_fig1L())
    broken["lambda"]["1"]["p,q:pq"] = ["p,q:p~q"]
    files = {"complemented": model_to_data(gen_hms(3)), "broken": broken,
             "implicit": model_to_data(gen_implicit(3))}
    for name, data in files.items():
        path = tmp_path / f"{name}.model"
        path.write_text(json.dumps(data), encoding="utf-8")
        model = load_model(path)
        _validate_any(model)
        assert _views_built(model) == [], name
    assert model.family == "implicit"
    derived = model.derived()
    assert _views_built(model) == _views_built(derived) == []
    assert derived.pi is not None and _views_built(derived) == ["pi"]
