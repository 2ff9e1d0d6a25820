"""Reading and writing the documented model and proof file formats.

All model files are JSON objects; docs/formats.md is the authoritative
schema.  ``worlds`` means an awareness model and ``spaces`` a
:class:`~awarekit.unawareness.LatticeModel`, whose primitives are the
correspondence fields present: ``pi`` alone, ``pi`` and ``lambda``, or
``lambda_star`` and ``alpha``.  The model's Λ is written as ``lambda`` when
Π is primitive and as ``lambda_star`` when α is.  This module checks the
JSON shapes of the other fields; the correspondence and ``alpha`` rows,
keyed by state token, go to the model as the file gives them, and the model
checks their shapes in the walk that resolves their tokens.  Proof files are
JSON Lines with ``formula`` and ``by`` fields.
"""

from __future__ import annotations

import json
import shlex
from itertools import chain
from pathlib import Path
from typing import Iterable

from .awareness import AwarenessModel
from .errors import FormulaSyntaxError, ModelFormatError
from .lpa import AxiomInstance, ModusPonens, Necessitation, ProofLine, Taut
from .syntax import Formula, is_agent_id, is_atom_name, parse, render
from .unawareness import (
    LatticeModel,
    SpaceLattice,
    _indices,
    _skeleton_keys,
    parse_space_key,
    parse_state_token,
    space_key,
)

AnyModel = LatticeModel | AwarenessModel

# ``parse_state_token`` is re-exported for the callers that read it from here.


# -- shape checks: JSON values are only trusted after these ---------------------


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ModelFormatError(f"{what} must be an object")
    return value


def _strings(value, what: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ModelFormatError(f"{what} must be a list of strings")
    return value


def _string(value, what: str) -> str:
    if not isinstance(value, str):
        raise ModelFormatError(f"{what} must be a string")
    return value


def _names(value, what: str, valid, kind: str) -> list[str]:
    """A list of distinct atom names or agent ids, each of which must read
    back."""
    seen = set()
    for name in _strings(value, what):
        if not valid(name):
            raise ModelFormatError(f"{what}: {name!r} is not a valid {kind}")
        if name in seen:
            raise ModelFormatError(f"{what}: {name!r} is repeated")
        seen.add(name)
    return value


def _atoms(data: dict) -> list[str]:
    return _names(_require(data, "atoms"), "atoms", is_atom_name,
                  "atom name ([A-Za-z][A-Za-z0-9_]*, not T, no l_/a_/k_ prefix)")


def _agents(data: dict) -> list[str]:
    return _names(_require(data, "agents"), "agents", is_agent_id,
                  "agent id ([A-Za-z0-9_]+)")


def _pairs(value, what: str) -> list:
    """A relation: a list of two-string lists."""
    if not isinstance(value, list) or not all(
            isinstance(pair, list) and len(pair) == 2 and all(isinstance(w, str) for w in pair)
            for pair in value):
        raise ModelFormatError(f"{what} must be a list of [world, world] pairs")
    return value


def _table(value, what: str, cell) -> dict:
    """An object whose every value passes ``cell(value, f"{what}[{key}]")``.
    A check reads its label only to raise, so the values are checked under
    ``what``; when one fails, they are checked again under their own
    labels, and the first that fails raises its error."""
    table = _object(value, what)
    try:
        return {key: cell(item, what) for key, item in table.items()}
    except ModelFormatError:
        for key, item in table.items():
            cell(item, f"{what}[{key}]")
        raise


def _table_of(cell):
    """The check of an object whose every value passes ``cell``."""
    return lambda value, what: _table(value, what, cell)


def _lattice_to_data(lattice: SpaceLattice) -> dict:
    spaces = {space_key(space): [ref.id for ref in refs]
              for space, refs in lattice.spaces.items()}
    states, keys, proj, span = lattice.states, lattice._keys, lattice._proj, lattice._span
    projections = {f"{keys[parent]}->{keys[child]}":
                   {states[i].id: states[proj[i][child]].id for i in span[parent]}
                   for parent, child in lattice._edges()}
    valuation = {
        atom: {"base_space": space_key(event.base_space),
               "base": sorted(ref.id for ref in event.base)}
        for atom, event in sorted(lattice.valuation.items())
    }
    return {
        "atoms": sorted(lattice.atoms),
        "spaces": dict(sorted(spaces.items())),
        "projections": dict(sorted(projections.items())),
        "valuation": valuation,
    }


def _require(data: dict, field: str):
    if field not in data:
        raise ModelFormatError(f"model file is missing the {field!r} field")
    return data[field]


def _primitive(data: dict, field: str):
    """A correspondence or ``alpha`` field as the file gives it: the model
    checks its rows in the walk that resolves their tokens.  Only null is
    caught here, which the model would read as an absent primitive."""
    value = _require(data, field)
    if value is None:
        raise ModelFormatError(f"{field} must be an object")
    return value


class _SpaceKeys(dict):
    """Space keys resolved to spaces: a canonical key from the lattice
    skeleton's table, any other spelling parsed on first use."""

    def __missing__(self, key: str) -> frozenset[str]:
        space = self[key] = parse_space_key(key)
        return space


def _projection_maps(value) -> dict:
    """The ``projections`` field: an object of objects of strings.  One
    pass tests the exact JSON types; only when it fails does the labelled
    :func:`_table` walk run, which raises the first failure's error (or
    passes subclasses of the JSON types, as it always has)."""
    if type(value) is dict:
        maps = value.values()
        if {*map(type, maps)} <= {dict} and {
                *map(type, chain.from_iterable(table.values() for table in maps))} <= {str}:
            return value
    return _table(value, "projections", _table_of(_string))


def _lattice_from_data(data: dict) -> tuple[SpaceLattice, list]:
    atoms = _atoms(data)
    raw_spaces = _table(_require(data, "spaces"), "spaces", _strings)
    raw_projections = _projection_maps(_require(data, "projections"))
    raw_valuation = _table(_require(data, "valuation"), "valuation", _object)
    space_of = _SpaceKeys(_skeleton_keys(atoms))
    spaces = {space_of[key]: list(ids) for key, ids in raw_spaces.items()}
    if len(spaces) != len(raw_spaces):
        raise ModelFormatError("duplicate space keys after normalization")

    projections = {}
    for key, table in raw_projections.items():
        if "->" not in key:
            raise ModelFormatError(f"projection key {key!r} is not of the form 'parent->child'")
        parent_key, _, child_key = key.partition("->")
        projections[(space_of[parent_key], space_of[child_key])] = table
    if len(projections) != len(raw_projections):
        raise ModelFormatError("duplicate projection keys after normalization")

    valuation = {}
    for atom, entry in raw_valuation.items():
        if "base_space" not in entry or "base" not in entry:
            raise ModelFormatError(f"valuation of {atom!r} must have base_space and base")
        space = space_of[_string(entry["base_space"], f"valuation[{atom}].base_space")]
        ids = _strings(entry["base"], f"valuation[{atom}].base")
        valuation[atom] = (space, ids)

    lattice = SpaceLattice(atoms, spaces, projections, valuation)
    return lattice, list(_agents(data))


def lattice_model_to_data(model: LatticeModel) -> dict:
    data = _lattice_to_data(model.lattice)
    data["agents"] = list(model.agents)
    # Rows are written from the model's rows, keyed by sorted state tokens.
    tokens, keys = model.lattice._tokens, model.lattice._keys
    order = sorted(range(len(tokens)), key=tokens.__getitem__)

    def correspondence(rows) -> dict:
        return {agent: {tokens[i]: sorted(tokens[j] for j in _indices(row.images[i]))
                        for i in order}
                for agent, row in rows.items()}

    if model._pi is not None:
        data["pi"] = correspondence(model._pi)
    if model._lambda is not None:
        name = "lambda" if model._alpha is None else "lambda_star"
        data[name] = correspondence(model._lambda)
    if model._alpha is not None:
        data["alpha"] = {agent: {tokens[i]: keys[row.levels[i]] for i in order}
                         for agent, row in model._alpha.items()}
    return data


def awareness_to_data(model: AwarenessModel) -> dict:
    return {
        "atoms": sorted(model.language_atoms),
        "agents": list(model.agents),
        "worlds": list(model.worlds),
        "relations": {agent: [list(pair) for pair in sorted(pairs)]
                      for agent, pairs in model.relations.items()},
        "awareness": {agent: {w: sorted(table[w]) for w in model.worlds}
                      for agent, table in model.awareness_atoms.items()},
        "valuation": {atom: sorted(hits) for atom, hits in sorted(model.valuation.items())},
    }


def model_to_data(model: AnyModel) -> dict:
    if model.family == "awareness":
        return awareness_to_data(model)
    return lattice_model_to_data(model)


def data_to_model(data: dict) -> AnyModel:
    if not isinstance(data, dict):
        raise ModelFormatError("model file must contain a JSON object")
    if "worlds" in data:
        relations = _table(_require(data, "relations"), "relations", _pairs)
        return AwarenessModel(
            _atoms(data),
            _agents(data),
            list(_strings(_require(data, "worlds"), "worlds")),
            {agent: [tuple(pair) for pair in pairs] for agent, pairs in relations.items()},
            _table(_require(data, "awareness"), "awareness", _table_of(_strings)),
            _table(_require(data, "valuation"), "valuation", _strings),
        )
    if "spaces" not in data:
        raise ModelFormatError("model file has neither 'worlds' nor 'spaces'")
    has_implicit = "lambda_star" in data or "alpha" in data
    if has_implicit and ("pi" in data or "lambda" in data):
        raise ModelFormatError("ambiguous model file: mixes implicit-primitive and "
                               "explicit-primitive fields")
    lattice, agents = _lattice_from_data(data)
    if has_implicit:
        return LatticeModel(lattice, agents, lambda_=_primitive(data, "lambda_star"),
                            alpha=_primitive(data, "alpha"))
    lambda_ = _primitive(data, "lambda") if "lambda" in data else None
    return LatticeModel(lattice, agents, pi=_primitive(data, "pi"), lambda_=lambda_)


class _RepeatedKey(Exception):
    """A JSON object names the key ``args[0]`` twice."""


def _object_pairs(pairs: list[tuple[str, object]]) -> dict:
    """The ``object_pairs_hook`` of every load: a JSON object names each key
    once, where ``json.loads`` would keep the last value of a repeated one."""
    out = dict(pairs)
    if len(out) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise _RepeatedKey(key)
            seen.add(key)
    return out


def dumps_model(model: AnyModel) -> str:
    return json.dumps(model_to_data(model), indent=2, sort_keys=True) + "\n"


def load_model(path: str | Path) -> AnyModel:
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as err:
        raise ModelFormatError(f"cannot read {path}: {err}") from None
    try:
        data = json.loads(raw, object_pairs_hook=_object_pairs)
    except json.JSONDecodeError as err:
        raise ModelFormatError(f"{path} is not valid JSON: {err}") from None
    except _RepeatedKey as err:
        raise ModelFormatError(f"{path} names key {err.args[0]!r} twice in one object") from None
    return data_to_model(data)


def save_model(model: AnyModel, path: str | Path) -> None:
    Path(path).write_text(dumps_model(model), encoding="utf-8")


# -- proofs -------------------------------------------------------------------


def _parse_by(by: str, line_number: int) -> Taut | AxiomInstance | ModusPonens | Necessitation:
    try:
        parts = shlex.split(by)
    except ValueError as err:
        raise ModelFormatError(f"line {line_number}: bad 'by' field: {err}") from None
    if not parts:
        raise ModelFormatError(f"line {line_number}: empty 'by' field")
    head = parts[0]
    if head == "taut":
        return Taut()
    if head.startswith("ax:"):
        name = head[3:]
        hint = []
        for piece in parts[1:]:
            if "=" not in piece:
                raise ModelFormatError(f"line {line_number}: bad substitution {piece!r}")
            key, _, value = piece.partition("=")
            if key not in ("phi", "psi", "i", "j"):
                raise ModelFormatError(f"line {line_number}: unknown metavariable {key!r}")
            if any(key == given for given, _ in hint):
                raise ModelFormatError(f"line {line_number}: metavariable {key!r} is given twice")
            if key in ("phi", "psi"):
                hint.append((key, parse(value)))
            elif is_agent_id(value):
                hint.append((key, value))
            else:
                raise ModelFormatError(f"line {line_number}: {key}={value!r} is not an agent id")
        return AxiomInstance(name, tuple(hint))
    if head == "mp":
        if len(parts) != 3:
            raise ModelFormatError(f"line {line_number}: 'mp' needs two line numbers")
        try:
            return ModusPonens(int(parts[1]), int(parts[2]))
        except ValueError:
            raise ModelFormatError(f"line {line_number}: 'mp' needs integers") from None
    if head == "nec":
        if len(parts) != 2:
            raise ModelFormatError(f"line {line_number}: 'nec' needs one line number")
        try:
            return Necessitation(int(parts[1]))
        except ValueError:
            raise ModelFormatError(f"line {line_number}: 'nec' needs an integer") from None
    raise ModelFormatError(f"line {line_number}: unknown justification {head!r}")


def parse_proof(text: str, agents: Iterable[str] | None = None) -> list[ProofLine]:
    """The proof lines of a proof file's text.  Blank and ``#`` lines are
    skipped, and every error names its line by its number among the proof
    lines, as ``mp`` and ``nec`` do."""
    lines: list[ProofLine] = []
    for raw in text.splitlines():
        raw = raw.strip()
        if not raw or raw.startswith("#"):
            continue
        number = len(lines) + 1
        try:
            entry = json.loads(raw, object_pairs_hook=_object_pairs)
        except json.JSONDecodeError as err:
            raise ModelFormatError(f"line {number}: not valid JSON: {err}") from None
        except _RepeatedKey as err:
            raise ModelFormatError(f"line {number}: names key {err.args[0]!r} twice "
                                   f"in one object") from None
        if not isinstance(entry, dict) or "formula" not in entry or "by" not in entry:
            raise ModelFormatError(f"line {number}: entries need 'formula' and 'by'")
        where = f"line {number}: "
        try:
            formula = parse(_string(entry["formula"], where + "'formula'"), agents)
            lines.append(ProofLine(formula, _parse_by(_string(entry["by"], where + "'by'"),
                                                      number)))
        except FormulaSyntaxError as err:
            raise ModelFormatError(where + str(err)) from None
    return lines


def load_proof(path: str | Path, agents: Iterable[str] | None = None) -> list[ProofLine]:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise ModelFormatError(f"cannot read {path}: {err}") from None
    return parse_proof(text, agents)


def proof_line_to_json(line: ProofLine) -> str:
    how = line.justification
    if isinstance(how, Taut):
        by = "taut"
    elif isinstance(how, AxiomInstance):
        pieces = [f"ax:{how.name}"]
        for key, value in how.hint:
            text = render(value) if isinstance(value, Formula) else str(value)
            pieces.append(f"{key}={shlex.quote(text)}")
        by = " ".join(pieces)
    elif isinstance(how, ModusPonens):
        by = f"mp {how.premise} {how.implication}"
    else:
        by = f"nec {how.source}"
    return json.dumps({"formula": render(line.formula), "by": by})


# -- DOT export -------------------------------------------------------------------


def lattice_dot(model) -> str:
    """A DOT digraph of the space lattice with covering projections as edges."""
    lattice = model.lattice
    lines = ["digraph spaces {"]
    for space in sorted(lattice.spaces, key=lambda s: (len(s), space_key(s))):
        label = space_key(space) or "(meet)"
        size = len(lattice.spaces[space])
        lines.append(f'  "{space_key(space)}" [label="{label}\\n{size} state(s)"];')
    for parent in sorted(lattice.spaces, key=lambda s: (len(s), space_key(s))):
        for atom in sorted(parent):
            child = parent - {atom}
            lines.append(f'  "{space_key(parent)}" -> "{space_key(child)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
