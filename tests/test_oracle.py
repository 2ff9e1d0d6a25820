"""Differential tests: the mask-based evaluation against a per-state oracle.

The oracle is written straight from the definitions and walks one state at
a time, as the checker did before truth was evaluated over whole models: a
formula is defined at a state when the state's space contains the base space
of the formula's event, and then true exactly when the state projects into
the event's base.  `valid_in_model`, `equivalence_check` (all four
directions) and `check --all` must give what the oracle gives, witnesses,
their order and the `checked` count included.
"""

from __future__ import annotations

import json

import pytest

from awarekit.awareness import AwarenessModel, fh_extension
from awarekit.cli import main
from awarekit.enumeration import enumerate_formulas
from awarekit.gen import gen_fh
from awarekit.modelio import data_to_model, model_to_data, save_model, state_token
from awarekit.reports import Report
from awarekit.semantics import TruthValue, extension, valid_in_model
from awarekit.syntax import A, And, Atom, L, Not, atoms as formula_atoms, parse
from awarekit.transforms import (
    equivalence_check,
    fh_star_transform,
    fh_transform,
    hms_transform,
)
from awarekit.unawareness import StateRef, subsets

SEEDS = range(10)


def naive_truth(model, ref: StateRef, f) -> TruthValue:
    event = extension(model, f)
    if not event.base_space <= ref.space:
        return TruthValue.UNDEFINED
    if model.lattice.project(ref, event.base_space) in event.base:
        return TruthValue.TRUE
    return TruthValue.FALSE


def naive_valid(model, f):
    for ref in model.states:
        if naive_truth(model, ref, f) is TruthValue.FALSE:
            return False, ref
    return True, None


def naive_equivalence(source, produced, via: str, depth: int = 2) -> Report:
    report = Report()
    if via in ("hms", "implicit-hms"):
        known = set(produced.states)
        for f in enumerate_formulas(source.language_atoms, source.agents, depth):
            ext = fh_extension(source, f)
            for space in subsets(source.language_atoms):
                if not formula_atoms(f) <= space:
                    continue
                for world in source.worlds:
                    ref = StateRef(space, world)
                    report.count()
                    if ref not in known:
                        report.add("state-alignment", state=ref)
                        continue
                    value = naive_truth(produced, ref, f)
                    if value is TruthValue.UNDEFINED:
                        report.add("expected-defined", formula=f, state=ref)
                    elif (value is TruthValue.TRUE) != (world in ext):
                        report.add("modal-equivalence", formula=f, state=ref,
                                   source_value=world in ext, target_value=value)
        return report
    lat = source.lattice
    worlds = set(produced.worlds)
    for f in enumerate_formulas(lat.atoms, source.agents, depth):
        ext = fh_extension(produced, f)
        for ref in lat.states_of(lat.atoms):
            report.count()
            if ref.id not in worlds:
                report.add("state-alignment", state=ref)
                continue
            value = naive_truth(source, ref, f)
            if value is TruthValue.UNDEFINED:
                report.add("expected-defined", formula=f, state=ref)
            elif (value is TruthValue.TRUE) != (ref.id in ext):
                report.add("modal-equivalence", formula=f, state=ref,
                           source_value=value, target_value=ref.id in ext)
    return report


def transforms_of(seed: int):
    """The four (source, produced, via) triples of one generated model."""
    k = gen_fh(seed)
    comp = hms_transform(k)
    im = hms_transform(k, truncate=True)
    return [(k, comp, "hms"), (k, im, "implicit-hms"),
            (comp, fh_transform(comp), "fh"), (im, fh_star_transform(im), "fh-star")]


def flip_one_valuation_bit(model):
    """The model with one atom's truth flipped at one world (awareness
    model) or at one base state (lattice model)."""
    data = model_to_data(model)
    atom = sorted(data["valuation"])[0]
    if isinstance(model, AwarenessModel):
        hits, flipped = set(data["valuation"][atom]), data["worlds"][0]
        data["valuation"][atom] = sorted(hits ^ {flipped})
    else:
        entry = data["valuation"][atom]
        flipped = data["spaces"][entry["base_space"]][0]
        entry["base"] = sorted(set(entry["base"]) ^ {flipped})
    return data_to_model(data)


def assert_same(source, produced, via: str) -> Report:
    report = equivalence_check(source, produced, via)
    assert report.to_data() == naive_equivalence(source, produced, via).to_data()
    return report


@pytest.mark.parametrize("seed", SEEDS)
def test_equivalence_check_matches_oracle(seed):
    for source, produced, via in transforms_of(seed):
        assert assert_same(source, produced, via).ok, (seed, via)


@pytest.mark.parametrize("seed", SEEDS)
def test_aligned_spaces_are_compared_whole(seed, monkeypatch):
    """A correct transform aligns every space, so no state is looked up
    one at a time."""
    def per_state(*args):
        raise AssertionError("per-state lookup on an aligned space")

    monkeypatch.setattr("awarekit.transforms.satisfies", per_state)
    for source, produced, via in transforms_of(seed):
        assert equivalence_check(source, produced, via).ok


@pytest.mark.parametrize("seed", SEEDS)
def test_equivalence_check_matches_oracle_on_a_flipped_valuation(seed):
    for source, produced, via in transforms_of(seed):
        report = assert_same(source, flip_one_valuation_bit(produced), via)
        assert any(v.law == "modal-equivalence" for v in report.violations), (seed, via)


@pytest.mark.parametrize("seed", [0, 7, 10])
def test_equivalence_check_matches_oracle_on_minimized_spaces(seed):
    k = gen_fh(seed)
    for truncate, via in ((False, "hms"), (True, "implicit-hms")):
        produced = hms_transform(k, truncate=truncate, minimize=True)
        unaligned = [space for space, refs in produced.lattice.spaces.items()
                     if tuple(ref.id for ref in refs) != k.worlds]
        assert unaligned
        assert not assert_same(k, produced, via).ok


@pytest.mark.parametrize("seed", SEEDS)
def test_valid_in_model_matches_oracle(seed):
    k = gen_fh(seed)
    models = [hms_transform(k), hms_transform(k, truncate=True)]
    models.append(flip_one_valuation_bit(models[0]))
    for model in models:
        for f in enumerate_formulas(model.atoms, model.agents, 2):
            assert valid_in_model(model, f) == naive_valid(model, f), (seed, f)


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_check_all_matches_oracle(seed, tmp_path, capsys):
    k = gen_fh(seed)
    for name, model in (("comp", hms_transform(k)),
                        ("implicit", hms_transform(k, truncate=True))):
        path = tmp_path / f"{name}.model"
        save_model(model, path)
        for text in ("p", "l_1 p -> a_1 p", "~ k_1 p & a_1 T"):
            f = parse(text)
            assert main(["check", str(path), "--formula", text, "--all",
                         "--format", "data"]) == 0
            values = json.loads(capsys.readouterr().out)["values"]
            expected = {state_token(ref): str(naive_truth(model, ref, f))
                        for ref in model.states}
            assert list(values.items()) == sorted(expected.items())


def test_equal_formulas_built_separately_share_a_hash():
    text = "l_1 (p -> a_2 ~q) & k_1 T"
    first, second = parse(text), parse(text)
    assert first is not second
    assert first == second and hash(first) == hash(second)
    built = And(L("1", Not(And(Atom("p"), Not(A("2", Not(Atom("q"))))))), parse("k_1 T"))
    assert built == first and hash(built) == hash(first)
    assert {first: 1}[built] == 1
