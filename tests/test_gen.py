"""Seeded model generation."""

from __future__ import annotations

import random

import pytest

from awarekit.awareness import validate_fh
from awarekit.errors import InvalidCaps
from awarekit.gen import GenCaps, gen_fh, gen_hms, gen_implicit, random_formula
from awarekit.implicit import validate_implicit, validate_lambda
from awarekit.modelio import awareness_to_data, data_to_model, model_to_data
from awarekit.syntax import modal_depth
from awarekit.unawareness import validate_hms


def test_generated_model_validates():
    model = gen_fh(1, GenCaps(atoms=2, worlds=4, agents=1))
    assert validate_fh(model).ok


def test_single_world_model():
    model = gen_fh(0, GenCaps(atoms=1, worlds=1, agents=1))
    assert model.worlds == ("w0",)
    assert model.relations[model.agents[0]] == frozenset({("w0", "w0")})


def test_same_seed_same_model():
    assert awareness_to_data(gen_fh(42)) == awareness_to_data(gen_fh(42))
    assert model_to_data(gen_hms(42)) == model_to_data(gen_hms(42))


def test_different_seeds_differ_somewhere():
    datas = {str(awareness_to_data(gen_fh(seed))) for seed in range(10)}
    assert len(datas) > 1


def test_invalid_caps_rejected():
    with pytest.raises(InvalidCaps):
        gen_fh(0, GenCaps(atoms=0))
    with pytest.raises(InvalidCaps):
        gen_hms(0, GenCaps(worlds=0))


@pytest.mark.parametrize("seed", range(12))
def test_gen_hms_passes_both_validators(seed):
    model = gen_hms(seed)
    assert validate_hms(model.base).ok
    assert validate_lambda(model).ok


@pytest.mark.parametrize("seed", range(6))
def test_gen_implicit_validates(seed):
    assert validate_implicit(gen_implicit(seed)).ok


def test_strict_unawareness_occurs():
    """Across 100 seeds, some model has a world strictly unaware of an atom."""
    found = 0
    for seed in range(100):
        model = gen_fh(seed)
        for agent in model.agents:
            for world in model.worlds:
                if model.awareness_atoms[agent][world] < model.language_atoms:
                    found += 1
                    break
    assert found >= 1


def test_random_formula_respects_depth():
    rng = random.Random(0)
    for _ in range(200):
        f = random_formula(rng, ["p", "q"], ["1", "2"], max_depth=2)
        assert modal_depth(f) <= 2


@pytest.mark.parametrize("seed", range(12))
def test_generated_tables_match_the_loader(seed):
    """``gen_fh`` builds its model from mask tables; loading the model's
    file through the string constructor gives the same tables, world ids
    such as ``w10`` sorting before ``w2`` included."""
    model = gen_fh(seed, GenCaps(atoms=6, worlds=14, agents=3))
    again = data_to_model(model_to_data(model))
    assert (model.worlds, model._atoms, model._succ, model._aware, model._val) == \
        (again.worlds, again._atoms, again._succ, again._aware, again._val)
