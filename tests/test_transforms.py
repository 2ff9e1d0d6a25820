"""The four transforms and their modal-equivalence guarantees."""

from __future__ import annotations

import pytest

from awarekit.awareness import build_category, fh_mask, fh_satisfies
from awarekit.enumeration import enumerate_formulas
from awarekit.errors import ModelFormatError
from awarekit.gen import gen_fh, gen_hms, gen_implicit
from awarekit.implicit import implicit_from_complemented
from awarekit.modelio import awareness_to_data, data_to_model, model_to_data
from awarekit.syntax import atoms, parse
from awarekit.transforms import (
    category_to_implicit,
    equivalence_check,
    fh_star_transform,
    fh_transform,
    hms_transform,
    round_trip_check,
)
from awarekit.implicit import validate_implicit, validate_lambda
from awarekit.unawareness import StateRef, space_key, validate_hms
from conftest import MEET, P, PQ, Q, ref


def test_category_transform_validates(fig1R):
    category = build_category(fh_transform(fig1R))
    implicit = category_to_implicit(category)
    assert validate_implicit(implicit).ok
    assert len(implicit.lattice.spaces) == 4


def test_category_transform_awareness_levels(fig1R):
    implicit = category_to_implicit(build_category(fh_transform(fig1R)))
    for state in implicit.lattice.states_of(PQ):
        assert implicit.alpha["1"][state] == P


def test_category_transform_valuation_base(fig1R):
    implicit = category_to_implicit(build_category(fh_transform(fig1R)))
    assert implicit.valuation["p"].base_space == P
    assert implicit.valuation["q"].base_space == Q


def test_degenerate_category_single_space():
    model = data_to_model({
        "atoms": [], "agents": ["1"], "worlds": ["w0"],
        "relations": {"1": [["w0", "w0"]]},
        "awareness": {"1": {"w0": []}},
        "valuation": {},
    })
    implicit = category_to_implicit(build_category(model))
    assert set(implicit.lattice.spaces) == {MEET}
    assert implicit.alpha["1"][ref(MEET, "w0")] == MEET


def test_hms_transform_is_complemented(fig1R):
    k = fh_transform(fig1R)
    out = hms_transform(k)
    assert out.family == "complemented"
    assert validate_hms(out).ok and validate_lambda(out).ok


def test_truncated_transform_matches_category_transform(fig1R):
    k = fh_transform(fig1R)
    truncated = hms_transform(k, truncate=True)
    direct = category_to_implicit(build_category(k))
    assert truncated.family == "implicit"
    assert model_to_data(truncated) == model_to_data(direct)


def test_full_awareness_gives_top_space_cells():
    """When every agent is aware of every atom, the derived explicit cells on
    the top space are the implicit cells."""
    model = data_to_model({
        "atoms": ["p"], "agents": ["1"], "worlds": ["w0", "w1"],
        "relations": {"1": [["w0", "w0"], ["w1", "w1"]]},
        "awareness": {"1": {"w0": ["p"], "w1": ["p"]}},
        "valuation": {"p": ["w0"]},
    })
    out = hms_transform(model)
    top = frozenset({"p"})
    for state in out.lattice.states_of(top):
        assert out.pi["1"][state] == out.lambda_["1"][state]


def test_fh_transform_reads_off_right_fixture(fig1R):
    k = fh_transform(fig1R)
    assert set(k.worlds) == {"pq", "p~q", "~pq", "~p~q"}
    assert k.relations["1"] == frozenset((w, w) for w in k.worlds)
    assert all(k.awareness_atoms["1"][w] == {"p"} for w in k.worlds)
    assert k.valuation["p"] == {"pq", "p~q"}
    assert k.valuation["q"] == {"pq", "~pq"}


def test_fh_transform_left_fixture_cells(fig1L):
    k = fh_transform(fig1L)
    cell = {t for (w, t) in k.relations["1"] if w == "pq"}
    assert cell == {"pq", "p~q"}
    cell = {t for (w, t) in k.relations["1"] if w == "~p~q"}
    assert cell == {"~pq", "~p~q"}


def test_fh_star_awareness_extremes(fig1R):
    im = implicit_from_complemented(fig1R)
    data = model_to_data(im)
    for token in list(data["alpha"]["1"]):
        data["alpha"]["1"][token] = token.partition(":")[0]
    full = fh_star_transform(data_to_model(data))
    assert all(full.awareness_atoms["1"][w] == {"p", "q"} for w in full.worlds)

    for token in list(data["alpha"]["1"]):
        data["alpha"]["1"][token] = ""
    blind = fh_star_transform(data_to_model(data))
    assert all(blind.awareness_atoms["1"][w] == frozenset() for w in blind.worlds)


def test_degenerate_one_space_round_trip():
    model = data_to_model({
        "atoms": [], "agents": ["1"], "worlds": ["w0", "w1"],
        "relations": {"1": [["w0", "w0"], ["w1", "w1"]]},
        "awareness": {"1": {"w0": [], "w1": []}},
        "valuation": {},
    })
    back = fh_star_transform(hms_transform(model, truncate=True))
    assert awareness_to_data(back) == awareness_to_data(model)


# -- equivalence ----------------------------------------------------------------


def test_equivalence_fh_to_hms(fig1R):
    k = fh_transform(fig1R)
    assert equivalence_check(k, hms_transform(k), via="hms", depth=2).ok


def test_equivalence_fh_to_truncated(fig1R):
    k = fh_transform(fig1R)
    assert equivalence_check(k, hms_transform(k, truncate=True),
                             via="implicit-hms", depth=2).ok


def test_equivalence_hms_to_fh(fig1R, fig1L):
    assert equivalence_check(fig1R, fh_transform(fig1R), via="fh", depth=2).ok
    assert equivalence_check(fig1L, fh_transform(fig1L), via="fh", depth=2).ok


def test_equivalence_implicit_to_fh_star(fig1R):
    im = implicit_from_complemented(fig1R)
    assert equivalence_check(im, fh_star_transform(im), via="fh-star", depth=2).ok


def test_round_trip_preserves_satisfaction(fig1R):
    k = fh_transform(fig1R)
    assert round_trip_check(k, depth=2).ok
    back = fh_star_transform(category_to_implicit(build_category(k)))
    for text in ("k_1 p", "l_1 q", "a_1 q"):
        f = parse(text)
        for world in k.worlds:
            assert fh_satisfies(k, world, f) == fh_satisfies(back, world, f)


def plant_in_transform_back(monkeypatch, edit) -> None:
    """A planted defect in the transform that `round_trip_check` reads
    back through: ``edit`` changes the data of each model it returns."""
    import awarekit.transforms as transforms_module

    real = transforms_module.fh_star_transform

    def planted(model):
        data = awareness_to_data(real(model))
        edit(data)
        return data_to_model(data)

    monkeypatch.setattr(transforms_module, "fh_star_transform", planted)


def test_round_trip_check_catches_a_lost_world(fig1R, monkeypatch):
    k = fh_transform(fig1R)
    lost = k.worlds[-1]

    def drop(data):
        data["worlds"].remove(lost)
        for agent, pairs in data["relations"].items():
            data["relations"][agent] = [pair for pair in pairs if lost not in pair]
            del data["awareness"][agent][lost]
        for atom, hits in data["valuation"].items():
            data["valuation"][atom] = [world for world in hits if world != lost]

    plant_in_transform_back(monkeypatch, drop)
    report = round_trip_check(k, depth=2)
    assert [(v.law, v.witness) for v in report.violations] == [(
        "round-trip-worlds", {"expected": ",".join(k.worlds), "got": ",".join(k.worlds[:-1])})]


def test_round_trip_check_catches_a_flipped_atom(fig1R, monkeypatch):
    k = fh_transform(fig1R)
    world = k.worlds[0]
    assert fh_satisfies(k, world, parse("p"))

    def flip(data):
        data["valuation"]["p"] = sorted(set(data["valuation"]["p"]) ^ {world})

    plant_in_transform_back(monkeypatch, flip)
    report = round_trip_check(k, depth=2)
    assert {v.law for v in report.violations} == {"round-trip-equivalence"}
    assert {v.witness["world"] for v in report.violations} == {world}
    assert {"formula": "p", "world": world, "before": "True", "after": "False"} in [
        v.witness for v in report.violations]


def test_equivalence_direction_mismatch_rejected(fig1R):
    with pytest.raises(ModelFormatError):
        equivalence_check(fig1R, fh_transform(fig1R), via="hms", depth=1)
    with pytest.raises(ModelFormatError):
        equivalence_check(fig1R, fig1R, via="banana", depth=1)


def test_dropped_implicit_link_is_caught(fig1L):
    """Removing one implicit link from the transform output must surface as
    an implicit-knowledge counterexample."""
    k = fh_transform(fig1L)
    data = awareness_to_data(k)
    data["relations"]["1"] = [pair for pair in data["relations"]["1"]
                              if pair not in (["pq", "p~q"], ["p~q", "pq"])]
    mutated = data_to_model(data)
    report = equivalence_check(fig1L, mutated, via="fh", depth=2)
    assert not report.ok
    assert any(v.witness.get("formula", "").startswith("(l_1")
               or "(l_1" in v.witness.get("formula", "")
               for v in report.violations)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_equivalences_on_generated_models(seed):
    k = gen_fh(seed)
    assert equivalence_check(k, hms_transform(k), via="hms", depth=2).ok
    assert equivalence_check(k, hms_transform(k, truncate=True),
                             via="implicit-hms", depth=2).ok
    c = gen_hms(seed)
    assert equivalence_check(c, fh_transform(c), via="fh", depth=2).ok
    im = gen_implicit(seed)
    assert equivalence_check(im, fh_star_transform(im), via="fh-star", depth=2).ok
    assert round_trip_check(k, depth=2).ok


@pytest.mark.parametrize("seed", [0, 1])
def test_an_aligned_undefined_space_is_walked(seed):
    """Base one atom's valuation a space too high in a transform's output:
    every formula over that atom alone is then Undefined at every state of
    the atom's own space, an aligned space, and ``expected-defined`` must
    name each of them, also where the formula is false (or true) at every
    world and so agrees with one of the two truth masks."""
    source = gen_fh(seed)
    low, high = sorted(source.language_atoms)[:2]
    data = model_to_data(hms_transform(source))
    base = set(data["valuation"][low]["base"])
    down = data["projections"][f"{low},{high}->{low}"]
    data["valuation"][low] = {"base_space": f"{low},{high}",
                              "base": sorted(s for s, t in down.items() if t in base)}
    report = equivalence_check(source, data_to_model(data), via="hms", depth=2)
    got = {(v.witness["formula"], v.witness["state"]) for v in report.violations
           if v.law == "expected-defined" and v.witness["state"].startswith(f"{low}:")}
    formulas = [f for f in enumerate_formulas(source.language_atoms, source.agents, 2)
                if atoms(f) == {low}]
    full = (1 << len(source.worlds)) - 1
    assert any(fh_mask(source, f) in (0, full) for f in formulas)
    assert got == {(str(f), f"{low}:{w}") for f in formulas for w in source.worlds}
