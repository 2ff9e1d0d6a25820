"""Awareness models, bounded morphisms, and the sublanguage category."""

from __future__ import annotations

import time

import pytest

from awarekit.awareness import (
    AwarenessModel,
    build_category,
    category_equivalence_suite,
    check_bounded_morphism,
    fh_extension,
    fh_satisfies,
    validate_category,
    validate_fh,
)
from awarekit.errors import UndefinedFormula, UnknownState
from awarekit.gen import gen_fh
from awarekit.modelio import awareness_model_from_fields
from awarekit.syntax import parse, render
from awarekit.transforms import fh_transform
from awarekit.unawareness import space_key
from conftest import P, PQ, Q


def small_model(**overrides):
    spec = dict(
        language_atoms=["p", "q"],
        agents=["1"],
        worlds=["w0", "w1"],
        relations={"1": [("w0", "w0"), ("w1", "w1")]},
        awareness_atoms={"1": {"w0": ["p"], "w1": ["p"]}},
        valuation={"p": ["w0"], "q": ["w0", "w1"]},
    )
    spec.update(overrides)
    return awareness_model_from_fields(*(spec[field] for field in (
        "language_atoms", "agents", "worlds", "relations", "awareness_atoms", "valuation")))


def test_fh_transform_of_fixture_validates(fig1R):
    assert validate_fh(fh_transform(fig1R)).ok


def test_awareness_constancy_violation():
    model = small_model(
        relations={"1": [("w0", "w0"), ("w1", "w1"), ("w0", "w1"), ("w1", "w0")]},
        awareness_atoms={"1": {"w0": ["p"], "w1": []}},
    )
    report = validate_fh(model)
    assert any(v.law == "awareness-constant-on-cells" for v in report.violations)


def test_non_equivalence_relation_reported():
    model = small_model(relations={"1": [("w0", "w0"), ("w1", "w1"), ("w0", "w1")]})
    report = validate_fh(model)
    assert any(v.law == "relation-euclidean" for v in report.violations)
    missing_reflexive = small_model(relations={"1": [("w0", "w0")]})
    report = validate_fh(missing_reflexive)
    assert any(v.law == "relation-reflexive" for v in report.violations)


def test_one_large_cell_validates_in_linear_time():
    """Each edge costs one and-not per law, so one 200-world cell (40,000
    edges) validates in well under a second; ``checked`` still counts every
    two-edge path and every pair of edges out of one world."""
    worlds = [f"w{i}" for i in range(200)]
    model = small_model(worlds=worlds, relations={"1": [(w, t) for w in worlds for t in worlds]},
                        awareness_atoms={"1": {w: ["p"] for w in worlds}},
                        valuation={"p": worlds[::2], "q": []})
    start = time.perf_counter()
    report = validate_fh(model)
    assert time.perf_counter() - start < 1.0
    assert report.ok
    assert report.checked == 2 + 2 * 200 + 200 ** 2 + 2 * 200 ** 3


def test_satisfaction_on_transformed_fixture(fig1R):
    model = fh_transform(fig1R)
    assert fh_satisfies(model, "pq", parse("l_1 q"))
    assert not fh_satisfies(model, "pq", parse("a_1 q"))
    assert not fh_satisfies(model, "pq", parse("k_1 q"))


def test_explicit_knowledge_on_left_fixture(fig1L):
    model = fh_transform(fig1L)
    assert fh_satisfies(model, "pq", parse("k_1 p"))


def test_top_holds_everywhere():
    model = small_model()
    for world in model.worlds:
        assert fh_satisfies(model, world, parse("T"))


def test_explicit_is_implicit_plus_awareness():
    model = small_model()
    for world in model.worlds:
        for text in ("p", "q", "p & q", "~p"):
            f = parse(f"k_1 ({text})")
            both = parse(f"l_1 ({text}) & a_1 ({text})")
            assert fh_satisfies(model, world, f) == fh_satisfies(model, world, both)


@pytest.mark.parametrize("seed", range(6))
def test_partitional_knowledge_facts(seed):
    """Truth, positive and negative introspection for implicit knowledge
    hold at every world of a validated model."""
    model = gen_fh(seed)
    assert validate_fh(model).ok
    agent = model.agents[0]
    for text in ["p", "~p", f"a_{agent} p"]:
        facts = [
            f"l_{agent} ({text}) -> ({text})",
            f"l_{agent} ({text}) -> l_{agent} l_{agent} ({text})",
            f"~ l_{agent} ({text}) -> l_{agent} ~ l_{agent} ({text})",
        ]
        for fact in facts:
            g = parse(fact, model.agents)
            assert all(fh_satisfies(model, w, g) for w in model.worlds), (seed, fact)


def test_undefined_formula_rejected():
    model = small_model()
    with pytest.raises(UndefinedFormula):
        fh_satisfies(model, "w0", parse("r"))
    with pytest.raises(UnknownState):
        fh_satisfies(model, "nope", parse("p"))


# -- bounded morphisms ------------------------------------------------------------


def test_category_morphisms_all_check(fig1R):
    category = build_category(fh_transform(fig1R))
    for (large, small), morphism in category.morphisms.items():
        report = check_bounded_morphism(category.models[large],
                                        category.models[small], morphism)
        assert report.ok, (space_key(large), space_key(small), report.violations[:2])


def test_unminimized_morphisms_share_one_identity_map(fig1R):
    """A morphism is its world map; unminimized, every pair holds the same
    identity map rather than one copy per pair."""
    model = fh_transform(fig1R)
    maps = list(build_category(model).morphisms.values())
    assert len(maps) == 3 ** len(model.language_atoms)
    assert all(m is maps[0] for m in maps) and maps[0] == {w: w for w in model.worlds}


def test_morphism_atomic_harmony_witness():
    model = small_model()
    category = build_category(model)
    src = category.models[PQ]
    dst = category.models[P]
    bad = {"w0": "w1", "w1": "w1"}
    report = check_bounded_morphism(src, dst, bad)
    assert any(v.law == "atomic-harmony" and v.witness.get("atom") == "p"
               for v in report.violations)


def test_morphism_surjectivity_witness():
    model = small_model(valuation={"p": ["w0", "w1"], "q": []},
                        relations={"1": [("w0", "w0"), ("w1", "w1"),
                                         ("w0", "w1"), ("w1", "w0")]},
                        awareness_atoms={"1": {"w0": [], "w1": []}})
    category = build_category(model)
    src, dst = category.models[PQ], category.models[Q]
    report = check_bounded_morphism(src, dst, {"w0": "w0", "w1": "w0"})
    assert any(v.law == "surjectivity" and v.witness["world"] == "w1"
               for v in report.violations)


def test_morphism_back_condition():
    """Collapsing a two-world cell onto separate targets breaks either the
    homomorphism or the back condition."""
    src = small_model(relations={"1": [("w0", "w0"), ("w1", "w1"),
                                       ("w0", "w1"), ("w1", "w0")]},
                      awareness_atoms={"1": {"w0": [], "w1": []}},
                      valuation={"p": [], "q": []})
    dst = small_model(relations={"1": [("w0", "w0"), ("w1", "w1")]},
                      awareness_atoms={"1": {"w0": [], "w1": []}},
                      valuation={"p": [], "q": []})
    report = check_bounded_morphism(src, dst, {"w0": "w0", "w1": "w1"})
    assert any(v.law == "homomorphism" for v in report.violations)
    report2 = check_bounded_morphism(dst, src, {"w0": "w0", "w1": "w1"})
    assert any(v.law == "back" for v in report2.violations)


def _from_views(model: AwarenessModel) -> AwarenessModel:
    """The model rebuilt from its decoded views, with the atom order of its
    own language and named atoms."""
    return awareness_model_from_fields(model.language_atoms, model.agents, model.worlds,
                                       model.relations, model.awareness_atoms, model.valuation)


def test_awareness_consistency_reads_each_models_atom_order():
    """Members share the top model's atom order; rebuilt from their views,
    the member over ``{q}`` holds ``q`` at bit 0, not 1.  The clause gives
    the same report either way.  A world whose awareness of ``q`` is
    dropped fails it, and so does one whose target awareness names an atom
    outside the target language."""
    model = small_model(awareness_atoms={"1": {"w0": ["p", "q"], "w1": ["q"]}})
    category = build_category(model)
    for (large, small), morphism in category.morphisms.items():
        src, dst = category.models[large], category.models[small]
        shared = check_bounded_morphism(src, dst, morphism)
        assert shared.ok
        assert check_bounded_morphism(_from_views(src), _from_views(dst), morphism) == shared
    member = category.models[Q]
    assert _from_views(member)._atoms == ("q",) and member._atoms == ("p", "q")
    stray = awareness_model_from_fields(P, ["1"], ["w0", "w1"],
                                        {"1": [("w0", "w0"), ("w1", "w1")]},
                                        {"1": {"w0": ["p", "z"], "w1": []}}, {"p": ["w0"]})
    report = check_bounded_morphism(model, stray, category.morphisms[(PQ, P)])
    assert [(v.law, v.witness) for v in report.violations] == \
        [("awareness-consistency", {"world": "w0"})]
    broken = awareness_model_from_fields(Q, ["1"], member.worlds, member.relations,
                                         {"1": {"w0": ["q"], "w1": []}}, member.valuation)
    report = check_bounded_morphism(model, broken, category.morphisms[(PQ, Q)])
    assert [(v.law, v.witness) for v in report.violations] == \
        [("awareness-consistency", {"world": "w1"})]


# -- the category -------------------------------------------------------------------


def test_category_has_one_model_per_sublanguage(fig1R):
    category = build_category(fh_transform(fig1R))
    keys = {space_key(space) for space in category.models}
    assert keys == {"", "p", "q", "p,q"}


def test_meet_member_has_empty_awareness_atoms(fig1R):
    category = build_category(fh_transform(fig1R))
    meet = category.models[frozenset()]
    assert meet.language_atoms == frozenset()
    for world in meet.worlds:
        assert meet.awareness_atoms["1"][world] == frozenset()
        assert fh_satisfies(meet, world, parse("a_1 T"))


def test_category_identity_and_composition(fig1R):
    assert validate_category(build_category(fh_transform(fig1R))).ok


def test_category_equivalence_suite(fig1R):
    report = category_equivalence_suite(build_category(fh_transform(fig1R)), depth=2)
    assert report.ok


def test_broken_awareness_consistency_is_caught():
    """One member's mutated awareness set surfaces both as a morphism-clause
    violation and as an awareness-formula counterexample in the suite."""
    model = small_model()
    category = build_category(model)
    kept = category.models[P]
    member = category.models[P] = awareness_model_from_fields(
        kept.language_atoms, kept.agents, kept.worlds, kept.relations,
        {"1": {"w0": frozenset(), "w1": frozenset()}}, kept.valuation)
    direct = check_bounded_morphism(category.models[PQ], member,
                                    category.morphisms[(PQ, P)])
    assert any(v.law == "awareness-consistency" for v in direct.violations)
    report = category_equivalence_suite(category, depth=2)
    hits = [v for v in report.violations if v.law == "modal-equivalence"]
    assert any(v.witness.get("formula") == "(a_1 p)" for v in hits)


def test_a_failing_category_pair_is_listed_once():
    """Each comparable pair is compared once, as a morphism: the join/meet
    pairs of every family are among them, so no counterexample is listed
    again under another context."""
    category = build_category(small_model())
    kept = category.models[P]
    category.models[P] = awareness_model_from_fields(
        kept.language_atoms, kept.agents, kept.worlds, kept.relations,
        {"1": {"w0": frozenset(), "w1": frozenset()}}, kept.valuation)
    report = category_equivalence_suite(category, depth=2)
    assert report.violations
    assert {v.witness["context"] for v in report.violations} == {"morphism"}
    listed = [tuple((key, str(value)) for key, value in v.witness.items())
              for v in report.violations]
    assert len(set(listed)) == len(listed)
    assert {(v.witness["source"], v.witness["target"]) for v in report.violations} == \
        {("p,q", "p")}


def test_minimized_category_still_checks(fig1L):
    model = fh_transform(fig1L)
    category = build_category(model, minimize=True)
    assert validate_category(category).ok
    assert category_equivalence_suite(category, depth=2).ok
    # once q is dropped, each implicit cell collapses to one world
    assert len(category.models[P].worlds) < len(model.worlds)


@pytest.mark.parametrize("seed", [0, 2, 4, 8])
def test_generated_categories_validate(seed):
    category = build_category(gen_fh(seed))
    assert validate_category(category).ok
