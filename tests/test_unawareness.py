"""Structural validation and the explicit knowledge/awareness operators."""

from __future__ import annotations

import pytest

from awarekit.errors import ModelFormatError, PreconditionFailed, UnknownAgent
from awarekit.gen import gen_hms
from awarekit.implicit import implicit_from_complemented
from awarekit.modelio import data_to_model, model_to_data
from awarekit.unawareness import (
    Event,
    LatticeModel,
    SpaceLattice,
    a_op,
    explicit_property_suite,
    k_op,
    l_op,
    u_op,
    up_closure,
    validate_hms,
)
from conftest import MEET, P, PQ, Q, ref


def mutate(model, **edits):
    """Rebuild a complemented model from its serialized form with edits applied."""
    data = model_to_data(model)
    for path, value in edits.items():
        node = data
        *parents, last = path.split(".")
        for key in parents:
            node = node[key]
        node[last] = value
    return data_to_model(data)


def test_fig1_fixtures_validate(fig1L, fig1R):
    assert validate_hms(fig1L.base).ok
    assert validate_hms(fig1R.base).ok


def test_projection_ignorance_violation_witness(fig1L):
    """Re-pointing the possibility set at q into its own space breaks the
    ignorance-preservation law, witnessed from pq."""
    bad = mutate(fig1L, **{"pi.1.q:q": ["q:q"]})
    report = validate_hms(bad.base)
    assert not report.ok
    laws = {v.law for v in report.violations}
    assert "projections-preserve-ignorance" in laws
    witness = next(v for v in report.violations
                   if v.law == "projections-preserve-ignorance")
    assert witness.witness["state"] == "p,q:pq"
    assert witness.witness["below"] == "q"


def test_single_space_degenerate_model():
    lattice = SpaceLattice(
        atoms=[],
        spaces={MEET: ["*"]},
        projections={},
        valuation={},
    )
    model = LatticeModel(lattice, ["1"], pi={"1": {ref(MEET, "*"): {ref(MEET, "*")}}})
    assert validate_hms(model).ok


@pytest.mark.parametrize("given", [(), ("lambda_",), ("alpha",), ("pi", "alpha"),
                                   ("lambda_", "alpha", "pi")],
                         ids=lambda given: ",".join(given) or "none")
def test_lattice_model_takes_three_shapes_only(given):
    lattice = SpaceLattice([], {MEET: ["*"]}, {}, {})
    star = ref(MEET, "*")
    values = {"pi": {"1": {star: {star}}}, "lambda_": {"1": {star: {star}}},
              "alpha": {"1": {star: MEET}}}
    with pytest.raises(ModelFormatError):
        LatticeModel(lattice, ["1"], **{name: values[name] for name in given})


def test_broken_projection_surjectivity(fig1L):
    bad = mutate(fig1L, **{"projections.p,q->p": {"pq": "p", "p~q": "p",
                                                  "~pq": "p", "~p~q": "p"}})
    report = validate_hms(bad.base)
    assert any(v.law == "projection-surjective" for v in report.violations)


def _two_state_lattice_data(q_to_meet):
    """Two states per space; identity-style projections except the map given
    for the covering pair from the q space to the meet."""
    return {
        "atoms": ["p", "q"],
        "agents": ["1"],
        "spaces": {"": ["d1", "d2"], "p": ["b1", "b2"], "q": ["c1", "c2"],
                   "p,q": ["a1", "a2"]},
        "projections": {
            "p,q->p": {"a1": "b1", "a2": "b2"},
            "p,q->q": {"a1": "c1", "a2": "c2"},
            "p->": {"b1": "d1", "b2": "d2"},
            "q->": q_to_meet,
        },
        "pi": {"1": {token: [token] for token in
                     ["p,q:a1", "p,q:a2", "p:b1", "p:b2", "q:c1", "q:c2",
                      ":d1", ":d2"]}},
        "valuation": {"p": {"base_space": "p", "base": ["b1"]},
                      "q": {"base_space": "q", "base": ["c1"]}},
    }


def test_broken_projection_commutation():
    """Swapping one covering map makes the two paths down the diamond
    disagree while every individual map stays surjective."""
    good = data_to_model(_two_state_lattice_data({"c1": "d1", "c2": "d2"}))
    assert validate_hms(good).ok
    bad = data_to_model(_two_state_lattice_data({"c1": "d2", "c2": "d1"}))
    report = validate_hms(bad)
    assert any(v.law == "projection-composition" for v in report.violations)
    assert not any(v.law == "projection-surjective" for v in report.violations)


def test_valuation_base_space_convention(fig1L):
    bad = mutate(fig1L, **{"valuation.p": {"base_space": "", "base": ["*"]}})
    report = validate_hms(bad.base)
    assert any(v.law == "valuation-base-space" for v in report.violations)


def test_confinement_violation(fig1L):
    bad = mutate(fig1L, **{"pi.1.p,q:pq": ["p:p", "q:q"]})
    report = validate_hms(bad.base)
    assert any(v.law == "confinement-single-space" for v in report.violations)


def test_stationarity_violation(fig1L):
    bad = mutate(fig1L, **{"pi.1.p:p": ["p:p", "p:~p"]})
    report = validate_hms(bad.base)
    assert any(v.law == "stationarity" for v in report.violations)


# -- operators ---------------------------------------------------------------


def test_knowledge_at_pq(fig1L):
    event = Event(P, frozenset({ref(P, "p")}))
    known = k_op(fig1L, "1", event)
    assert ref(PQ, "pq") in up_closure(fig1L, known)
    assert known == Event(P, frozenset({ref(P, "p")}))


def test_knowledge_necessitation(fig1L):
    omega = fig1L.lattice.omega()
    assert k_op(fig1L, "1", omega) == omega


def test_knowledge_of_vacuous_event_is_vacuous(fig1L):
    vacuous = Event(Q, frozenset())
    assert k_op(fig1L, "1", vacuous) == vacuous


def test_awareness_excludes_pq_for_q(fig1L):
    event = Event(Q, frozenset({ref(Q, "q")}))
    aware = a_op(fig1L, "1", event)
    assert ref(PQ, "pq") not in up_closure(fig1L, aware)
    assert aware == Event(Q, frozenset())


def test_awareness_of_p_covers_both_upper_spaces(fig1L):
    event = Event(P, frozenset({ref(P, "p")}))
    covered = up_closure(fig1L, a_op(fig1L, "1", event))
    expected = set(fig1L.lattice.states_of(P)) | set(fig1L.lattice.states_of(PQ))
    assert covered == frozenset(expected)


def test_awareness_of_meet_based_event_is_everything(fig1R):
    event = Event(MEET, frozenset({ref(MEET, "*")}))
    assert up_closure(fig1R, a_op(fig1R, "1", event)) == frozenset(fig1R.states)


def test_unawareness_is_negated_awareness(fig1L):
    event = Event(Q, frozenset({ref(Q, "q")}))
    assert u_op(fig1L, "1", event) == fig1L.lattice.event_not(a_op(fig1L, "1", event))


@pytest.mark.parametrize("op", [k_op, l_op, a_op, u_op], ids=lambda op: op.__name__)
@pytest.mark.parametrize("family", ["complemented", "implicit"])
def test_unknown_agent_is_unknown_agent_error(fig1L, family, op):
    model = fig1L if family == "complemented" else implicit_from_complemented(fig1L)
    assert model.family == family
    with pytest.raises(UnknownAgent):
        op(model, "9", model.lattice.omega())


# -- the suite ----------------------------------------------------------------


def test_explicit_suite_on_fixtures(fig1L, fig1R):
    assert explicit_property_suite(fig1L.base).ok
    assert explicit_property_suite(fig1R.base).ok


def test_explicit_suite_refuses_invalid_model(fig1L):
    bad = mutate(fig1L, **{"pi.1.q:q": ["q:q"]})
    with pytest.raises(PreconditionFailed):
        explicit_property_suite(bad.base)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 11, 17])
def test_explicit_suite_on_generated_models(seed):
    assert explicit_property_suite(gen_hms(seed).base).ok
