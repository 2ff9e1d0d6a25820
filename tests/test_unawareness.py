"""Structural validation and the explicit knowledge/awareness operators."""

from __future__ import annotations

import re

import pytest

from awarekit.errors import (
    ModelFormatError,
    PreconditionFailed,
    StraddledPossibilitySet,
    UnknownAgent,
    UnknownState,
)
from awarekit.gen import gen_hms
from awarekit.implicit import implicit_from_complemented
from awarekit.modelio import data_to_model, model_to_data
from awarekit.unawareness import (
    LatticeModel,
    SpaceLattice,
    a_op,
    explicit_property_suite,
    k_op,
    l_op,
    pi_space,
    u_op,
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
    model = LatticeModel(lattice, ["1"], pi={"1": {":*": [":*"]}})
    assert validate_hms(model).ok


@pytest.mark.parametrize("given", [(), ("lambda_",), ("alpha",), ("pi", "alpha"),
                                   ("lambda_", "alpha", "pi")],
                         ids=lambda given: ",".join(given) or "none")
def test_lattice_model_takes_three_shapes_only(given):
    lattice = SpaceLattice([], {MEET: ["*"]}, {}, {})
    values = {"pi": {"1": {":*": [":*"]}}, "lambda_": {"1": {":*": [":*"]}},
              "alpha": {"1": {":*": ""}}}
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
    lat = fig1L.lattice
    event = lat.event(P, {ref(P, "p")})
    known = k_op(fig1L, "1", event)
    assert ref(PQ, "pq") in lat.up_closure(known)
    assert known == lat.event(P, {ref(P, "p")})


def test_knowledge_necessitation(fig1L):
    omega = fig1L.lattice.omega()
    assert k_op(fig1L, "1", omega) == omega


def test_knowledge_of_vacuous_event_is_vacuous(fig1L):
    vacuous = fig1L.lattice.event(Q)
    assert k_op(fig1L, "1", vacuous) == vacuous


def test_awareness_excludes_pq_for_q(fig1L):
    lat = fig1L.lattice
    event = lat.event(Q, {ref(Q, "q")})
    aware = a_op(fig1L, "1", event)
    assert ref(PQ, "pq") not in lat.up_closure(aware)
    assert aware == lat.event(Q)


def test_awareness_of_p_covers_both_upper_spaces(fig1L):
    event = fig1L.lattice.event(P, {ref(P, "p")})
    covered = fig1L.lattice.up_closure(a_op(fig1L, "1", event))
    expected = set(fig1L.lattice.states_of(P)) | set(fig1L.lattice.states_of(PQ))
    assert covered == frozenset(expected)


def test_awareness_of_meet_based_event_is_everything(fig1R):
    event = fig1R.lattice.event(MEET, {ref(MEET, "*")})
    assert fig1R.lattice.up_closure(a_op(fig1R, "1", event)) == frozenset(fig1R.states)


def test_unawareness_is_negated_awareness(fig1L):
    event = fig1L.lattice.event(Q, {ref(Q, "q")})
    assert u_op(fig1L, "1", event) == fig1L.lattice.event_not(a_op(fig1L, "1", event))


@pytest.mark.parametrize("op", [k_op, l_op, a_op, u_op], ids=lambda op: op.__name__)
@pytest.mark.parametrize("family", ["complemented", "implicit"])
def test_unknown_agent_is_unknown_agent_error(fig1L, family, op):
    model = fig1L if family == "complemented" else implicit_from_complemented(fig1L)
    assert model.family == family
    with pytest.raises(UnknownAgent):
        op(model, "9", model.lattice.omega())


def test_a_straddled_image_raises_wherever_its_level_is_read(fig1L):
    """A Π image that straddles two spaces has no level: ``pi_space`` at
    its state, awareness of an event based in the state's space and the
    implicit view of the model each raise, while awareness elsewhere is
    still defined."""
    model = mutate(fig1L, **{"pi.1.p,q:pq": ["p:p", "q:q"]})
    lat = model.lattice
    message = "^possibility set of agent 1 at p,q:pq spans 2 spaces$"
    with pytest.raises(StraddledPossibilitySet, match=message):
        pi_space(model, "1", ref(PQ, "pq"))
    for _ in range(2):  # a failed call leaves nothing behind for the next one
        with pytest.raises(StraddledPossibilitySet, match=message):
            a_op(model, "1", lat.event(PQ, {ref(PQ, "pq")}))
    with pytest.raises(StraddledPossibilitySet, match=message):
        implicit_from_complemented(model)
    assert a_op(model, "1", lat.event(P, {ref(P, "p")})) == lat.space_up(P)


@pytest.mark.parametrize("op", [k_op, l_op, a_op, u_op], ids=lambda op: op.__name__)
@pytest.mark.parametrize("family", ["complemented", "implicit"])
def test_an_event_of_another_lattice_is_unknown_state(fig1L, fig1R, family, op):
    model = fig1L if family == "complemented" else implicit_from_complemented(fig1L)
    event = fig1R.lattice.omega()
    with pytest.raises(UnknownState, match=re.escape(f"event {event} belongs to another lattice")):
        op(model, "1", event)


@pytest.mark.parametrize("family", ["complemented", "implicit"])
def test_operators_leave_the_decoded_views_unread(fig1L, family):
    """``k_op`` and ``a_op`` read the rows: on a freshly loaded model
    neither decodes the ``StateRef``-keyed views of Π or α."""
    source = fig1L if family == "complemented" else implicit_from_complemented(fig1L)
    model = data_to_model(model_to_data(source))
    assert model.family == family
    event = model.lattice.event(Q, {ref(Q, "q")})
    k_op(model, "1", event)
    a_op(model, "1", event)
    for read in (model, model._derived):
        if read is not None:
            assert "pi" not in vars(read) and "alpha" not in vars(read)



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
