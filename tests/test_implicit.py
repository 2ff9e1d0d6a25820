"""The implicit layer: lambda validation, the implicit knowledge operator,
the awareness function, and the derivation of explicit possibility."""

from __future__ import annotations

import pytest

from awarekit.errors import CandidateInvalid, ModelFormatError, PreconditionFailed
from awarekit.gen import gen_hms, gen_implicit
from awarekit.implicit import (
    a_star_property_suite,
    candidate_lambda_from_pi,
    derive_pi_star,
    implicit_from_complemented,
    implicit_property_suite,
    validate_alpha,
    validate_implicit,
    validate_lambda,
)
from awarekit.modelio import data_to_model, model_to_data
from awarekit.semantics import TruthValue, satisfies
from awarekit.syntax import parse
from awarekit.unawareness import (
    Event,
    LatticeModel,
    SpaceLattice,
    a_op,
    l_op,
    up_closure,
    validate_hms,
)
from conftest import MEET, P, PQ, Q, ref
from test_unawareness import mutate


def test_fig1_lambdas_validate(fig1L, fig1R):
    assert validate_lambda(fig1L).ok
    assert validate_lambda(fig1R).ok


def test_asymmetric_grouping_breaks_projection_law(fig1L):
    """Grouping only the p-worlds while keeping the negated ones apart cannot
    project consistently onto the q space."""
    bad = mutate(
        fig1L,
        **{"lambda.1.p,q:~pq": ["p,q:~pq"],
           "lambda.1.p,q:~p~q": ["p,q:~p~q"]})
    report = validate_lambda(bad)
    assert any(v.law == "projections-preserve-implicit-knowledge"
               for v in report.violations)


def test_strong_confinement_reported_first(fig1L):
    bad = mutate(fig1L, **{"lambda.1.p:p": ["p:p", ":*"]})
    report = validate_lambda(bad)
    assert any(v.law == "strong-confinement" for v in report.violations)


def test_explicit_measurability_violation(fig1R):
    bad = mutate(fig1R, **{"lambda.1.p,q:pq": ["p,q:pq", "p,q:~pq"],
                           "lambda.1.p,q:~pq": ["p,q:pq", "p,q:~pq"],
                           "lambda.1.q:q": ["q:q", "q:~q"],
                           "lambda.1.q:~q": ["q:q", "q:~q"]})
    report = validate_lambda(bad)
    assert any(v.law == "explicit-measurability" for v in report.violations)


# -- implicit knowledge operator -------------------------------------------------


def test_implicitly_knows_q_only_in_right_model(fig1L, fig1R):
    event = Event(Q, frozenset({ref(Q, "q")}))
    pq = ref(PQ, "pq")
    assert pq in up_closure(fig1R, l_op(fig1R, "1", event))
    assert pq not in up_closure(fig1L, l_op(fig1L, "1", event))


def test_implicit_knowledge_of_everything(fig1L):
    omega = fig1L.lattice.omega()
    assert l_op(fig1L, "1", omega) == omega


def test_implicit_suite_on_fixtures(fig1L, fig1R):
    assert implicit_property_suite(fig1L).ok
    assert implicit_property_suite(fig1R).ok


def test_implicitly_knows_own_unawareness(fig1R):
    """At pq the agent is unaware of q and implicitly knows that she is."""
    pq = ref(PQ, "pq")
    assert satisfies(fig1R, pq, parse("~ a_1 q")) is TruthValue.TRUE
    assert satisfies(fig1R, pq, parse("l_1 ~ a_1 q")) is TruthValue.TRUE


@pytest.mark.parametrize("seed", [0, 1, 2, 5, 9])
def test_implicit_suite_on_generated_models(seed):
    assert implicit_property_suite(gen_hms(seed)).ok


# -- candidate construction ------------------------------------------------------


def test_candidate_recovers_left_panel(fig1L):
    candidate = candidate_lambda_from_pi(fig1L.base)
    assert candidate.lambda_ == fig1L.lambda_


def test_candidate_on_degenerate_model_equals_pi():
    lattice = SpaceLattice([], {MEET: ["*"]}, {}, {})
    star = ref(MEET, "*")
    model = LatticeModel(lattice, ["1"], pi={"1": {star: {star}}})
    candidate = candidate_lambda_from_pi(model)
    assert candidate.lambda_ == model.pi


@pytest.mark.parametrize("seed", range(25))
def test_candidate_outcomes_on_generated_models(seed):
    """The candidate validated on every generated model tried so far; a
    CandidateInvalid here would be a new observation worth keeping."""
    model = gen_hms(seed).base
    try:
        candidate_lambda_from_pi(model)
    except CandidateInvalid as err:  # pragma: no cover - not yet observed
        pytest.fail(f"candidate failed on seed {seed}: {err}")


# -- awareness function ----------------------------------------------------------


def test_implicit_view_of_fixtures_validates(fig1L, fig1R):
    assert validate_implicit(implicit_from_complemented(fig1L)).ok
    assert validate_implicit(implicit_from_complemented(fig1R)).ok


def test_alpha_projection_violation(fig1R):
    """Raising awareness at pq to the full space while its projection keeps a
    lower level breaks the cross-space consistency laws."""
    im = implicit_from_complemented(fig1R)
    data = model_to_data(im)
    data["alpha"]["1"]["p,q:pq"] = "p,q"
    data["alpha"]["1"]["p,q:p~q"] = "p,q"
    bad = data_to_model(data)
    report = validate_alpha(bad)
    assert any(v.law in ("awareness-projects-to-level", "awareness-monotone-under-projection")
               for v in report.violations)


def test_alpha_measurability_violation(fig1L):
    im = implicit_from_complemented(fig1L)
    data = model_to_data(im)
    data["alpha"]["1"]["p,q:pq"] = "p,q"
    bad = data_to_model(data)
    report = validate_alpha(bad)
    assert any(v.law == "awareness-measurability" for v in report.violations)


# -- derivation -------------------------------------------------------------------


def test_derivation_round_trips_fixtures(fig1L, fig1R):
    for model in (fig1L, fig1R):
        derived = derive_pi_star(implicit_from_complemented(model))
        assert derived.pi == model.pi
        assert derived.lambda_ == model.lambda_


def test_full_awareness_keeps_implicit_cells(fig1R):
    """With awareness pinned to each state's own space, the derived explicit
    possibility is the implicit cell itself."""
    im = implicit_from_complemented(fig1R)
    data = model_to_data(im)
    for token in list(data["alpha"]["1"]):
        data["alpha"]["1"][token] = token.partition(":")[0]
    full = data_to_model(data)
    derived = derive_pi_star(full)
    assert derived.pi == {agent: dict(table) for agent, table in full.lambda_.items()}


def test_no_conception_projects_to_meet(fig1R):
    im = implicit_from_complemented(fig1R)
    data = model_to_data(im)
    for token in list(data["alpha"]["1"]):
        data["alpha"]["1"][token] = ""
    blind = data_to_model(data)
    derived = derive_pi_star(blind)
    star = ref(MEET, "*")
    for state, image in derived.pi["1"].items():
        assert image == frozenset({star})


def test_derivation_requires_valid_input(fig1L):
    im = implicit_from_complemented(fig1L)
    data = model_to_data(im)
    data["alpha"]["1"]["p,q:pq"] = "p,q"
    with pytest.raises(PreconditionFailed):
        derive_pi_star(data_to_model(data))


# -- awareness operator from the function -----------------------------------------


def test_a_star_excludes_pq_for_q(fig1R):
    im = implicit_from_complemented(fig1R)
    event = Event(Q, frozenset({ref(Q, "q")}))
    assert ref(PQ, "pq") not in up_closure(im, a_op(im, "1", event))


def test_a_star_on_meet_based_event(fig1R):
    im = implicit_from_complemented(fig1R)
    event = Event(MEET, frozenset({ref(MEET, "*")}))
    assert up_closure(im, a_op(im, "1", event)) == frozenset(im.states)


def test_a_star_suite_on_fixtures(fig1L, fig1R):
    assert a_star_property_suite(implicit_from_complemented(fig1L)).ok
    assert a_star_property_suite(implicit_from_complemented(fig1R)).ok


@pytest.mark.parametrize("seed", [0, 3, 4, 7])
def test_a_star_suite_on_generated_models(seed):
    assert a_star_property_suite(gen_implicit(seed)).ok


CALLS = {
    "l_op": lambda model: l_op(model, model.agents[0], model.lattice.omega()),
    "derived": lambda model: model.derived(),
    "validate_hms": validate_hms,
    "validate_lambda": validate_lambda,
    "validate_alpha": validate_alpha,
    "validate_implicit": validate_implicit,
    "implicit_property_suite": implicit_property_suite,
    "a_star_property_suite": a_star_property_suite,
}


@pytest.mark.parametrize("call, shape, missing", [
    ("l_op", "pi", "lambda"),
    ("derived", "pi", "lambda"),
    ("validate_lambda", "pi", "lambda"),
    ("implicit_property_suite", "pi", "lambda"),
    ("derived", "pi+lambda", "alpha"),
    ("validate_alpha", "pi+lambda", "alpha"),
    ("validate_implicit", "pi+lambda", "alpha"),
    ("a_star_property_suite", "pi+lambda", "alpha"),
    ("validate_hms", "lambda+alpha", "pi"),
])
def test_missing_primitive_is_model_format_error(fig1L, call, shape, missing):
    model = {
        "pi": LatticeModel(fig1L.lattice, fig1L.agents, pi=fig1L.pi),
        "pi+lambda": fig1L,
        "lambda+alpha": implicit_from_complemented(fig1L),
    }[shape]
    with pytest.raises(ModelFormatError, match=f"^the {model.family} model has no {missing}$"):
        CALLS[call](model)
