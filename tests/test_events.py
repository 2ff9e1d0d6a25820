"""Events, up-closures, projections, and the event algebra."""

from __future__ import annotations

import gc
import weakref

import pytest

from awarekit.errors import ModelFormatError, NotComparable, UnknownSpace, UnknownState
from awarekit.fixtures import fixture_path
from awarekit.gen import gen_hms
from awarekit.implicit import a_star_property_suite, implicit_from_complemented
from awarekit.modelio import load_model
from awarekit.semantics import valid_in_model
from awarekit.syntax import parse
from awarekit.unawareness import explicit_property_suite
from conftest import MEET, P, PQ, Q, ref


def test_up_closure_of_p(fig1L):
    lat = fig1L.lattice
    event = lat.event(P, {ref(P, "p")})
    assert lat.up_closure(event) == {ref(P, "p"), ref(PQ, "pq"), ref(PQ, "p~q")}


def test_up_closure_of_meet_space_is_everything(fig1L):
    lat = fig1L.lattice
    event = lat.event(MEET, {ref(MEET, "*")})
    assert lat.up_closure(event) == frozenset(fig1L.states)


def test_vacuous_event_has_empty_extension(fig1L):
    lat = fig1L.lattice
    assert lat.up_closure(lat.event(PQ)) == frozenset()


def test_vacuous_events_differ_by_base_space(fig1L):
    lat = fig1L.lattice
    assert lat.event(PQ) != lat.event(P)


def test_up_closure_unknown_space(fig1L):
    with pytest.raises(UnknownSpace):
        fig1L.lattice.event(frozenset({"z"}))


def test_up_closure_unknown_state(fig1L):
    with pytest.raises(UnknownState):
        fig1L.lattice.event(P, {ref(P, "ghost")})


def test_event_of_another_lattice_is_rejected(fig1L, fig1R):
    foreign = fig1R.lattice.omega()
    assert foreign != fig1L.lattice.omega()
    with pytest.raises(UnknownState):
        fig1L.lattice.event_not(foreign)


def test_event_base_must_lie_in_base_space(fig1L):
    with pytest.raises(ModelFormatError):
        fig1L.lattice.event(P, {ref(Q, "q")})


def test_project_state_examples(fig1L):
    lat = fig1L.lattice
    assert lat.project(ref(PQ, "pq"), Q) == ref(Q, "q")
    assert lat.project(ref(PQ, "pq"), PQ) == ref(PQ, "pq")
    assert lat.project(ref(PQ, "~p~q"), MEET) == ref(MEET, "*")


def test_project_state_not_comparable(fig1L):
    with pytest.raises(NotComparable):
        fig1L.lattice.project(ref(P, "p"), Q)


def test_event_not(fig1L):
    lat = fig1L.lattice
    event = lat.event(P, {ref(P, "p")})
    assert lat.event_not(event) == lat.event(P, {ref(P, "~p")})


def test_event_and_elaborates_to_join(fig1L):
    lat = fig1L.lattice
    left = lat.event(P, {ref(P, "p")})
    right = lat.event(Q, {ref(Q, "q")})
    assert lat.event_and([left, right]) == lat.event(PQ, {ref(PQ, "pq")})


def test_event_or_stays_below_everything(fig1L):
    """The union of an event and its negation misses less expressive spaces."""
    lat = fig1L.lattice
    left = lat.event(P, {ref(P, "p")})
    right = lat.event(P, {ref(P, "~p")})
    both = lat.event_or([left, right])
    assert both == lat.event(P, {ref(P, "p"), ref(P, "~p")})
    assert lat.up_closure(both) < frozenset(fig1L.states)


@pytest.mark.parametrize("seed", range(8))
def test_event_algebra_against_set_operations(seed):
    """Conjunction is intersection of up-closures; negation is disjoint from
    its argument; disjunction is the union restricted to the spaces where
    both operands are expressible."""
    model = gen_hms(seed)
    lat = model.lattice
    events = [lat.valuation[a] for a in sorted(model.atoms)]
    events += [lat.event_not(e) for e in events[:2]]
    for left in events:
        for right in events:
            joined = lat.event_and([left, right])
            assert lat.up_closure(joined) == lat.up_closure(left) & lat.up_closure(right)
            union = lat.event_or([left, right])
            expressible = lat.up_closure(lat.space_up(left.base_space | right.base_space))
            both = (lat.up_closure(left) | lat.up_closure(right)) & expressible
            assert lat.up_closure(union) == both
        negated = lat.event_not(left)
        assert not lat.up_closure(negated) & lat.up_closure(left)



def test_lattice_is_freed_by_refcount():
    """Events keep no reference to their lattice, so a model and everything
    built on it are freed as soon as the last reference goes, without the
    cycle collector."""
    gc.collect()
    gc.disable()
    try:
        model = load_model(fixture_path("fig1R.model"))
        implicit = implicit_from_complemented(model)
        for text in ("k_1 q <-> (l_1 q & a_1 q)", "~ a_1 p | k_1 (p & q)"):
            valid_in_model(model, parse(text))
            valid_in_model(implicit, parse(text))
        assert explicit_property_suite(model).ok
        assert a_star_property_suite(implicit).ok
        lattice = weakref.ref(model.lattice)
        del model, implicit
        assert lattice() is None
    finally:
        gc.enable()
