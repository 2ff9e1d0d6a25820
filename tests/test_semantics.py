"""Three-valued satisfaction, extensions, definedness, and validity."""

from __future__ import annotations

import pytest

from awarekit.errors import UnknownAtom, UnknownState
from awarekit.gen import gen_hms, gen_implicit
from awarekit.implicit import implicit_from_complemented
from awarekit.semantics import TruthValue, extension, satisfies, valid_in_model
from awarekit.syntax import atoms, parse
from conftest import MEET, P, PQ, Q, ref


def test_extension_of_explicit_knowledge(fig1L):
    assert extension(fig1L, parse("k_1 p")) == fig1L.lattice.event(P, {ref(P, "p")})


def test_extension_of_implicit_knowledge_contains_pq(fig1R):
    event = extension(fig1R, parse("l_1 q"))
    assert event.base_space == Q
    assert ref(PQ, "pq") in fig1R.lattice.up_closure(event)


def test_extension_of_top_is_omega(fig1L):
    event = extension(fig1L, parse("T"))
    assert event == fig1L.lattice.omega()
    assert fig1L.lattice.up_closure(event) == frozenset(fig1L.states)


def test_extension_rejects_unknown_atom(fig1L):
    with pytest.raises(UnknownAtom):
        extension(fig1L, parse("r"))


def test_satisfies_unknown_state(fig1L):
    with pytest.raises(UnknownState):
        satisfies(fig1L, ref(PQ, "ghost"), parse("p"))


def test_inexpressible_atom_is_undefined(fig1L):
    assert satisfies(fig1L, ref(Q, "q"), parse("p")) is TruthValue.UNDEFINED


def test_explicit_linkage_at_defined_states(fig1R):
    f = parse("k_1 q <-> (l_1 q & a_1 q)")
    assert satisfies(fig1R, ref(PQ, "pq"), f) is TruthValue.TRUE


def test_unawareness_of_q_at_pq(fig1L):
    assert satisfies(fig1L, ref(PQ, "pq"), parse("a_1 q")) is TruthValue.FALSE


def test_truth_axiom_instance_is_valid(fig1L):
    ok, witness = valid_in_model(fig1L, parse("l_1 p -> p"))
    assert ok and witness is None


def test_awareness_of_q_is_falsified_at_pq(fig1L):
    ok, witness = valid_in_model(fig1L, parse("a_1 q"))
    assert not ok
    assert witness == ref(PQ, "pq")


def test_top_is_valid(fig1R):
    ok, witness = valid_in_model(fig1R, parse("T"))
    assert ok and witness is None


def test_never_both_true_and_false(fig1L):
    for text in ("p", "q", "k_1 p", "a_1 q", "l_1 ~p", "p & q"):
        f = parse(text)
        negated = parse(f"~({text})")
        for state in fig1L.states:
            values = {satisfies(fig1L, state, f), satisfies(fig1L, state, negated)}
            assert values != {TruthValue.TRUE}
            assert (TruthValue.UNDEFINED in values) == (len(values) == 1)


def test_definedness_matches_space_expressibility(fig1L):
    """A formula has a truth value exactly at states whose space holds all
    its atoms, and exactly inside the definedness event: the conjunction
    over its atoms of (atom or not atom)."""
    lat = fig1L.lattice
    for text in ("p", "q", "p & q", "k_1 p", "a_1 q & p"):
        f = parse(text)
        event = lat.event_and([lat.event_or([lat.valuation[p], lat.event_not(lat.valuation[p])])
                               for p in sorted(atoms(f))])
        covered = lat.up_closure(event)
        for state in fig1L.states:
            defined = satisfies(fig1L, state, f) is not TruthValue.UNDEFINED
            assert defined == (state in covered)
            assert defined == (atoms(f) <= state.space)


def test_extension_memo_is_deterministic(fig1L):
    f = parse("k_1 p & a_1 p")
    first = extension(fig1L, f)
    second = extension(fig1L, f)
    assert first == second and first is second


def test_implicit_and_derived_semantics_agree(fig1R):
    """An implicit-primitive model and its derived complemented counterpart
    satisfy the same formulas at every state."""
    im = implicit_from_complemented(fig1R)
    derived = im.derived()
    texts = ["p", "q", "k_1 p", "k_1 q", "a_1 q", "l_1 q", "l_1 (p & q)",
             "a_1 k_1 p", "~ k_1 ~ p"]
    for text in texts:
        f = parse(text)
        for state in im.states:
            assert satisfies(im, state, f) == satisfies(derived, state, f), (text, state)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_implicit_and_derived_agree_on_generated_models(seed):
    im = gen_implicit(seed)
    derived = im.derived()
    agent = im.agents[0]
    atom = sorted(im.atoms)[0]
    texts = [atom, f"k_{agent} {atom}", f"a_{agent} {atom}", f"l_{agent} ~{atom}",
             f"k_{agent} a_{agent} {atom}"]
    for text in texts:
        f = parse(text, im.agents)
        for state in im.states:
            assert satisfies(im, state, f) == satisfies(derived, state, f)


@pytest.mark.parametrize("seed", [0, 5])
def test_k_linkage_everywhere_defined(seed):
    model = gen_hms(seed)
    agent = model.agents[0]
    atom = sorted(model.atoms)[0]
    f = parse(f"k_{agent} {atom} <-> (l_{agent} {atom} & a_{agent} {atom})",
              model.agents)
    for state in model.states:
        assert satisfies(model, state, f) in (TruthValue.TRUE, TruthValue.UNDEFINED)
