"""Grammar, rendering, and atom extraction."""

from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from awarekit.errors import FormulaSyntaxError
from awarekit.syntax import (
    A,
    And,
    Atom,
    K,
    L,
    MAX_DEPTH,
    Not,
    TOP,
    atoms,
    iff,
    imp,
    modal_depth,
    parse,
    render,
    subformulas,
)
from awarekit.unawareness import StateRef


def test_parse_modal_atom():
    assert parse("k_1 p", agents={"1"}) == K("1", Atom("p"))


def test_precedence_modal_binds_tighter_than_and():
    f = parse("a_1 ~q & l_1 p")
    assert f == And(A("1", Not(Atom("q"))), L("1", Atom("p")))


def test_unknown_agent_rejected():
    with pytest.raises(FormulaSyntaxError) as err:
        parse("k_2 p", agents={"1"})
    assert err.value.offset == 0


def test_agents_none_accepts_any_agent():
    assert parse("k_2 p") == K("2", Atom("p"))


def test_agent_ids_are_arbitrary_tokens():
    assert parse("l_alice p") == L("alice", Atom("p"))


def test_render_examples():
    assert render(K("1", Atom("p"))) == "(k_1 p)"
    assert render(Not(TOP)) == "(~ T)"
    assert render(And(Atom("p"), Atom("q"))) == "(p & q)"


def test_derived_connectives_desugar():
    assert parse("p -> q") == imp(Atom("p"), Atom("q"))
    assert parse("p | q") == Not(And(Not(Atom("p")), Not(Atom("q"))))
    assert parse("p <-> q") == iff(Atom("p"), Atom("q"))


def test_implication_right_associative():
    assert parse("p -> q -> r") == imp(Atom("p"), imp(Atom("q"), Atom("r")))


def test_conjunction_left_associative():
    assert parse("p & q & r") == And(And(Atom("p"), Atom("q")), Atom("r"))


def test_atoms_examples():
    assert atoms(K("1", Atom("p"))) == {"p"}
    assert atoms(TOP) == frozenset()
    assert atoms(And(A("1", Atom("p")), L("1", Not(Atom("q"))))) == {"p", "q"}


def test_atoms_walks_shared_subtrees_once():
    """``iff`` holds each operand twice, so a 26-operand chain unfolds to a
    tree of about 2^26 nodes but has only about a hundred distinct ones."""
    f = Atom("p")
    for _ in range(25):
        f = iff(Atom("p"), f)
    assert atoms(f) == {"p"}
    assert atoms(iff(Atom("q"), f)) == {"p", "q"}


def test_atom_sets_are_cached_and_shared_across_shared_subtrees():
    """A node holds its atom set from construction and shares a child's set
    when that holds every atom of the node: ``iff`` of two operands over
    the same atoms keeps one set."""
    f = iff(parse("p & ~q"), parse("q & p"))
    assert atoms(f) == {"p", "q"}
    assert atoms(f) is atoms(f.left) is atoms(f.left.child)
    assert atoms(f) is atoms(f)
    assert atoms(Not(f)) is atoms(f)


def test_atom_sets_at_the_nesting_cap():
    chain = parse(" & ".join(f"x{i}" for i in range(MAX_DEPTH + 1)))
    assert chain.depth == MAX_DEPTH
    assert atoms(chain) == {f"x{i}" for i in range(MAX_DEPTH + 1)}
    modal = parse("k_1 " * (MAX_DEPTH - 1) + "(p & q)")
    assert modal.depth == MAX_DEPTH
    node = modal
    while isinstance(node, K):
        assert atoms(node) is atoms(modal) == {"p", "q"}
        node = node.child


def test_syntax_errors_carry_offsets():
    with pytest.raises(FormulaSyntaxError):
        parse("")
    with pytest.raises(FormulaSyntaxError) as err:
        parse("(p & q")
    assert err.value.offset == 6
    with pytest.raises(FormulaSyntaxError) as err:
        parse("p @ q")
    assert err.value.offset == 2


def test_reserved_tokens():
    with pytest.raises(FormulaSyntaxError):
        parse("l_")  # bare modal prefix cannot name an atom
    assert parse("T") == TOP


def test_modal_depth():
    assert modal_depth(Atom("p")) == 0
    assert modal_depth(parse("k_1 a_1 p & q")) == 2


# -- property tests ------------------------------------------------------------

_names = st.sampled_from(["p", "q", "r", "zig_2"])
_agents = st.sampled_from(["1", "2", "bob"])

formulas = st.recursive(
    st.one_of(st.just(TOP), st.builds(Atom, _names)),
    lambda inner: st.one_of(
        st.builds(Not, inner),
        st.builds(And, inner, inner),
        st.builds(L, _agents, inner),
        st.builds(A, _agents, inner),
        st.builds(K, _agents, inner),
    ),
    max_leaves=12,
)


@given(formulas)
def test_parse_render_round_trip(f):
    """parse(render(f)) = f for every AST."""
    assert parse(render(f)) == f


@given(formulas)
def test_atoms_monotone_under_subformulas(f):
    """atoms(sub) ⊆ atoms(f) for every subformula sub of f."""
    all_atoms = atoms(f)
    for sub in subformulas(f):
        assert atoms(sub) <= all_atoms


@given(formulas)
def test_sublanguage_closure(f):
    """If atoms(f) ⊆ Ψ ⊆ Φ then f lies in both sublanguages."""
    psi = atoms(f)
    phi = psi | {"extra"}
    assert atoms(f) <= psi <= phi


def test_nesting_up_to_the_limit_parses():
    assert parse("~" * MAX_DEPTH + "p").depth == MAX_DEPTH
    assert parse("(" * MAX_DEPTH + "p" + ")" * MAX_DEPTH) == Atom("p")


@pytest.mark.parametrize("text", [
    "~" * (MAX_DEPTH + 1) + "p",
    "l_1 " * (MAX_DEPTH + 1) + "p",
    "(" * (MAX_DEPTH + 1) + "p" + ")" * (MAX_DEPTH + 1),
    " -> ".join(["p"] * 3000),
    " & ".join(["p"] * (MAX_DEPTH + 2)),
    " | ".join(["p"] * 3000),
])
def test_nesting_past_the_limit_is_a_syntax_error(text):
    with pytest.raises(FormulaSyntaxError, match="nests deeper"):
        parse(text)


def test_depth_is_cached_per_node():
    f = parse("l_1 (p & ~q)")
    assert (f.depth, f.child.depth, f.child.right.depth, TOP.depth) == (3, 2, 1, 0)


def test_copies_recompute_the_cached_hash():
    f = parse("l_1 (p & ~q)")
    for copied in (copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert copied == f and hash(copied) == hash(f) and copied.depth == f.depth
    ref = StateRef(frozenset({"p"}), "w")
    for copied in (copy.deepcopy(ref), pickle.loads(pickle.dumps(ref))):
        assert copied == ref and hash(copied) == hash(ref)
