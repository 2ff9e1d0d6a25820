"""Formula enumeration and node construction against references written
the plain way.

`enumerate_formulas` forms each candidate's text and modal depth from its
children's kept entries and builds only the nodes it keeps.  The reference
below renders and walks every candidate, as the definition reads: it must
give the same list, the same formulas in the same order.  Each node sets its
hash, depth and atom set from its own fields; they must equal what a walk
over the node's fields gives, also for the schema patterns of `lpa`, whose
metavariable children add neither depth nor atoms.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from awarekit import lpa
from awarekit.enumeration import MAX_FORMULAS, MAX_SIZE, enumerate_formulas
from awarekit.syntax import (
    A,
    And,
    Atom,
    Formula,
    K,
    L,
    Not,
    TOP,
    Top,
    modal_depth,
    parse,
    render,
)


def reference_enumeration(atoms, agents, depth) -> list[Formula]:
    """Candidates of each size, built, rendered and sorted whole, then kept
    while within the depth bound and the cap."""
    agent_list = sorted(set(agents))
    by_size: list[list[Formula]] = [[]]
    out: list[Formula] = []
    seen: set[Formula] = set()

    def push(bucket: list[Formula], f: Formula) -> bool:
        if f in seen or modal_depth(f) > depth:
            return len(out) < MAX_FORMULAS
        seen.add(f)
        bucket.append(f)
        out.append(f)
        return len(out) < MAX_FORMULAS

    first = [TOP] + [Atom(name) for name in sorted(set(atoms))]
    bucket = []
    for f in first:
        if not push(bucket, f):
            by_size.append(bucket)
            return out
    by_size.append(bucket)

    for size in range(2, MAX_SIZE + 1):
        bucket = []
        candidates: list[Formula] = []
        for f in by_size[size - 1]:
            if not isinstance(f, Not):
                candidates.append(Not(f))
            for agent in agent_list:
                candidates.append(L(agent, f))
                candidates.append(A(agent, f))
                candidates.append(K(agent, f))
        for left_size in range(1, size - 1):
            for left in by_size[left_size]:
                for right in by_size[size - 1 - left_size]:
                    if isinstance(left, Top) or isinstance(right, Top):
                        continue
                    if render(left) < render(right):
                        candidates.append(And(left, right))
        for f in sorted(candidates, key=render):
            if not push(bucket, f):
                by_size.append(bucket)
                return out
        by_size.append(bucket)
    return out


AGENT_SETS = [["1"], ["1", "2"], ["1", "2", "3"], ["a", "b"]]


@pytest.mark.parametrize("n_atoms", range(1, 7))
@pytest.mark.parametrize("agents", AGENT_SETS, ids=",".join)
def test_enumeration_matches_reference(n_atoms, agents):
    atoms = [f"p{k}" for k in range(n_atoms)]
    for depth in range(5):
        assert enumerate_formulas(atoms, agents, depth) == \
            reference_enumeration(atoms, agents, depth), (n_atoms, agents, depth)


def test_enumeration_of_unsorted_repeated_inputs_and_a_negative_depth():
    atoms, agents = ["q", "p", "q"], ["2", "1", "2"]
    assert enumerate_formulas(atoms, agents, 2) == reference_enumeration(atoms, agents, 2)
    assert enumerate_formulas(atoms, agents, -1) == [] == reference_enumeration(atoms, agents, -1)


def nodes(pattern):
    """``pattern`` and every node below it, metavariables excluded."""
    if isinstance(pattern, Formula):
        yield pattern
        for field in fields(pattern):
            yield from nodes(getattr(pattern, field.name))


def walked(node) -> tuple[int, frozenset[str]]:
    """Depth and atoms from a walk over the node's fields: a field that is
    not a node adds neither."""
    depth, found = 0, frozenset()
    for field in fields(node):
        part = getattr(node, field.name)
        if isinstance(part, Formula):
            part_depth, part_atoms = walked(part)
            depth, found = max(depth, part_depth + 1), found | part_atoms
    if isinstance(node, Atom):
        found = frozenset({node.name})
    return depth, found


def assert_node_fields(f) -> None:
    values = tuple(getattr(f, field.name) for field in fields(f))
    assert hash(f) == hash((type(f).__name__, *values)), f
    assert (f.depth, f._atoms) == walked(f), f


def test_node_hashes_depths_and_atoms_are_those_of_their_fields():
    formulas = enumerate_formulas(["p", "q", "r"], ["1", "2"], 3)
    formulas += [parse("~(p & q) -> l_1 (a_2 r | k_1 T)"), TOP, Top()]
    for f in formulas:
        for node in nodes(f):
            assert_node_fields(node)


def test_schema_pattern_nodes_carry_no_metavariable_depth_or_atoms():
    patterns = [p for p in lpa.SCHEMAS.values() if p is not None]
    patterns += list(lpa.TAUT_TEMPLATES)
    for pattern in patterns:
        for node in nodes(pattern):
            assert_node_fields(node)
            assert node._atoms == frozenset()
    assert L(lpa._I, lpa._PHI).depth == 0
    assert And(L(lpa._I, lpa._PHI), lpa._PSI).depth == 1
