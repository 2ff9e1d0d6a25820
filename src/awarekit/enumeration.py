"""Bounded, deterministic formula enumeration.

Formulas are generated in increasing AST size, filtered by modal depth, and
canonicalized to curb redundancy: no double negation, conjunctions take
render-ordered distinct operands, and the constant true never appears as an
operand.  The caps (at most MAX_FORMULAS formulas of AST size at most
MAX_SIZE) bound what a check compares, not only its cost: formulas come
smallest first, so the cap is often reached before any formula of the
requested depth, and a larger depth may add none.  With agents ``1,2`` and
2, 3 or 6 atoms, depth 3 gives the same formulas as depth 2, none deeper
than 2 and none with more than one atom (see docs/formats.md).
"""

from __future__ import annotations

from typing import Iterable

from .syntax import A, And, Atom, Formula, K, L, Not, TOP, Top, modal_depth, render


MAX_FORMULAS = 150
MAX_SIZE = 9


def enumerate_formulas(atoms: Iterable[str], agents: Iterable[str], depth: int
                       ) -> list[Formula]:
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
