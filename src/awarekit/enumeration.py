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

Within one size, formulas come in the order of their rendered text.  Each
kept formula's text and modal depth are held in two dicts, so a candidate's
text and depth are formed from its children's entries, not by walking it.
The candidates of a size are rows of text, modal depth, constructor and
arguments, sorted on the text; those deeper than the bound are never
formed, and a node is built only for a row that is kept.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable

from .syntax import _MODAL_TOKEN, A, And, Atom, Formula, K, L, Not, TOP, Top, render


MAX_FORMULAS = 150
MAX_SIZE = 9


def enumerate_formulas(atoms: Iterable[str], agents: Iterable[str], depth: int
                       ) -> list[Formula]:
    modalities = [(f"({_MODAL_TOKEN[cls]}_{agent} ", cls, agent)
                  for agent in sorted(set(agents)) for cls in (L, A, K)]
    text: dict[Formula, str] = {}
    modal_depth: dict[Formula, int] = {}
    by_size: list[list[Formula]] = [[]]
    out: list[Formula] = []

    def keep(bucket: list[Formula], f: Formula, f_text: str, f_depth: int) -> bool:
        text[f], modal_depth[f] = f_text, f_depth
        bucket.append(f)
        out.append(f)
        return len(out) < MAX_FORMULAS

    bucket: list[Formula] = []
    by_size.append(bucket)
    if depth >= 0:
        for f in [TOP] + [Atom(name) for name in sorted(set(atoms))]:
            if not keep(bucket, f, render(f), 0):
                return out

    for size in range(2, MAX_SIZE + 1):
        rows = []
        for f in by_size[size - 1]:
            f_text, f_depth = text[f], modal_depth[f]
            if type(f) is not Not:
                rows.append((f"(~ {f_text})", f_depth, Not, (f,)))
            if f_depth < depth:
                for prefix, cls, agent in modalities:
                    rows.append((f"{prefix}{f_text})", f_depth + 1, cls, (agent, f)))
        for left_size in range(1, size - 1):
            rights = [(right, text[right], modal_depth[right])
                      for right in by_size[size - 1 - left_size] if type(right) is not Top]
            for left in by_size[left_size]:
                if type(left) is Top:
                    continue
                left_text, left_depth = text[left], modal_depth[left]
                for right, right_text, right_depth in rights:
                    if left_text < right_text:
                        rows.append((f"({left_text} & {right_text})",
                                     max(left_depth, right_depth), And, (left, right)))
        bucket = []
        by_size.append(bucket)
        # Stable, so rows of equal text (only atom names that read as
        # formulas give them) keep the order they were formed in.
        rows.sort(key=itemgetter(0))
        for f_text, f_depth, cls, args in rows:
            if not keep(bucket, cls(*args), f_text, f_depth):
                return out
    return out
