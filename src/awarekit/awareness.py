"""Kripke-style awareness models (CLI model kind ``fh``) and their
sublanguage categories.

An awareness model pairs partitional accessibility relations with per-agent
awareness sets, stored as atom sets: under propositional determination an
agent is aware of a formula iff it is aware of each of the formula's atoms.
Worlds are indices in sorted id order, and a model stores only mask tables
(:class:`_Tables`), in which bit ``k`` of an atom mask is the ``k``-th
language atom in sorted order, as in the space masks of a
:class:`~awarekit.unawareness.SpaceLattice`.  Evaluation, validation, the
category and the modal partition run on these ints; the mappings keyed by
world id are views, decoded on first read.  Models are immutable, and a
model file's fields are checked and encoded by :mod:`~awarekit.modelio`.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import compress
from typing import Iterable, Mapping, NamedTuple, Sequence

from .enumeration import enumerate_formulas
from .errors import (
    AwarekitError,
    ModelFormatError,
    PreconditionFailed,
    UndefinedFormula,
    UnknownAgent,
    UnknownState,
)
from .reports import Report, memoised
from .syntax import A, And, Atom, Formula, K, L, Not, Top, atoms as formula_atoms
from .unawareness import _each, _holders, _indices, space_key, subsets


class _Tables(NamedTuple):
    """Bit ``k`` of an atom mask is ``atoms[k]``: the language atoms, then
    any other atom that awareness or the valuation names, each part sorted.
    Bit ``i`` of a world mask is world ``i``."""

    atoms: tuple[str, ...]
    succ: dict[str, list[int]]   # per agent, each world's successor mask
    aware: dict[str, list[int]]  # per agent, each world's awareness atom mask
    val: dict[str, int]          # per valued atom, the worlds where it holds


def _mask(position: Mapping[str, int], names: Iterable) -> int:
    """The mask with bit ``position[name]`` set for each of ``names``."""
    mask = 0
    for name in names:
        mask |= 1 << position[name]
    return mask


@lru_cache(maxsize=4096)
def _decode(names: tuple[str, ...], mask: int) -> frozenset[str]:
    """The names at the set bits of ``mask``, memoized across models."""
    return frozenset(compress(names, map("1".__eq__, bin(mask)[:1:-1])))


class AwarenessModel:
    """Worlds, accessibility relations, awareness atom sets and a valuation
    over one fixed language.

    World ``i`` is ``worlds[i]``, the worlds in sorted id order.  The model
    is its :class:`_Tables` (per agent, each world's successor mask and
    awareness atom mask; per valued atom, its world mask), encoded from a
    file by :mod:`~awarekit.modelio` or built by the generator, the category
    or a transform.  ``relations``, ``awareness_atoms``, ``valuation`` and
    :meth:`successors` are views of the tables, decoded on first read."""

    family = "awareness"

    def __init__(self, language_atoms: Iterable[str], agents: Iterable[str],
                 worlds: Sequence[str], tables: _Tables):
        self.language_atoms = frozenset(language_atoms)
        self.agents = tuple(agents)
        self.worlds = tuple(worlds)
        self._index = {w: i for i, w in enumerate(self.worlds)}
        self._atoms, self._succ, self._aware, self._val = tables
        self._bit = {atom: k for k, atom in enumerate(self._atoms)}
        self._ext_cache: dict[Formula, int] = {}
        self._reports: dict = {}  # see reports.memoised

    @cached_property
    def _cells(self) -> dict[type, dict[str, dict[int, int]]]:
        """Per operator, ``L`` or ``A``, and agent: each distinct successor
        or awareness mask, and the worlds that have it."""
        return {L: {agent: _holders(rows) for agent, rows in self._succ.items()},
                A: {agent: _holders(rows) for agent, rows in self._aware.items()}}

    @cached_property
    def relations(self) -> dict[str, frozenset[tuple[str, str]]]:
        return {agent: frozenset((w, t) for w, ts in rows.items() for t in ts)
                for agent, rows in self._successor_sets.items()}

    @cached_property
    def awareness_atoms(self) -> dict[str, dict[str, frozenset[str]]]:
        return {agent: {w: _decode(self._atoms, m) for w, m in zip(self.worlds, rows)}
                for agent, rows in self._aware.items()}

    @cached_property
    def valuation(self) -> dict[str, frozenset[str]]:
        return {atom: _decode(self.worlds, self._val[atom]) for atom in sorted(self._val)}

    @cached_property
    def _successor_sets(self) -> dict[str, dict[str, frozenset[str]]]:
        return {agent: {w: _decode(self.worlds, m) for w, m in zip(self.worlds, rows)}
                for agent, rows in self._succ.items()}

    def successors(self, agent: str, world: str) -> frozenset[str]:
        per_agent = self._successor_sets.get(agent)
        if per_agent is None:
            raise UnknownAgent(f"no agent {agent!r}")
        if world not in per_agent:
            raise UnknownState(f"no world {world!r}")
        return per_agent[world]


def fh_mask(model: AwarenessModel, f: Formula) -> int:
    """The worlds satisfying ``f``, as a world mask; memoized per model."""
    need = formula_atoms(f)
    if not need <= model.language_atoms:
        stray = sorted(need - model.language_atoms)
        raise UndefinedFormula(f"formula uses atoms outside the language: {stray}")
    return _fh_extension(model, f)


def fh_extension(model: AwarenessModel, f: Formula) -> frozenset[str]:
    """The set of worlds satisfying ``f``, decoded from :func:`fh_mask`."""
    return _decode(model.worlds, fh_mask(model, f))


def _fh_extension(model: AwarenessModel, f: Formula) -> int:
    """:func:`fh_mask` unchecked; on a category member (which shares its
    top model's memo) only for formulas of the member's language."""
    cached = model._ext_cache.get(f)
    if cached is not None:
        return cached
    if isinstance(f, Top):
        out = (1 << len(model.worlds)) - 1
    elif isinstance(f, Atom):
        out = model._val.get(f.name, 0)
    elif isinstance(f, Not):
        out = ((1 << len(model.worlds)) - 1) & ~_fh_extension(model, f.child)
    elif isinstance(f, And):
        out = _fh_extension(model, f.left) & _fh_extension(model, f.right)
    elif isinstance(f, (L, A)):
        # Knowledge: the successors lie inside the child's extension.
        # Awareness: the awareness set holds each atom of the child.
        if isinstance(f, L):
            child = _fh_extension(model, f.child)
        else:
            need = formula_atoms(f.child)
            need = _mask(model._bit, need) if need <= model._bit.keys() else -1
        cells = model._cells[type(f)].get(f.agent)
        if cells is None:
            raise UnknownAgent(f"no agent {f.agent!r}")
        out = 0
        for cell, holders in cells.items():
            if not (cell & ~child if isinstance(f, L) else need & ~cell):
                out |= holders
    elif isinstance(f, K):
        # Explicit knowledge is implicit knowledge of an aware formula.
        out = _fh_extension(model, L(f.agent, f.child)) & _fh_extension(model, A(f.agent, f.child))
    else:
        raise TypeError(f"not a formula node: {f!r}")
    model._ext_cache[f] = out
    return out


def fh_satisfies(model: AwarenessModel, world: str, f: Formula) -> bool:
    i = model._index.get(world)
    if i is None:
        raise UnknownState(f"no world {world!r}")
    return bool(fh_mask(model, f) >> i & 1)


@memoised
def validate_fh(model: AwarenessModel) -> Report:
    """Partitionality per agent, awareness constancy on cells, and the
    language bounds on valuation and awareness sets.  Worlds ``w`` and their
    edges ``(w, t)`` are walked in index order, one and-not per edge and law:
    ``succ[t] & ~succ[w]`` holds each ``u`` of a path ``w -> t -> u`` that
    breaks transitivity, and ``succ[w] & ~succ[t]`` each ``u`` of an edge
    pair ``(w, t), (w, u)`` that breaks euclideanness; ``checked`` counts
    every such path and pair."""
    report = Report()
    worlds, atoms = model.worlds, model._atoms
    outside = ~_mask(model._bit, model.language_atoms)
    checked = len(model._val)
    for atom in sorted(model._val.keys() - model.language_atoms):
        report.add("valuation-within-language", atom=atom)
    for agent in model.agents:
        aware, succ = model._aware[agent], model._succ[agent]
        degree = [row.bit_count() for row in succ]
        checked += 2 * len(worlds) + sum(degree)
        for i, row in enumerate(succ):
            w = worlds[i]
            if aware[i] & outside:
                report.add("awareness-within-language", agent, world=w, atoms=",".join(
                    sorted(atoms[k] for k in _indices(aware[i] & outside))))
            if not row >> i & 1:
                report.add("relation-reflexive", agent, world=w)
            checked += degree[i] ** 2
            for j in _indices(row):
                checked += degree[j]
                for u in _indices(succ[j] & ~row):
                    report.add("relation-transitive", agent, chain=f"{w}->{worlds[j]}->{worlds[u]}")
                if aware[i] != aware[j]:
                    report.add("awareness-constant-on-cells", agent, source=w, reached=worlds[j])
                for u in _indices(row & ~succ[j]):
                    report.add("relation-euclidean", agent,
                               witness=f"({w},{worlds[j]}) and ({w},{worlds[u]})")
    report.count(checked)
    return report


def check_bounded_morphism(src: AwarenessModel, dst: AwarenessModel,
                           mapping: Mapping[str, str]) -> Report:
    """Exhaustively verify the five clauses of a surjective bounded morphism.

    Awareness consistency is checked on the atom masks: the source's
    awareness mask cut to the target language, in the target's atom order,
    must be the target's awareness mask, which under propositional
    determination is the clause itself.
    """
    report = Report()
    report.count()
    if not dst.language_atoms <= src.language_atoms:
        report.add("language-nested", extra=",".join(
            sorted(dst.language_atoms - src.language_atoms)))
        return report

    report.count()
    if mapping.keys() != src._index.keys():
        report.add("mapping-total", missing=",".join(sorted(src._index.keys() - mapping.keys())))
        return report
    stray = sorted((w, v) for w, v in mapping.items() if v not in dst._index)
    report.count()
    if stray:
        report.add("mapping-into-target", world=stray[0][0], image=stray[0][1])
        return report

    image = [dst._index[mapping[w]] for w in src.worlds]
    report.count(len(dst.worlds))
    for j in sorted(set(range(len(dst.worlds))) - set(image)):
        report.add("surjectivity", world=dst.worlds[j])

    for p in sorted(dst.language_atoms):
        here, there = src._val.get(p, 0), dst._val.get(p, 0)
        for i, w in enumerate(src.worlds):
            report.count()
            if (here >> i & 1) != (there >> image[i] & 1):
                report.add("atomic-harmony", world=w, atom=p)

    # Each atom of the target language, as its bit in the source's atom
    # order and its bit in the target's.
    shared = [(1 << src._bit[p], 1 << dst._bit[p]) for p in dst.language_atoms]

    def restrict(mask: int) -> int:
        """A source awareness mask cut to the target language, in the
        target's atom order."""
        return sum(there for here, there in shared if mask & here)

    for agent in src.agents:
        restricted, dst_aware = _each(restrict, src._aware[agent]), dst._aware[agent]
        for i, w in enumerate(src.worlds):
            report.count()
            if restricted[i] != dst_aware[image[i]]:
                report.add("awareness-consistency", agent, world=w)

        succ, dst_succ = src._succ[agent], dst._succ[agent]
        for i, row in enumerate(succ):
            reached = 0  # the images of the world's successors
            for j in _indices(row):
                report.count()
                reached |= 1 << image[j]
                if not dst_succ[image[i]] >> image[j] & 1:
                    report.add("homomorphism", agent, pair=f"({src.worlds[i]},{src.worlds[j]})")
            report.count(dst_succ[image[i]].bit_count())
            for j in _indices(dst_succ[image[i]] & ~reached):
                report.add("back", agent, world=src.worlds[i], target=dst.worlds[j])
    return report


class AwarenessCategory:
    """One awareness model per sublanguage, linked by bounded morphisms that
    compose along nested languages.  A morphism is its map of worlds, keyed
    by its (larger, smaller) pair of languages."""

    def __init__(self, atoms: frozenset[str],
                 models: Mapping[frozenset[str], AwarenessModel],
                 morphisms: Mapping[tuple[frozenset[str], frozenset[str]], Mapping[str, str]]):
        self.atoms = frozenset(atoms)
        self.models = dict(models)
        self.morphisms = dict(morphisms)
        for space in subsets(self.atoms):
            if space not in self.models:
                raise ModelFormatError(f"category is missing the model for "
                                       f"{space_key(space)!r}")
        for large in subsets(self.atoms):
            for small in subsets(large):
                if (large, small) not in self.morphisms:
                    raise ModelFormatError(
                        f"category is missing the morphism "
                        f"{space_key(large)!r} -> {space_key(small)!r}")

    @property
    def agents(self) -> tuple[str, ...]:
        return self.models[self.atoms].agents


def _modal_partition(model: AwarenessModel) -> list[int]:
    """Coarsest partition of worlds stable under valuation, awareness, and
    per-agent reachability (modal equivalence, on a partitional model), as
    world masks ordered by first world.  Partition refinement (Paige and
    Tarjan 1987): split every block by the worlds that reach a splitter
    block, per agent, and queue both halves of each split as splitters."""
    start: dict[tuple, int] = {}
    for i in range(len(model.worlds)):
        key = (tuple(model._val.get(p, 0) >> i & 1 for p in sorted(model.language_atoms)),
               tuple(model._aware[agent][i] for agent in model.agents))
        start[key] = start.get(key, 0) | 1 << i
    blocks, pending = list(start.values()), list(start.values())
    while pending:
        splitter = pending.pop()
        for cells in model._cells[L].values():
            # The holders of distinct masks are disjoint, so their sum is their union.
            reach = sum(holders for cell, holders in cells.items() if cell & splitter)
            refined = []
            for block in blocks:
                inside = block & reach
                if inside and inside != block:
                    refined += (inside, block ^ inside)
                    pending += (inside, block ^ inside)
                else:
                    refined.append(block)
            blocks = refined
    return sorted(blocks, key=lambda block: block & -block)


def _quotient(model: AwarenessModel) -> tuple[AwarenessModel, dict[str, str], dict[str, str]]:
    """The quotient of ``model`` by modal equivalence, the name of each
    world's block (its members joined by ``+``), and each block name's
    representative (the block's first world)."""
    worlds = model.worlds
    blocks = _modal_partition(model)
    names = ["+".join(worlds[i] for i in _indices(block)) for block in blocks]
    firsts = [(block & -block).bit_length() - 1 for block in blocks]
    member_of: dict[str, str] = {}
    for name, first in zip(names, firsts):
        if member_of.setdefault(name, worlds[first]) != worlds[first]:
            raise AwarekitError(
                f"cannot minimize: blocks {member_of[name]!r} and {worlds[first]!r} "
                f"would both be named {name!r}; rename worlds so that no "
                f"world id equals a '+'-join of others")
    # Quotient world q is the q-th block name in sorted order, read at its first world.
    rank = sorted(range(len(blocks)), key=names.__getitem__)
    at, name_of = [0] * len(worlds), {}
    for q, b in enumerate(rank):
        for i in _indices(blocks[b]):
            at[i], name_of[worlds[i]] = q, names[b]
    reps = [firsts[b] for b in rank]
    succ = {a: [_mask(at, _indices(rows[r])) for r in reps] for a, rows in model._succ.items()}
    aware = {a: [rows[r] for r in reps] for a, rows in model._aware.items()}
    val = {p: _mask(at, (r for r in reps if hits >> r & 1)) for p, hits in model._val.items()}
    out = AwarenessModel(model.language_atoms, model.agents, [names[b] for b in rank],
                         _Tables(model._atoms, succ, aware, val))
    return out, name_of, member_of


def build_category(model: AwarenessModel, minimize: bool = False) -> AwarenessCategory:
    """Canonical sublanguage category: each member is the top model's tables
    with awareness and valuation restricted to the member's atom mask, and
    the morphisms re-tag worlds identically.  With ``minimize`` each member
    is additionally quotiented by modal equivalence for its sublanguage."""
    pre = validate_fh(model)
    if not pre.ok:
        raise PreconditionFailed("category construction needs a valid model", pre)

    atoms = model.language_atoms
    identity = {w: w for w in model.worlds}
    members: dict[frozenset[str], AwarenessModel] = {}
    onto, source = {}, {}  # per space: world -> its member world, member world -> a world
    for space in subsets(atoms):
        bits = _mask(model._bit, space)
        members[space] = AwarenessModel(space, model.agents, model.worlds, _Tables(
            model._atoms, model._succ,
            {agent: [m & bits for m in rows] for agent, rows in model._aware.items()},
            {p: hits for p, hits in model._val.items() if p in space}))
        onto[space] = source[space] = identity
        if minimize:
            members[space], onto[space], source[space] = _quotient(members[space])
        else:  # a formula of the member's language has the top's extension: share the memo
            members[space]._ext_cache = model._ext_cache
    # Unminimized, every morphism is the identity, and they share one map.
    morphisms = {(large, small): identity if not minimize else {
                     block: onto[small][source[large][block]] for block in members[large].worlds}
                 for large in subsets(atoms) for small in subsets(large)}
    return AwarenessCategory(atoms, members, morphisms)


def validate_category(category: AwarenessCategory) -> Report:
    """Identity and composition laws plus the morphism clauses for every
    nested pair of sublanguages."""
    report = Report()
    morphisms = category.morphisms
    for space in subsets(category.atoms):
        for world in category.models[space].worlds:
            report.count()
            if morphisms[(space, space)][world] != world:
                report.add("identity-morphism", space=space_key(space), world=world)
    for large in subsets(category.atoms):
        for mid in subsets(large):
            for small in subsets(mid):
                for world in category.models[large].worlds:
                    report.count()
                    if morphisms[(mid, small)][morphisms[(large, mid)][world]] != \
                            morphisms[(large, small)][world]:
                        report.add("composition", world=world,
                                   path="->".join(map(space_key, (large, mid, small))))
    for (large, small), morphism in sorted(
            morphisms.items(), key=lambda kv: (space_key(kv[0][0]), space_key(kv[0][1]))):
        report.merge(check_bounded_morphism(category.models[large],
                                            category.models[small], morphism))
    return report


def category_equivalence_suite(category: AwarenessCategory, depth: int = 3) -> Report:
    """Every morphism preserves and reflects truth of every enumerated
    formula of the smaller language, so the join/meet models of every
    family of sublanguages are modally equivalent to its members: a
    family's join contains each member and each member contains the meet,
    so each such pair is a comparable pair, checked here once.

    Empty reports are only guaranteed for categories passing
    :func:`validate_category`; the scan itself runs regardless, so a broken
    category surfaces as formula-level counterexamples here.
    """
    report = Report()
    for large in subsets(category.atoms):
        for small in subsets(large):
            where = {"source": space_key(large), "target": space_key(small)}
            src, dst = category.models[large], category.models[small]
            morphism = category.morphisms[(large, small)]
            # Each source world's image as a target world index; an identity
            # morphism between equal world tuples compares the masks whole.
            image = [dst._index.get(morphism[world]) for world in src.worlds]
            same = src.worlds == dst.worlds and image == list(range(len(image)))
            for f in enumerate_formulas(small, category.agents, depth):
                ext_src, ext_dst = fh_mask(src, f), fh_mask(dst, f)
                if not same:
                    ext_dst = sum(1 << i for i, j in enumerate(image)
                                  if j is not None and ext_dst >> j & 1)
                if ext_src == ext_dst:
                    report.count(len(src.worlds))
                    continue
                for i, world in enumerate(src.worlds):
                    report.count()
                    if (ext_src ^ ext_dst) >> i & 1:
                        report.add("modal-equivalence", context="morphism", formula=f,
                                   world=world, **where)
    return report
