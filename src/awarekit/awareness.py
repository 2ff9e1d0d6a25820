"""Kripke-style awareness models (CLI model kind ``fh``) and their
sublanguage categories.

An awareness model pairs partitional accessibility relations with per-agent
awareness sets.  Awareness sets are stored as atom subsets, never as formula
sets: under propositional determination the agent is aware of a formula iff
she is aware of each of its atoms, so the encoding is lossless, finite, and
constant-time for membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Sequence

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
from .unawareness import space_key, subsets


class AwarenessModel:
    """Worlds, equivalence relations, awareness atom-sets, and a valuation
    over one fixed language."""

    family = "awareness"

    def __init__(
        self,
        language_atoms: Iterable[str],
        agents: Iterable[str],
        worlds: Sequence[str],
        relations: Mapping[str, Iterable[tuple[str, str]]],
        awareness_atoms: Mapping[str, Mapping[str, Iterable[str]]],
        valuation: Mapping[str, Iterable[str]],
    ):
        self.language_atoms = frozenset(language_atoms)
        self.agents = tuple(dict.fromkeys(agents))
        if not self.agents:
            raise ModelFormatError("model needs at least one agent")
        if not worlds:
            raise ModelFormatError("model needs at least one world")
        if len(set(worlds)) != len(worlds):
            raise ModelFormatError("duplicate world ids")
        if "" in worlds:
            # A world becomes the state id of a lattice state token, which
            # cannot be empty.
            raise ModelFormatError("world ids must be non-empty")
        self.worlds = tuple(sorted(worlds))
        known = set(self.worlds)

        if set(relations) != set(self.agents):
            raise ModelFormatError(f"relations must cover exactly the agents "
                                   f"{sorted(self.agents)}")
        self.relations: dict[str, frozenset[tuple[str, str]]] = {}
        for agent in self.agents:
            pairs = {(w, t) for w, t in relations[agent]}
            for w, t in pairs:
                if w not in known or t not in known:
                    raise ModelFormatError(f"relation of agent {agent} references "
                                           f"unknown world in ({w!r}, {t!r})")
            self.relations[agent] = frozenset(pairs)

        if set(awareness_atoms) != set(self.agents):
            raise ModelFormatError(f"awareness must cover exactly the agents "
                                   f"{sorted(self.agents)}")
        self.awareness_atoms: dict[str, dict[str, frozenset[str]]] = {}
        for agent in self.agents:
            per_agent = awareness_atoms[agent]
            table = {}
            for world in self.worlds:
                if world not in per_agent:
                    raise ModelFormatError(f"awareness[{agent}] is undefined on "
                                           f"world {world!r}")
                table[world] = frozenset(per_agent[world])
            extra = set(per_agent) - known
            if extra:
                raise ModelFormatError(f"awareness[{agent}] keyed by unknown world "
                                       f"{sorted(extra)[0]!r}")
            self.awareness_atoms[agent] = table

        self.valuation: dict[str, frozenset[str]] = {}
        for atom, hits in valuation.items():
            hits = frozenset(hits)
            missing = hits - known
            if missing:
                raise ModelFormatError(f"valuation of {atom!r} references unknown "
                                       f"world {sorted(missing)[0]!r}")
            self.valuation[atom] = hits

        self._succ: dict[str, dict[str, frozenset[str]]] = {}
        for agent in self.agents:
            table: dict[str, set[str]] = {w: set() for w in self.worlds}
            for w, t in self.relations[agent]:
                table[w].add(t)
            self._succ[agent] = {w: frozenset(ts) for w, ts in table.items()}

        self._ext_cache: dict[Formula, frozenset[str]] = {}
        self._reports: dict = {}  # see reports.memoised

    def successors(self, agent: str, world: str) -> frozenset[str]:
        try:
            per_agent = self._succ[agent]
        except KeyError:
            raise UnknownAgent(f"no agent {agent!r}") from None
        try:
            return per_agent[world]
        except KeyError:
            raise UnknownState(f"no world {world!r}") from None


def fh_extension(model: AwarenessModel, f: Formula) -> frozenset[str]:
    """The set of worlds satisfying ``f``; memoized per model."""
    need = formula_atoms(f)
    if not need <= model.language_atoms:
        stray = sorted(need - model.language_atoms)
        raise UndefinedFormula(f"formula uses atoms outside the language: {stray}")
    return _fh_extension(model, f)


def _fh_extension(model: AwarenessModel, f: Formula) -> frozenset[str]:
    cached = model._ext_cache.get(f)
    if cached is not None:
        return cached
    if isinstance(f, Top):
        out = frozenset(model.worlds)
    elif isinstance(f, Atom):
        out = model.valuation.get(f.name, frozenset())
    elif isinstance(f, Not):
        out = frozenset(model.worlds) - _fh_extension(model, f.child)
    elif isinstance(f, And):
        out = _fh_extension(model, f.left) & _fh_extension(model, f.right)
    elif isinstance(f, L):
        child = _fh_extension(model, f.child)
        out = frozenset(w for w in model.worlds if model.successors(f.agent, w) <= child)
    elif isinstance(f, A):
        need = formula_atoms(f.child)
        aware = model.awareness_atoms.get(f.agent)
        if aware is None:
            raise UnknownAgent(f"no agent {f.agent!r}")
        out = frozenset(w for w in model.worlds if need <= aware[w])
    elif isinstance(f, K):
        # Explicit knowledge is implicit knowledge of an aware formula.
        out = _fh_extension(model, L(f.agent, f.child)) & _fh_extension(model, A(f.agent, f.child))
    else:
        raise TypeError(f"not a formula node: {f!r}")
    model._ext_cache[f] = out
    return out


def fh_satisfies(model: AwarenessModel, world: str, f: Formula) -> bool:
    if world not in set(model.worlds):
        raise UnknownState(f"no world {world!r}")
    return world in fh_extension(model, f)


@memoised
def validate_fh(model: AwarenessModel) -> Report:
    """Partitionality per agent, awareness constancy on cells, and the
    language bounds on valuation and awareness sets."""
    report = Report()
    checked = len(model.valuation)
    for atom in sorted(model.valuation):
        if atom not in model.language_atoms:
            report.add("valuation-within-language", atom=atom)
    for agent in model.agents:
        aware = model.awareness_atoms[agent]
        rel = model.relations[agent]
        checked += 2 * len(model.worlds) + len(rel)
        for world in model.worlds:
            if not aware[world] <= model.language_atoms:
                report.add("awareness-within-language", agent, world=world,
                           atoms=",".join(sorted(aware[world] - model.language_atoms)))

        for world in model.worlds:
            if (world, world) not in rel:
                report.add("relation-reflexive", agent, world=world)
        for w, t in rel:
            for t2, u in rel:
                if t == t2:
                    checked += 1
                    if (w, u) not in rel:
                        report.add("relation-transitive", agent, chain=f"{w}->{t}->{u}")
            if aware[w] != aware[t]:
                report.add("awareness-constant-on-cells", agent, source=w, reached=t)
        for w, t in rel:
            for w2, u in rel:
                if w == w2:
                    checked += 1
                    if (t, u) not in rel:
                        report.add("relation-euclidean", agent,
                                   witness=f"({w},{t}) and ({w},{u})")
    report.count(checked)
    return report


@dataclass(frozen=True)
class BoundedMorphism:
    """A structure-preserving surjection from a model onto one over a
    sublanguage."""

    source: frozenset[str]
    target: frozenset[str]
    mapping: Mapping[str, str]

    def __call__(self, world: str) -> str:
        return self.mapping[world]


def check_bounded_morphism(src: AwarenessModel, dst: AwarenessModel,
                           morphism: BoundedMorphism | Mapping[str, str]) -> Report:
    """Exhaustively verify the five clauses of a surjective bounded morphism.

    Awareness consistency is checked on the atom encodings: restricting the
    source awareness set to the target language must equal the target
    awareness set, which under propositional determination is the atom-set
    equation checked here.
    """
    mapping = morphism.mapping if isinstance(morphism, BoundedMorphism) else morphism
    report = Report()
    report.count()
    if not dst.language_atoms <= src.language_atoms:
        report.add("language-nested", extra=",".join(
            sorted(dst.language_atoms - src.language_atoms)))
        return report

    src_worlds = set(src.worlds)
    dst_worlds = set(dst.worlds)
    report.count()
    if set(mapping) != src_worlds:
        report.add("mapping-total", missing=",".join(sorted(src_worlds - set(mapping))))
        return report
    stray = {w: v for w, v in mapping.items() if v not in dst_worlds}
    report.count()
    if stray:
        w, v = sorted(stray.items())[0]
        report.add("mapping-into-target", world=w, image=v)
        return report

    hit = set(mapping.values())
    for world in sorted(dst_worlds):
        report.count()
        if world not in hit:
            report.add("surjectivity", world=world)

    for p in sorted(dst.language_atoms):
        for w in src.worlds:
            report.count()
            if (w in src.valuation.get(p, frozenset())) != (
                    mapping[w] in dst.valuation.get(p, frozenset())):
                report.add("atomic-harmony", world=w, atom=p)

    for agent in src.agents:
        for w in src.worlds:
            report.count()
            if src.awareness_atoms[agent][w] & dst.language_atoms != \
                    dst.awareness_atoms[agent][mapping[w]]:
                report.add("awareness-consistency", agent, world=w)

        for w, t in src.relations[agent]:
            report.count()
            if (mapping[w], mapping[t]) not in dst.relations[agent]:
                report.add("homomorphism", agent, pair=f"({w},{t})")

        for w in src.worlds:
            for t2 in dst.successors(agent, mapping[w]):
                report.count()
                if not any(mapping[t] == t2 and (w, t) in src.relations[agent]
                           for t in src.worlds):
                    report.add("back", agent, world=w, target=t2)
    return report


class AwarenessCategory:
    """One awareness model per sublanguage, linked by bounded morphisms that
    compose along nested languages."""

    def __init__(self, atoms: frozenset[str],
                 models: Mapping[frozenset[str], AwarenessModel],
                 morphisms: Mapping[tuple[frozenset[str], frozenset[str]], BoundedMorphism]):
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

    @property
    def top(self) -> AwarenessModel:
        return self.models[self.atoms]


def _modal_partition(model: AwarenessModel) -> dict[str, frozenset[str]]:
    """Coarsest partition of worlds stable under valuation, awareness, and
    per-agent reachability; on a partitional model this is modal equivalence
    for the model's own language."""
    def signature(world, block_of):
        facts = tuple(world in model.valuation.get(p, frozenset())
                      for p in sorted(model.language_atoms))
        aware = tuple(tuple(sorted(model.awareness_atoms[a][world])) for a in model.agents)
        reach = tuple(frozenset(block_of[t] for t in model.successors(a, world))
                      for a in model.agents)
        return facts, aware, reach

    block_of = {w: 0 for w in model.worlds}
    while True:
        sigs = {w: signature(w, block_of) for w in model.worlds}
        fresh: dict = {}
        for w in sorted(model.worlds):
            fresh.setdefault(sigs[w], len(fresh))
        updated = {w: fresh[sigs[w]] for w in model.worlds}
        if updated == block_of:
            break
        block_of = updated

    cells: dict[int, set[str]] = {}
    for w, b in block_of.items():
        cells.setdefault(b, set()).add(w)
    return {w: frozenset(cells[b]) for w, b in block_of.items()}


def _quotient(model: AwarenessModel) -> tuple[AwarenessModel, dict[str, str], dict[str, str]]:
    """The quotient of ``model`` by modal equivalence, the name of each
    world's block (its members joined by ``+``), and each block name's
    representative (the block's first world)."""
    cell_of = _modal_partition(model)
    name_of = {w: "+".join(sorted(cell_of[w])) for w in model.worlds}
    member_of: dict[str, str] = {}
    for w in model.worlds:
        first = min(cell_of[w])
        if member_of.setdefault(name_of[w], first) != first:
            raise AwarekitError(
                f"cannot minimize: blocks {member_of[name_of[w]]!r} and {first!r} "
                f"would both be named {name_of[w]!r}; rename worlds so that no "
                f"world id equals a '+'-join of others")
    worlds = sorted(member_of)
    relations = {
        agent: {(name_of[w], name_of[t]) for w, t in model.relations[agent]}
        for agent in model.agents
    }
    awareness = {
        agent: {name_of[w]: model.awareness_atoms[agent][w] for w in model.worlds}
        for agent in model.agents
    }
    valuation = {p: frozenset(name_of[w] for w in hits)
                 for p, hits in model.valuation.items()}
    out = AwarenessModel(model.language_atoms, model.agents, worlds,
                         relations, awareness, valuation)
    return out, name_of, member_of


def build_category(model: AwarenessModel, minimize: bool = False) -> AwarenessCategory:
    """Canonical sublanguage category: each member is a copy of the top model
    with valuation and awareness restricted, and the morphisms re-tag worlds
    identically.  With ``minimize`` each member is additionally quotiented by
    modal equivalence for its own sublanguage."""
    pre = validate_fh(model)
    if not pre.ok:
        raise PreconditionFailed("category construction needs a valid model", pre)

    atoms = model.language_atoms
    members: dict[frozenset[str], AwarenessModel] = {}
    onto: dict[frozenset[str], dict[str, str]] = {}    # world -> its member world
    source: dict[frozenset[str], dict[str, str]] = {}  # member world -> a world
    for space in subsets(atoms):
        restricted = AwarenessModel(
            space,
            model.agents,
            model.worlds,
            model.relations,
            {agent: {w: model.awareness_atoms[agent][w] & space for w in model.worlds}
             for agent in model.agents},
            {p: model.valuation[p] for p in sorted(space) if p in model.valuation},
        )
        if minimize:
            restricted, onto[space], source[space] = _quotient(restricted)
        else:
            onto[space] = source[space] = {w: w for w in model.worlds}
        members[space] = restricted

    morphisms: dict[tuple[frozenset[str], frozenset[str]], BoundedMorphism] = {}
    for large in subsets(atoms):
        for small in subsets(large):
            mapping = {block: onto[small][source[large][block]]
                       for block in members[large].worlds}
            morphisms[(large, small)] = BoundedMorphism(large, small, mapping)
    return AwarenessCategory(atoms, members, morphisms)


def validate_category(category: AwarenessCategory) -> Report:
    """Identity and composition laws plus the morphism clauses for every
    nested pair of sublanguages."""
    report = Report()
    for space in subsets(category.atoms):
        identity = category.morphisms[(space, space)]
        for world in category.models[space].worlds:
            report.count()
            if identity(world) != world:
                report.add("identity-morphism", space=space_key(space), world=world)
    for large in subsets(category.atoms):
        for mid in subsets(large):
            for small in subsets(mid):
                upper = category.morphisms[(large, mid)]
                lower = category.morphisms[(mid, small)]
                direct = category.morphisms[(large, small)]
                for world in category.models[large].worlds:
                    report.count()
                    if lower(upper(world)) != direct(world):
                        report.add("composition", world=world,
                                   path=f"{space_key(large)}->{space_key(mid)}"
                                        f"->{space_key(small)}")
    for (large, small), morphism in sorted(
            category.morphisms.items(),
            key=lambda kv: (space_key(kv[0][0]), space_key(kv[0][1]))):
        report.merge(check_bounded_morphism(category.models[large],
                                            category.models[small], morphism))
    return report


def category_equivalence_suite(category: AwarenessCategory, depth: int = 3) -> Report:
    """Every morphism preserves and reflects truth of every enumerated
    formula of the smaller language, and the join/meet models of every
    family of sublanguages are modally equivalent to its members.

    Empty reports are only guaranteed for categories passing
    :func:`validate_category`; the scan itself runs regardless, so a broken
    category surfaces as formula-level counterexamples here.
    """
    report = Report()
    agents = category.agents

    pair_cache: dict[tuple[frozenset[str], frozenset[str], frozenset[str]], bool] = {}

    def pair_ok(large: frozenset[str], small: frozenset[str],
                language: frozenset[str], context: str) -> None:
        key = (large, small, language)
        if key in pair_cache:
            report.count()
            if not pair_cache[key]:
                report.add("modal-equivalence", context=context,
                           source=space_key(large), target=space_key(small),
                           language=space_key(language))
            return
        src = category.models[large]
        dst = category.models[small]
        morphism = category.morphisms[(large, small)]
        good = True
        for f in enumerate_formulas(language, agents, depth):
            ext_src = fh_extension(src, f)
            ext_dst = fh_extension(dst, f)
            for world in src.worlds:
                report.count()
                if (world in ext_src) != (morphism(world) in ext_dst):
                    good = False
                    report.add("modal-equivalence", context=context,
                               formula=f, world=world,
                               source=space_key(large), target=space_key(small))
        pair_cache[key] = good

    for large in subsets(category.atoms):
        for small in subsets(large):
            pair_ok(large, small, small, "morphism")

    # Every nonempty family of sublanguages; each family only exercises
    # already-memoized comparable pairs, so the cost is the iteration itself.
    # Past three atoms the powerset of the powerset explodes, so fall back to
    # pairs plus the full family.
    all_spaces = list(subsets(category.atoms))
    max_size = len(all_spaces) if len(all_spaces) <= 8 else 2
    families = [family
                for size in range(1, max_size + 1)
                for family in combinations(all_spaces, size)]
    if max_size != len(all_spaces):
        families.append(tuple(all_spaces))
    for family in families:
        join = frozenset().union(*family)
        meet = family[0]
        for member in family[1:]:
            meet = meet & member
        for member in family:
            pair_ok(join, member, member, "family-join")
            pair_ok(member, meet, meet, "family-meet")
    return report
