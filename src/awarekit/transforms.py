"""Transformations between the awareness and unawareness model families,
with depth-bounded modal-equivalence checks for each direction.

State identity across transforms is deterministic: a world ``w`` of the
sublanguage model for atoms ``S`` becomes the state ``S:w``, and the top
space's states become worlds under their bare ids.  Equivalence checks align
states by this tagging, never by search.
"""

from __future__ import annotations

from .awareness import (
    AwarenessCategory,
    AwarenessModel,
    build_category,
    fh_extension,
    validate_fh,
)
from .enumeration import enumerate_formulas
from .errors import ModelFormatError, PreconditionFailed, TransformInvariantBroken
from .implicit import validate_implicit, validate_lambda
from .reports import Report
from .semantics import TruthValue, satisfies, truth_masks
from .syntax import atoms as formula_atoms
from .unawareness import (
    LatticeModel,
    SpaceLattice,
    StateRef,
    _indices,
    _level_mask,
    subsets,
    validate_hms,
)


def category_to_implicit(category: AwarenessCategory) -> LatticeModel:
    """Repackage a sublanguage category as an implicit knowledge-based
    lattice model: spaces are the member models' worlds, projections are the
    morphisms, the implicit correspondence copies each member's relations,
    and the awareness level at a world is the space of its awareness atoms.
    Λ and α are built as mask tables.
    """
    atoms = category.atoms
    agents = category.agents

    spaces = {space: [w for w in category.models[space].worlds] for space in subsets(atoms)}
    projections = {}
    for space in subsets(atoms):
        for atom in space:
            child = space - {atom}
            morphism = category.morphisms[(space, child)]
            projections[(space, child)] = dict(morphism.mapping)

    valuation = {}
    for atom in sorted(atoms):
        single = frozenset({atom})
        valuation[atom] = (single, tuple(
            StateRef(single, w) for w in category.models[single].valuation.get(atom, ())))

    lattice = SpaceLattice(atoms, spaces, projections, valuation)
    n = len(lattice.states)
    # The index of each world of each member, by space.
    index = {space: {ref.id: i for i, ref in zip(lattice._span[lattice._masks[space]], refs)}
             for space, refs in lattice.spaces.items()}

    lambda_star = {agent: ([0] * n, [0] * n) for agent in agents}
    alpha = {agent: (None, [0] * n) for agent in agents}
    for space, at in index.items():
        member, mask = category.models[space], lattice._masks[space]
        for agent in agents:
            images, levels = lambda_star[agent]
            aware = alpha[agent][1]
            for world in member.worlds:
                i = at[world]
                images[i] = sum(1 << at[t] for t in member.successors(agent, world))
                levels[i] = mask
                aware[i] = _level_mask(lattice, "alpha", agent, lattice.states[i],
                                       member.awareness_atoms[agent][world])

    # The valuation of an atom must collect exactly the worlds where the atom
    # holds, across every member model that can express it.
    for atom in sorted(atoms):
        joined = 0
        for space, at in index.items():
            if atom in space:
                for w in category.models[space].valuation.get(atom, ()):
                    joined |= 1 << at[w]
        if lattice.valuation[atom].up != joined:
            raise TransformInvariantBroken(
                f"valuation of {atom!r} is not the up-closure of its base layer")

    model = LatticeModel._from_masks(lattice, agents, lambda_=lambda_star, alpha=alpha)
    report = validate_implicit(model)
    if not report.ok:
        raise TransformInvariantBroken("category transform output fails validation", report)
    return model


def hms_transform(model: AwarenessModel, truncate: bool = False,
                  minimize: bool = False) -> LatticeModel:
    """Awareness model to lattice model: build the sublanguage category,
    repackage it, and (unless ``truncate``) take the complemented model over
    the derived explicit correspondence, dropping the awareness function.
    The complemented model is the implicit one's cached ``derived()``."""
    implicit = category_to_implicit(build_category(model, minimize=minimize))
    return implicit if truncate else implicit.derived()


def _top_transform(model: LatticeModel, table) -> AwarenessModel:
    """The awareness model on the top space's states: relations from Λ,
    awareness from the levels of ``table``, the mask table of Π or α."""
    lat = model.lattice
    top = lat.atoms
    states, spaces = lat.states, lat._names.spaces
    span = lat._span[lat._masks[top]]
    worlds = [states[i].id for i in span]

    relations = {}
    awareness = {}
    for agent in model.agents:
        images = model._lambda_masks[agent][0]
        relations[agent] = {(states[i].id, states[j].id) for i in span for j in _indices(images[i])}
        levels = table[agent][1]
        awareness[agent] = {states[i].id: spaces[levels[i]] for i in span}

    valuation = {}
    for atom in sorted(lat.atoms):
        up = lat.valuation[atom].up
        valuation[atom] = frozenset(states[i].id for i in span if up >> i & 1)

    out = AwarenessModel(top, model.agents, worlds, relations, awareness, valuation)
    report = validate_fh(out)
    if not report.ok:
        raise TransformInvariantBroken("transform output is not a valid awareness model",
                                       report)
    return out


def fh_transform(model: LatticeModel) -> AwarenessModel:
    """Complemented lattice model to awareness model: keep the top space,
    read the relations off the implicit correspondence, and take awareness
    at a state to be the atoms of the space its possibility set lives in."""
    pre = validate_hms(model).merge(validate_lambda(model))
    if not pre.ok:
        raise PreconditionFailed("transform needs a valid complemented model", pre)
    # The model validated, so every possibility set lies in one space.
    return _top_transform(model, model._pi_masks)


def fh_star_transform(model: LatticeModel) -> AwarenessModel:
    """Like :func:`fh_transform` but awareness comes straight from the
    awareness function."""
    pre = validate_implicit(model)
    if not pre.ok:
        raise PreconditionFailed("transform needs a valid implicit model", pre)
    return _top_transform(model, model._alpha_masks)


TRANSFORM_DIRECTIONS = ("hms", "implicit-hms", "fh", "fh-star")


def _world_mask(worlds: tuple[str, ...], ext: frozenset[str]) -> int:
    """A set of worlds as a bitmask over ``worlds``."""
    return sum(1 << k for k, world in enumerate(worlds) if world in ext)


def _aligned_start(lat: SpaceLattice, space: frozenset[str],
                   worlds: tuple[str, ...]) -> int | None:
    """When the state ids of ``space`` are exactly the sorted ``worlds``,
    the index of the space's first state, so that world ``k`` is state
    ``start + k``; otherwise None."""
    refs = lat.spaces.get(space)
    if refs is None or tuple(ref.id for ref in refs) != worlds:
        return None
    return lat._span[lat._masks[space]].start


def _agrees(masks: tuple[int, int], start: int, ext: int, n: int) -> bool:
    """Whether ``n`` states from ``start`` on are true exactly at ``ext`` and
    false everywhere else, given a formula's truth masks."""
    true, false = masks
    full = (1 << n) - 1
    return (true >> start) & full == ext and (false >> start) & full == full ^ ext


def equivalence_check(source, produced, via: str, depth: int = 2) -> Report:
    """Modal equivalence between a model and its transform, by enumerating
    formulas up to the depth bound.

    ``via`` names the transform that produced ``produced`` from ``source``:
    ``hms``/``implicit-hms`` check every world of the source awareness model
    against its tagged state in every space expressing the formula;
    ``fh``/``fh-star`` check every top-space state of the source lattice
    model against its world.

    Per formula, a space whose state ids are the worlds is compared whole,
    with one mask operation on the formula's truth masks.  A space that
    disagrees or does not align is walked world by world, which finds the
    violations and their witnesses."""
    report = Report()
    if via in ("hms", "implicit-hms"):
        if source.family != "awareness":
            raise ModelFormatError(f"via {via!r} expects an awareness model as source")
        expected = "complemented" if via == "hms" else "implicit"
        if produced.family != expected:
            raise ModelFormatError(f"via {via!r} expects the {expected} family as target")
        lat = produced.lattice
        worlds = source.worlds
        spaces = [(space, _aligned_start(lat, space, worlds))
                  for space in subsets(source.language_atoms)]
        formulas = enumerate_formulas(source.language_atoms, source.agents, depth)
        for f in formulas:
            ext = fh_extension(source, f)
            ext_mask = _world_mask(worlds, ext)
            need = formula_atoms(f)
            for space, start in spaces:
                if not need <= space:
                    continue
                if start is not None and _agrees(truth_masks(produced, f), start,
                                                 ext_mask, len(worlds)):
                    report.count(len(worlds))
                    continue
                for world in worlds:
                    ref = StateRef(space, world)
                    report.count()
                    if ref not in lat._index:
                        report.add("state-alignment", state=ref)
                        continue
                    value = satisfies(produced, ref, f)
                    if value is TruthValue.UNDEFINED:
                        report.add("expected-defined", formula=f, state=ref)
                    elif (value is TruthValue.TRUE) != (world in ext):
                        report.add("modal-equivalence", formula=f, state=ref,
                                   source_value=world in ext, target_value=value)
        return report

    if via in ("fh", "fh-star"):
        expected = "complemented" if via == "fh" else "implicit"
        if source.family != expected:
            raise ModelFormatError(f"via {via!r} expects the {expected} family as source")
        if produced.family != "awareness":
            raise ModelFormatError(f"via {via!r} expects an awareness model as target")
        lat = source.lattice
        top_states = lat.states_of(lat.atoms)
        worlds = set(produced.worlds)
        start = _aligned_start(lat, lat.atoms, produced.worlds)
        formulas = enumerate_formulas(lat.atoms, source.agents, depth)
        for f in formulas:
            ext = fh_extension(produced, f)
            if start is not None and _agrees(truth_masks(source, f), start,
                                             _world_mask(produced.worlds, ext),
                                             len(top_states)):
                report.count(len(top_states))
                continue
            for ref in top_states:
                report.count()
                if ref.id not in worlds:
                    report.add("state-alignment", state=ref)
                    continue
                value = satisfies(source, ref, f)
                if value is TruthValue.UNDEFINED:
                    report.add("expected-defined", formula=f, state=ref)
                elif (value is TruthValue.TRUE) != (ref.id in ext):
                    report.add("modal-equivalence", formula=f, state=ref,
                               source_value=value, target_value=ref.id in ext)
        return report

    raise ModelFormatError(f"unknown transform direction {via!r}; "
                           f"expected one of {TRANSFORM_DIRECTIONS}")


def round_trip_check(model: AwarenessModel, depth: int = 2) -> Report:
    """An awareness model, pushed through the category and back out of the
    implicit lattice model, satisfies the same enumerated formulas at every
    world."""
    report = Report()
    back = fh_star_transform(category_to_implicit(build_category(model)))
    report.count()
    if set(back.worlds) != set(model.worlds):
        report.add("round-trip-worlds", expected=",".join(model.worlds),
                   got=",".join(back.worlds))
        return report
    for f in enumerate_formulas(model.language_atoms, model.agents, depth):
        before = fh_extension(model, f)
        after = fh_extension(back, f)
        for world in model.worlds:
            report.count()
            if (world in before) != (world in after):
                report.add("round-trip-equivalence", formula=f, world=world,
                           before=world in before, after=world in after)
    return report
