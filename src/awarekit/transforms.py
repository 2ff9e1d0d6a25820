"""Transformations between the awareness and unawareness model families,
with depth-bounded modal-equivalence checks for each direction.

State identity across transforms is deterministic: a world ``w`` of the
sublanguage model for atoms ``S`` becomes the state ``S:w``, and the top
space's states become worlds under their bare ids.  Equivalence checks align
states by this tagging, never by search.
"""

from __future__ import annotations

from functools import cache

from .awareness import (
    AwarenessCategory,
    AwarenessModel,
    _Tables,
    build_category,
    fh_mask,
    validate_fh,
)
from .enumeration import enumerate_formulas
from .errors import ModelFormatError, PreconditionFailed, TransformInvariantBroken
from .implicit import validate_implicit, validate_lambda
from .modelio import _level_mask
from .reports import Report
from .semantics import TruthValue, _value, truth_masks
from .syntax import atoms as formula_atoms
from .unawareness import (
    LatticeModel,
    SpaceLattice,
    StateRef,
    _indices,
    _Row,
    subsets,
)


def category_to_implicit(category: AwarenessCategory) -> LatticeModel:
    """Repackage a sublanguage category as an implicit knowledge-based
    lattice model: spaces are the member models' worlds, projections are the
    morphisms, the implicit correspondence copies each member's relations,
    and the awareness level at a world is the space of its awareness atoms.
    A space's states are its member's worlds in order, so Λ and α are the
    members' masks shifted to the space's first state; an awareness mask in
    the lattice's atom bit order, as :func:`build_category` makes them, is
    a level as it stands.
    """
    atoms, agents = category.atoms, category.agents
    members = {space: category.models[space] for space in subsets(atoms)}
    projections = {(space, space - {atom}): category.morphisms[(space, space - {atom})]
                   for space in members for atom in space}
    valuation = {}
    for atom in sorted(atoms):
        single = frozenset({atom})
        member = members[single]
        valuation[atom] = (single, [member.worlds[i] for i in _indices(member._val.get(atom, 0))])
    lattice = SpaceLattice(atoms, {space: member.worlds for space, member in members.items()},
                           projections, valuation)
    n, order = len(lattice.states), tuple(sorted(atoms))
    starts = {space: lattice._span[lattice._masks[space]].start for space in members}
    lambda_star = {agent: _Row(lattice, agent, [0] * n, [0] * n) for agent in agents}
    alpha = {agent: _Row(lattice, agent, None, [0] * n) for agent in agents}
    for space, member in members.items():
        mask, start = lattice._masks[space], starts[space]
        native = member._atoms[:len(order)] == order
        for agent in agents:
            row, aware = lambda_star[agent], alpha[agent].levels
            for i, (succ, bits) in enumerate(zip(member._succ[agent], member._aware[agent]), start):
                row.images[i], row.levels[i] = succ << start, mask
                aware[i] = bits if native and bits >> len(order) == 0 else _level_mask(
                    lattice, "alpha", agent, lattice.states[i],
                    member.awareness_atoms[agent][lattice.states[i].id])

    # The valuation of an atom must collect exactly the worlds where the atom
    # holds, across every member model that can express it.
    for atom in sorted(atoms):
        joined = sum(member._val.get(atom, 0) << starts[space]
                     for space, member in members.items() if atom in space)
        if lattice.valuation[atom].up != joined:
            raise TransformInvariantBroken(
                f"valuation of {atom!r} is not the up-closure of its base layer")

    model = LatticeModel(lattice, agents, lambda_=lambda_star, alpha=alpha)
    report = validate_implicit(model)
    if not report.ok:
        raise TransformInvariantBroken("category transform output fails validation", report)
    return model


def hms_transform(model: AwarenessModel, truncate: bool = False) -> LatticeModel:
    """Awareness model to lattice model: build the sublanguage category,
    repackage it, and (unless ``truncate``) take the complemented model over
    the derived explicit correspondence, dropping the awareness function.
    The complemented model is the implicit one's cached ``derived()``."""
    implicit = category_to_implicit(build_category(model))
    return implicit if truncate else implicit.derived()


def _top_transform(model: LatticeModel, rows) -> AwarenessModel:
    """The awareness model on the top space's states: relations from Λ,
    awareness from the levels of ``rows``, the rows of Π or α.  The
    top space's states come first, in id order, so its state ``i`` is world
    ``i``: Λ's images (confined to the top space on a valid model), the
    levels and the valuation's up-closures, cut to the top space, are the
    awareness model's masks."""
    lat = model.lattice
    span = lat._span[lat._masks[lat.atoms]]
    top = (1 << len(span)) - 1
    succ = {a: [row.images[i] & top for i in span] for a, row in model._lambda.items()}
    aware = {a: [row.levels[i] for i in span] for a, row in rows.items()}
    val = {atom: lat.valuation[atom].up & top for atom in sorted(lat.atoms)}
    out = AwarenessModel(lat.atoms, model.agents, [lat.states[i].id for i in span],
                         _Tables(tuple(sorted(lat.atoms)), succ, aware, val))
    report = validate_fh(out)
    if not report.ok:
        raise TransformInvariantBroken("transform output is not a valid awareness model",
                                       report)
    return out


def fh_transform(model: LatticeModel) -> AwarenessModel:
    """Complemented lattice model to awareness model: keep the top space,
    read the relations off the implicit correspondence, and take awareness
    at a state to be the atoms of the space its possibility set lives in."""
    pre = validate_lambda(model)
    if not pre.ok:
        raise PreconditionFailed("transform needs a valid complemented model", pre)
    # The model validated, so every possibility set lies in one space.
    return _top_transform(model, model._pi)


def fh_star_transform(model: LatticeModel) -> AwarenessModel:
    """Like :func:`fh_transform` but awareness comes straight from the
    awareness function."""
    pre = validate_implicit(model)
    if not pre.ok:
        raise PreconditionFailed("transform needs a valid implicit model", pre)
    return _top_transform(model, model._alpha)


TRANSFORM_DIRECTIONS = ("hms", "implicit-hms", "fh", "fh-star")


def equivalence_check(source, produced, via: str, depth: int = 2) -> Report:
    """Modal equivalence between a model and its transform, by enumerating
    formulas up to the depth bound.

    ``via`` names the transform that produced ``produced`` from ``source``:
    ``hms``/``implicit-hms`` check every world of the source awareness model
    against its tagged state in every space expressing the formula;
    ``fh``/``fh-star`` check every top-space state of the source lattice
    model against its world.

    Per formula, the lattice model's truth masks are taken once, when a
    space first needs them, so a space that the lattice lacks gives
    ``state-alignment``, not an unknown atom.  A space whose state ids are
    the worlds is compared whole: its truth masks, shifted to the worlds,
    give the worlds where the formula is undefined and those where its
    value differs from the world's, and their violations are added in world
    order.  A space that does not align is walked state by state, reading
    each state's value from the masks, which finds the violations and their
    witnesses."""
    if via in ("hms", "implicit-hms"):
        expected = "complemented" if via == "hms" else "implicit"
        if source.family != "awareness":
            raise ModelFormatError(f"via {via!r} expects an awareness model as source")
        if produced.family != expected:
            raise ModelFormatError(f"via {via!r} expects the {expected} family as target")
        aware, lattice_model = source, produced
        atoms = source.language_atoms
    elif via in ("fh", "fh-star"):
        expected = "complemented" if via == "fh" else "implicit"
        if source.family != expected:
            raise ModelFormatError(f"via {via!r} expects the {expected} family as source")
        if produced.family != "awareness":
            raise ModelFormatError(f"via {via!r} expects an awareness model as target")
        aware, lattice_model = produced, source
        atoms = source.lattice.atoms
    else:
        raise ModelFormatError(f"unknown transform direction {via!r}; "
                               f"expected one of {TRANSFORM_DIRECTIONS}")
    lat, worlds = lattice_model.lattice, aware.worlds
    forward, full = aware is source, (1 << len(worlds)) - 1
    # Each space, and the index of its first state when its state ids are
    # exactly the worlds, so that world k is state start + k.
    spaces = [(space, lat._span[lat._masks[space]].start
               if tuple(ref.id for ref in lat.spaces.get(space, ())) == worlds else None)
              for space in (subsets(atoms) if forward else [atoms])]

    @cache
    def walk(space: frozenset[str]) -> list[tuple[StateRef, int | None, int | None]]:
        """The states to compare, each with its state index and its world's
        index, the latter None when the state has no world: forward, the
        worlds' tagged states in ``space``; backward, the states of
        ``space``."""
        if forward:
            refs = [StateRef(space, world) for world in worlds]
            return [(ref, i, None if i is None else k)
                    for k, (ref, i) in enumerate(zip(refs, map(lat._find, refs)))]
        return [(lat.states[i], i, aware._index.get(lat.states[i].id))
                for i in lat._span[lat._masks[space]]]

    report = Report()
    for f in enumerate_formulas(atoms, source.agents, depth):
        ext, need, masks = fh_mask(aware, f), formula_atoms(f), None
        for space, start in spaces:
            if not need <= space:
                continue
            if start is not None:
                masks = masks or truth_masks(lattice_model, f)
                true, false = masks[0] >> start & full, masks[1] >> start & full
                undefined = full & ~(true | false)
                bad = undefined | (true ^ ext)
                report.count(len(worlds))
                while bad:
                    low = bad & -bad
                    bad ^= low
                    ref = StateRef(space, worlds[low.bit_length() - 1])
                    if undefined & low:
                        report.add("expected-defined", formula=f, state=ref)
                        continue
                    value = TruthValue.TRUE if true & low else TruthValue.FALSE
                    values = (bool(ext & low), value) if forward else (value, bool(ext & low))
                    report.add("modal-equivalence", formula=f, state=ref,
                               source_value=values[0], target_value=values[1])
                continue
            for ref, i, k in walk(space):
                report.count()
                if k is None:
                    report.add("state-alignment", state=ref)
                    continue
                masks = masks or truth_masks(lattice_model, f)
                value = _value(*masks, i)
                if value is TruthValue.UNDEFINED:
                    report.add("expected-defined", formula=f, state=ref)
                elif (value is TruthValue.TRUE) != bool(ext >> k & 1):
                    values = (bool(ext >> k & 1), value) if forward else (value, bool(ext >> k & 1))
                    report.add("modal-equivalence", formula=f, state=ref,
                               source_value=values[0], target_value=values[1])
    return report


def round_trip_check(model: AwarenessModel, depth: int = 2) -> Report:
    """An awareness model, pushed through the category and back out of the
    implicit lattice model, satisfies the same enumerated formulas at every
    world."""
    report = Report()
    back = fh_star_transform(category_to_implicit(build_category(model)))
    report.count()
    if back.worlds != model.worlds:  # sorted, so the masks align
        report.add("round-trip-worlds", expected=",".join(model.worlds),
                   got=",".join(back.worlds))
        return report
    for f in enumerate_formulas(model.language_atoms, model.agents, depth):
        before, after = fh_mask(model, f), fh_mask(back, f)
        if before == after:
            report.count(len(model.worlds))
            continue
        for k, world in enumerate(model.worlds):
            report.count()
            if (before ^ after) >> k & 1:
                report.add("round-trip-equivalence", formula=f, world=world,
                           before=bool(before >> k & 1), after=bool(after >> k & 1))
    return report
