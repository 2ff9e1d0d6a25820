"""The implicit layer of lattice models: validators, derivations and
property suites.

Implicit possibility Λ enters a :class:`~awarekit.unawareness.LatticeModel`
in two families.  A *complemented* model keeps the explicit possibility
correspondence Π as primitive and adds a compatible within-space Λ.  An
*implicit knowledge-based* model (CLI kind ``implicit-hms``) instead takes
Λ and a per-state awareness function α as primitives, and
:func:`derive_pi_star` derives Π from them.  The operators themselves
(``k_op``, ``l_op``, ``a_op``) live in :mod:`awarekit.unawareness`.
"""

from __future__ import annotations

from .errors import (
    CandidateInvalid,
    DerivationInconsistent,
    PreconditionFailed,
    TransformInvariantBroken,
)
from .reports import Report, memoised
from .unawareness import (
    LatticeModel,
    SpaceLattice,
    _dirty,
    _each,
    _explicit,
    _holders,
    _indices,
    _refs,
    _row_holders,
    _Suite,
    _validate_lattice,
    a_op,
    k_op,
    l_op,
    pi_space,
    require,
    space_key,
    u_op,
    validate_hms,
)


# -- validators -----------------------------------------------------------------


def _check_implicit_correspondence(model: LatticeModel, agent: str, report: Report) -> None:
    """Merge into ``report`` the report of Λ's laws on the agent's row.

    The laws read the lattice and the row alone, so their report is kept on
    the lattice, keyed by the agent and the row's identity, and every model
    that shares the row shares it: a complemented model derived from an
    implicit one, and the implicit view of a complemented one.  The entry
    holds the row, so its identity cannot be reused while the entry lives."""
    lat, row = model.lattice, model._lambda_masks[agent]
    key = _lambda_laws, agent, id(row)
    entry = lat._reports.get(key)
    if entry is None:
        entry = lat._reports[key] = row, _lambda_laws(lat, agent, row)
    report.merge(entry[1])


def _lambda_laws(lat: SpaceLattice, agent: str, row: tuple[list[int], list[int]]) -> Report:
    """Reflexivity, Stationarity, and projection compatibility of an
    agent's within-space correspondence Λ; strong confinement is checked
    first since the projection law cannot even be stated without it.  What
    follows from these laws (Λ partitions every space, projections preserve
    implicit ignorance) is checked as a theorem by the test suite.

    The projection law is walked, at every space below a confined state's
    own, only at the states :func:`unawareness._dirty` finds, in index
    order: at every other state it holds at every lower space.  So the
    witnesses are those of a walk over every state, and ``checked`` counts
    every (state, lower space) check as that walk does."""
    report = Report()
    states, spaces, proj, below, keys = lat.states, lat._space, lat._proj, lat._below, lat._keys
    images, levels = row
    confined = [level == space for level, space in zip(levels, spaces)]
    holders = _row_holders(lat, images)
    checked = len(states)
    for i, ref in enumerate(states):
        mine = images[i]
        if not confined[i]:
            report.add("strong-confinement", agent, state=ref,
                       image=";".join(map(str, _refs(states, mine))))
            continue
        checked += 1 + mine.bit_count() + len(below[spaces[i]])
        if not mine >> i & 1:
            report.add("implicit-reflexivity", agent, state=ref)
        for j in _indices(mine & ~holders[mine]):
            report.add("implicit-stationarity", agent, state=ref, reached=states[j])

    projections: dict[int, list[int]] = {}  # image -> its projection per space below its own
    for i in _indices(_dirty(lat, images, levels, holders)):
        if not confined[i]:
            continue
        mine, row, space = images[i], proj[i], spaces[i]
        projected = projections.get(mine)
        if projected is None:  # the last space below the state's is its own
            projected = projections[mine] = [lat._project_mask(mine, below_space)
                                              for below_space in below[space][:-1]] + [mine]
        ref = states[i]
        for below_space, image in zip(below[space], projected):
            if image != images[row[below_space]]:
                report.add("projections-preserve-implicit-knowledge", agent,
                           state=ref, below=keys[below_space])
    report.count(checked)
    return report


@memoised
def validate_lambda(model: LatticeModel) -> Report:
    """Full validation of a complemented model: :func:`validate_hms`'s
    report on the lattice and Π, then the implicit correspondence laws and
    their compatibility with Π (measurability both ways, plus the derived
    coherence facts).  Each violation is listed once: at a state where Π
    breaks confinement, which :func:`validate_hms` lists, the joint laws
    are skipped."""
    require(model, "pi", "lambda")
    report = validate_hms(model)
    lat = model.lattice
    states, spaces, keys = lat.states, lat._space, lat._keys
    checked = 0
    for agent in model.agents:
        images, levels = model._lambda_masks[agent]
        pi_images, pi_levels = model._pi_masks[agent]
        _check_implicit_correspondence(model, agent, report)
        # Both validators above built these for the same rows.
        holders, pi_holders = _row_holders(lat, images), _row_holders(lat, pi_images)
        # The states whose Λ and Π images differ.
        differ = sum(1 << j for j, (image, known) in enumerate(zip(images, pi_images))
                     if image != known)
        projected_of: dict[tuple[int, int], int] = {}  # (image, level) -> projection

        for i, ref in enumerate(states):
            known = pi_images[i]
            checked += images[i].bit_count()
            for j in _indices(images[i] & ~pi_holders[known]):
                report.add("explicit-measurability", agent, state=ref, reached=states[j])

            level = pi_levels[i]
            if level < 0 or level & ~spaces[i] or levels[i] != spaces[i]:
                continue

            key = images[i], level
            projected = projected_of.get(key)
            if projected is None:
                projected = projected_of[key] = lat._project_mask(*key)
            checked += 2 * known.bit_count() + 1
            unlike = known & ~holders.get(projected, 0)
            for j in _indices(unlike | known & differ):
                if unlike >> j & 1:
                    report.add("implicit-measurability", agent, state=ref, reached=states[j])
                if differ >> j & 1:
                    report.add("implicit-matches-explicit-on-possibility-set", agent,
                               state=ref, reached=states[j])

            if projected != known:
                report.add("coherence", agent, state=ref, level=keys[level])
    report.count(checked)
    return report


def validate_alpha(model: LatticeModel) -> Report:
    """Check the awareness-function laws at every agent/state/space triple."""
    require(model, "lambda", "alpha")
    report = Report()
    lat = model.lattice
    states, spaces, proj, below, keys = lat.states, lat._space, lat._proj, lat._below, lat._keys
    checked = 0
    span_bits = lat._names.span_bits
    for agent in model.agents:
        levels = model._alpha_masks[agent][1]
        images = model._lambda_masks[agent][0]
        holders = _holders(levels)
        checked += len(states)
        for i, ref in enumerate(states):
            level, space = levels[i], spaces[i]
            if level & ~space:
                report.add("lack-of-conception", agent, state=ref, level=keys[level])
                continue
            checked += images[i].bit_count() + 3 * len(below[space])
            for j in _indices(images[i] & span_bits[space] & ~holders[level]):
                report.add("awareness-measurability", agent, state=ref, reached=states[j])
            row = proj[i]
            for below_space in below[space]:
                got = levels[row[below_space]]
                if not below_space & ~level and got != below_space:
                    report.add("awareness-projects-to-level", agent, state=ref,
                               below=keys[below_space], got=keys[got])
                if not level & ~below_space and got != level:
                    report.add("awareness-constant-above-level", agent, state=ref,
                               below=keys[below_space], got=keys[got])
                if got & ~level:
                    report.add("awareness-monotone-under-projection", agent, state=ref,
                               below=keys[below_space], got=keys[got])
    report.count(checked)
    return report


@memoised
def validate_implicit(model: LatticeModel) -> Report:
    """Full validation of an implicit knowledge-based model: lattice laws,
    the implicit correspondence laws, then the awareness-function laws."""
    require(model, "lambda", "alpha")
    report = _validate_lattice(model.lattice)
    for agent in model.agents:
        _check_implicit_correspondence(model, agent, report)
    if report.ok:
        report.merge(validate_alpha(model))
    return report


# -- derivations ------------------------------------------------------------------


def candidate_lambda_from_pi(model: LatticeModel) -> LatticeModel:
    """Best-effort implicit correspondence grouping states of a space whose
    explicit possibility sets coincide.

    The construction is a candidate only: it is validated after the fact and
    :class:`CandidateInvalid` carries the report when it fails.  No claim of
    general adequacy is made.
    """
    base_report = validate_hms(model)
    if not base_report.ok:
        raise PreconditionFailed("candidate construction needs a valid model", base_report)
    spaces = model.lattice._space
    lambda_ = {}
    for agent in model.agents:
        keys = list(zip(spaces, model._pi_masks[agent][0]))  # (space, Π image) per state
        cells: dict[tuple[int, int], int] = {}  # the states of each key
        for i, key in enumerate(keys):
            cells[key] = cells.get(key, 0) | 1 << i
        lambda_[agent] = ([cells[key] for key in keys], list(spaces))
    candidate = LatticeModel._from_masks(model.lattice, model.agents,
                                         pi=model._pi_masks, lambda_=lambda_)
    report = validate_lambda(candidate)
    if not report.ok:
        raise CandidateInvalid("derived candidate violates the implicit laws", report)
    return candidate


def derive_pi_star(model: LatticeModel) -> LatticeModel:
    """Derive the explicit possibility correspondence from the implicit one
    and the awareness function, then assert that the result is a valid
    complemented model; a failed assertion raises
    :class:`DerivationInconsistent` with the result's
    :func:`validate_lambda` report.  The result shares the implicit model's
    lattice and Λ table, so that check reuses the lattice's and Λ's reports
    from the implicit model's validation and walks only Π and the joint
    laws.

    Π at each state is Λ's image projected to the awareness level.  Its
    level is read off the projection, as a file row's is, not copied from
    α, so :func:`a_star_property_suite` compares awareness from α with
    awareness from Π.  That the projected forms of the defining clause
    agree with it follows from the awareness-function laws and is checked
    as a theorem by the test suite."""
    pre = validate_implicit(model)
    if not pre.ok:
        raise PreconditionFailed("derivation needs a valid implicit model", pre)

    lat = model.lattice

    def project(key: tuple[int, int]) -> tuple[int, int]:
        """An (image, level) key's projection, and the projection's level."""
        image = lat._project_mask(*key)
        return image, lat._level(image)

    pi_star = {}
    for agent in model.agents:
        images = model._lambda_masks[agent][0]
        levels = model._alpha_masks[agent][1]
        # The model validated, so every level lies below its state's space,
        # and every image is non-empty: its projection lies in the level.
        cells = _each(project, zip(images, levels))
        pi_star[agent] = [image for image, _ in cells], [level for _, level in cells]

    # Λ is the implicit model's: share its table, and with it Λ's report.
    complemented = LatticeModel._from_masks(lat, model.agents, pi=pi_star,
                                            lambda_=model._lambda_masks)
    report = validate_lambda(complemented)
    if not report.ok:
        raise DerivationInconsistent("derived complemented model fails validation", report)
    return complemented


def implicit_from_complemented(model: LatticeModel) -> LatticeModel:
    """Repackage a complemented model with implicit knowledge and the
    explicit correspondence's space as primitives; valid whenever the input
    is."""
    alpha = {}
    for agent in model.agents:
        levels = _explicit(model)._pi_masks[agent][1]
        if -1 in levels:  # a straddled image has no space
            pi_space(model, agent, model.states[levels.index(-1)])
        alpha[agent] = (None, levels)
    out = LatticeModel._from_masks(model.lattice, model.agents,
                                   lambda_=model._lambda_masks, alpha=alpha)
    report = validate_implicit(out)
    if not report.ok:
        raise TransformInvariantBroken("implicit view of a complemented model "
                                       "fails validation", report)
    return out


# -- property suites ----------------------------------------------------------------


def implicit_property_suite(model: LatticeModel) -> Report:
    """Check the partitional laws of implicit knowledge and its interplay
    with explicit knowledge and awareness over the generated event basis."""
    suite = _Suite(model, [
        (validate_hms, "implicit property suite needs a valid model"),
        (validate_lambda, "implicit property suite needs valid implicit correspondences"),
    ])
    lat = suite.lat
    check, check_subset = suite.check, suite.check_subset

    for agent in model.agents:
        for space in lat.spaces:
            up = lat.space_up(space)
            check("implicit-necessitation", agent, l_op(model, agent, up), up,
                  space=space_key(space))

        for event in suite.basis:
            implicit = l_op(model, agent, event)
            suite.check_raw("implicit-knowledge-based-event", agent, event, implicit,
                            suite.boxed(model._lambda_masks[agent][0], event))

            check_subset("implicit-truth", agent, implicit, event, event=event)
            check_subset("implicit-positive-introspection", agent,
                         implicit, l_op(model, agent, implicit), event=event)
            not_l = lat.event_not(implicit)
            check_subset("implicit-negative-introspection", agent,
                         not_l, l_op(model, agent, not_l), event=event)

            aware = a_op(model, agent, event)
            unaware = u_op(model, agent, event)
            check("explicit-equals-implicit-and-awareness", agent,
                  k_op(model, agent, event),
                  lat.event_and([implicit, aware]), event=event)
            check("unawareness-implicitly-known", agent, unaware,
                  l_op(model, agent, unaware), event=event)
            check("awareness-implicitly-known", agent, aware,
                  l_op(model, agent, aware), event=event)
            check("awareness-of-implicit-knowledge", agent,
                  a_op(model, agent, implicit), aware, event=event)

        suite.conjunctions(agent, (("implicit-conjunction", l_op,
                                    suite.box_bases(model._lambda_masks[agent][0])),))
        suite.monotonicity("implicit-monotonicity", agent, l_op)
    return suite.report


def a_star_property_suite(model: LatticeModel) -> Report:
    """On an implicit model: awareness from the awareness function must
    coincide with awareness from the derived explicit correspondence, and
    explicit knowledge must be implicit knowledge plus awareness."""
    derived = model.derived()
    lat = model.lattice
    report = Report()
    basis = lat._basis
    report.count(2 * len(model.agents) * len(basis))
    for agent in model.agents:
        for event in basis:
            star = a_op(model, agent, event)
            plain = a_op(derived, agent, event)
            if star != plain:
                report.add("awareness-function-matches-derived", agent,
                           event=event, from_function=star, from_derived=plain)
            known = k_op(derived, agent, event)
            combined = lat.event_and([l_op(model, agent, event), star])
            if known != combined:
                report.add("explicit-equals-implicit-and-awareness", agent,
                           event=event, known=known, combined=combined)
    return report
