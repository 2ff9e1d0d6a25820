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
    StateRef,
    _Suite,
    _validate_lattice,
    a_op,
    event_basis,
    k_op,
    l_op,
    pi_space,
    require,
    space_key,
    state_order,
    u_op,
    validate_hms,
)


# -- validators -----------------------------------------------------------------


def _check_implicit_correspondence(model: LatticeModel, agent: str, report: Report) -> None:
    """Reflexivity, Stationarity, and projection compatibility of an
    agent's within-space correspondence Λ; strong confinement is checked
    first since the projection law cannot even be stated without it.  What
    follows from these laws (Λ partitions every space, projections preserve
    implicit ignorance) is checked as a theorem by the test suite."""
    lat, corr = model.lattice, model.lambda_[agent]
    states, index, spaces, proj, below, keys = (
        lat.states, lat._index, lat._space, lat._proj, lat._below, lat._keys)
    images, _, levels = model._lambda_masks[agent]
    confined = [level == space for level, space in zip(levels, spaces)]
    checked = len(states)
    for i, ref in enumerate(states):
        image = corr[ref]
        if not confined[i]:
            report.add("strong-confinement", agent, state=ref,
                       image=";".join(str(t) for t in sorted(image, key=state_order)))
            continue
        mine = images[i]
        checked += 1 + len(image)
        if not mine >> i & 1:
            report.add("implicit-reflexivity", agent, state=ref)
        for target in image:
            if images[index[target]] != mine:
                report.add("implicit-stationarity", agent, state=ref, reached=target)

    projections: dict[int, list[int]] = {}  # image mask -> its projections
    for i, ref in enumerate(states):
        if not confined[i]:
            continue
        mine, row, space = images[i], proj[i], spaces[i]
        projected = projections.get(mine)
        if projected is None:
            projected = projections[mine] = lat._projections(mine, space)
        checked += len(below[space])
        for below_space in below[space]:
            if projected[below_space] != images[row[below_space]]:
                report.add("projections-preserve-implicit-knowledge", agent,
                           state=ref, below=keys[below_space])
    report.count(checked)


@memoised
def validate_lambda(model: LatticeModel) -> Report:
    """Check the implicit correspondence laws of a complemented model and
    their compatibility with the explicit correspondence (measurability both
    ways, plus the derived coherence facts)."""
    require(model, "pi", "lambda")
    report = Report()
    lat = model.lattice
    states, index, spaces, keys = lat.states, lat._index, lat._space, lat._keys
    checked = 0
    for agent in model.agents:
        corr = model.lambda_[agent]
        pi = model.pi[agent]
        images, _, levels = model._lambda_masks[agent]
        pi_images, _, pi_levels = model._pi_masks[agent]
        _check_implicit_correspondence(model, agent, report)

        for i, ref in enumerate(states):
            known = pi_images[i]
            image = corr[ref]
            checked += len(image)
            for target in image:
                if pi_images[index[target]] != known:
                    report.add("explicit-measurability", agent, state=ref, reached=target)

            level = pi_levels[i]
            if level < 0:
                report.add("confinement-single-space", agent, state=ref)
                continue
            if level & ~spaces[i]:
                report.add("confinement-expressible", agent, state=ref,
                           image_space=keys[level])
                continue
            if levels[i] != spaces[i]:
                continue

            projected = lat._project_mask(images[i], level)
            possible = pi[ref]
            checked += 2 * len(possible) + 1
            for target in possible:
                j = index[target]
                if images[j] != projected:
                    report.add("implicit-measurability", agent, state=ref, reached=target)
                if images[j] != pi_images[j]:
                    report.add("implicit-matches-explicit-on-possibility-set", agent,
                               state=ref, reached=target)

            if projected != known:
                report.add("coherence", agent, state=ref, level=keys[level])
    report.count(checked)
    return report


def validate_alpha(model: LatticeModel) -> Report:
    """Check the awareness-function laws at every agent/state/space triple."""
    require(model, "lambda", "alpha")
    report = Report()
    lat = model.lattice
    states, index, spaces, proj, below, keys = (
        lat.states, lat._index, lat._space, lat._proj, lat._below, lat._keys)
    checked = 0
    for agent in model.agents:
        levels = model._alpha_masks[agent][2]
        corr = model.lambda_[agent]
        checked += len(states)
        for i, ref in enumerate(states):
            level, space = levels[i], spaces[i]
            if level & ~space:
                report.add("lack-of-conception", agent, state=ref, level=keys[level])
                continue
            image = corr[ref]
            checked += len(image) + 3 * len(below[space])
            for target in image:
                j = index[target]
                if spaces[j] == space and levels[j] != level:
                    report.add("awareness-measurability", agent, state=ref, reached=target)
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
    report = Report()
    _validate_lattice(model.lattice, report)
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
    lat = model.lattice
    lambda_: dict[str, dict[StateRef, frozenset[StateRef]]] = {}
    for agent in model.agents:
        pi = model.pi[agent]
        table = {}
        for ref in lat.states:
            table[ref] = frozenset(
                other for other in lat.states_of(ref.space) if pi[other] == pi[ref])
        lambda_[agent] = table
    candidate = LatticeModel(lat, model.agents, pi=model.pi, lambda_=lambda_)
    report = validate_lambda(candidate)
    if not report.ok:
        raise CandidateInvalid("derived candidate violates the implicit laws", report)
    return candidate


def derive_pi_star(model: LatticeModel) -> LatticeModel:
    """Derive the explicit possibility correspondence from the implicit one
    and the awareness function, then assert that the result is a valid
    complemented model; a failed assertion raises
    :class:`DerivationInconsistent`.

    Π at each state is Λ's image projected to the awareness level.  That
    the projected forms of the defining clause agree with it follows from
    the awareness-function laws and is checked as a theorem by the test
    suite."""
    pre = validate_implicit(model)
    if not pre.ok:
        raise PreconditionFailed("derivation needs a valid implicit model", pre)

    lat = model.lattice
    states = lat.states
    pi_star: dict[str, dict[StateRef, frozenset[StateRef]]] = {}
    for agent in model.agents:
        images = model._lambda_masks[agent][0]
        levels = model._alpha_masks[agent][2]
        # The model validated, so every level lies below its state's space.
        projected: dict[tuple[int, int], int] = {}  # (image, level) -> projection
        for key in zip(images, levels):
            if key not in projected:
                projected[key] = lat._project_mask(*key)
        table = [projected[key] for key in zip(images, levels)]
        pi_star[agent] = {ref: frozenset(lat._refs(mask)) for ref, mask in zip(states, table)}

    complemented = LatticeModel(lat, model.agents, pi=pi_star)
    # Λ is the implicit model's, already normalized: share its table and masks.
    complemented.lambda_, complemented._lambda_masks = model.lambda_, model._lambda_masks
    hms_report = validate_hms(complemented)
    if not hms_report.ok:
        raise DerivationInconsistent("derived explicit correspondence is not a valid "
                                     "unawareness model", hms_report)
    joint = validate_lambda(complemented)
    if not joint.ok:
        raise DerivationInconsistent("derived pair breaks explicit/implicit measurability",
                                     joint)
    return complemented


def implicit_from_complemented(model: LatticeModel) -> LatticeModel:
    """Repackage a complemented model with implicit knowledge and the
    explicit correspondence's space as primitives; valid whenever the input
    is."""
    alpha = {
        agent: {ref: pi_space(model, agent, ref) for ref in model.states}
        for agent in model.agents
    }
    out = LatticeModel(model.lattice, model.agents, lambda_=model.lambda_, alpha=alpha)
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

        suite.conjunctions(agent, (("implicit-conjunction", l_op),))
        suite.monotonicity("implicit-monotonicity", agent, l_op)
    return suite.report


def a_star_property_suite(model: LatticeModel) -> Report:
    """On an implicit model: awareness from the awareness function must
    coincide with awareness from the derived explicit correspondence, and
    explicit knowledge must be implicit knowledge plus awareness."""
    derived = model.derived()
    lat = model.lattice
    report = Report()
    basis = event_basis(model)
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
