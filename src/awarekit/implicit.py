"""The implicit layer of lattice models: validators, derivations and
property suites.

Implicit possibility Λ enters a :class:`~awarekit.unawareness.LatticeModel`
in two families.  A *complemented* model keeps the explicit possibility
correspondence Π as primitive and adds a compatible within-space Λ.  An
*implicit knowledge-based* model (CLI kind ``implicit-hms``) instead takes
Λ and a per-state awareness function α as primitives, and
:func:`derive_pi_star` derives Π from them.  The operators themselves
(``k_op``, ``l_op``, ``a_op``) live in :mod:`awarekit.unawareness`, on the
per-agent rows.  A model built here from another shares its Λ rows, and
with them each row's operator memo and Λ's report (:func:`_lambda_report`).
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
    _incoherent,
    _indices,
    _knowledge_laws,
    _refs,
    _Row,
    _Suite,
    _validate_lattice,
    _walk,
    a_op,
    k_op,
    l_op,
    require,
    space_key,
    u_op,
    validate_hms,
)


# -- validators -----------------------------------------------------------------


@memoised
def _lambda_report(row: _Row) -> Report:
    """The report of Λ's laws on one agent's row.  The laws read the
    lattice and the row alone, so their report is kept on the row, and
    every model that shares the row shares it."""
    return _lambda_laws(row.lattice, row.agent, row)


def _lambda_laws(lat: SpaceLattice, agent: str, row: _Row) -> Report:
    """Reflexivity, Stationarity, and projection compatibility of an
    agent's within-space correspondence Λ; strong confinement is checked
    first since the projection law cannot even be stated without it.  What
    follows from these laws (Λ partitions every space, projections preserve
    implicit ignorance) is checked as a theorem by the test suite.

    Strong confinement, reflexivity and stationarity at a state read only
    its image, the states holding that image, and its space, so each is
    decided once per distinct image.  The projection law, at every space
    below a confined state's own, fails only at the states
    :func:`unawareness._dirty` finds.  The laws are walked state by state,
    in index order, only where one of them fails or may fail, so the
    witnesses are those of a walk over every state.  ``checked`` counts
    every (state, lower space) check as that walk would, and is computed
    per image rather than counted during the walk."""
    report = Report()
    states, below, span_bits = lat.states, lat._below, lat._names.span_bits
    images, levels, holders = row.images, row.levels, row.holders
    checked = len(states)
    unconfined = failing = 0
    for image, mine in holders.items():
        level = levels[(mine & -mine).bit_length() - 1]
        confined = mine & span_bits[level] if level >= 0 else 0
        unconfined |= mine ^ confined
        checked += confined.bit_count() * (1 + image.bit_count() + len(below[level]))
        failing |= confined & ~image  # reflexivity
        if image & ~mine:  # stationarity
            failing |= confined

    for i in _walk(unconfined | failing):
        ref, mine = states[i], images[i]
        if unconfined >> i & 1:
            report.add("strong-confinement", agent, state=ref,
                       image=";".join(map(str, _refs(states, mine))))
            continue
        if not mine >> i & 1:
            report.add("implicit-reflexivity", agent, state=ref)
        for j in _indices(mine & ~holders[mine]):
            report.add("implicit-stationarity", agent, state=ref, reached=states[j])

    projections: dict[int, list[int]] = {}  # image -> its projection per space below its own
    for i in _walk(_dirty(row) & ~unconfined):
        _knowledge_laws(row, i, projections, "projections-preserve-implicit-knowledge", report)
    report.count(checked)
    return report


@memoised
def validate_lambda(model: LatticeModel) -> Report:
    """Full validation of a complemented model: :func:`validate_hms`'s
    report on the lattice and Π, then the implicit correspondence laws and
    their compatibility with Π (measurability both ways, plus the derived
    coherence facts).  Each violation is listed once: at a state where Π
    breaks confinement, which :func:`validate_hms` lists, the joint laws
    are skipped.

    The joint laws at a state read only its Λ and Π images, their holders,
    and its space, so each is decided once per distinct (Λ, Π) image pair,
    for all of the pair's holders at once.  They are walked state by state,
    in index order, only where one of them fails, so the witnesses and
    their order are those of a walk over every state.  ``checked`` counts
    every check as that walk would, and is computed per pair rather than
    counted during the walk."""
    require(model, "pi", "lambda")
    report = validate_hms(model)
    lat = model.lattice
    states, spaces, keys = lat.states, lat._space, lat._keys
    span_bits, upspace = lat._names.span_bits, lat._upspace
    checked = 0
    for agent in model.agents:
        row, pi_row = model._lambda[agent], model._pi[agent]
        images, levels, holders = row.images, row.levels, row.holders
        pi_images, pi_levels, pi_holders = pi_row.images, pi_row.levels, pi_row.holders
        report.merge(_lambda_report(row))
        pairs = [(image, known, holders[image] & pi_holders[known])
                 for image, known in dict.fromkeys(zip(images, pi_images))]
        # The states whose Λ and Π images differ.
        differ = 0
        for image, known, mine in pairs:
            if image != known:
                differ |= mine
        projected_of: dict[tuple[int, int], int] = {}  # (image, level) -> projection

        failing = 0
        for image, known, mine in pairs:
            checked += mine.bit_count() * image.bit_count()
            if image & ~pi_holders[known]:  # explicit measurability
                failing |= mine
            first = (mine & -mine).bit_length() - 1
            level, own = pi_levels[first], levels[first]
            if level < 0 or own < 0:
                continue
            # The states at or above Π's level, in Λ's space.
            joint = mine & upspace[level] & span_bits[own]
            if not joint:
                continue
            checked += joint.bit_count() * (2 * known.bit_count() + 1)
            key = image, level
            projected = projected_of.get(key)
            if projected is None:
                projected = projected_of[key] = lat._project_mask(*key)
            if known & ~holders.get(projected, 0) or known & differ or projected != known:
                failing |= joint

        for i in _walk(failing):
            ref, known = states[i], pi_images[i]
            for j in _indices(images[i] & ~pi_holders[known]):
                report.add("explicit-measurability", agent, state=ref, reached=states[j])

            level = pi_levels[i]
            if level < 0 or level & ~spaces[i] or levels[i] != spaces[i]:
                continue

            projected = projected_of[images[i], level]
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
    """Check the awareness-function laws at every agent/state/space triple.

    Lack of conception (the level lies in the state's space) and awareness
    measurability (the states of the Λ image in the state's space share
    its level) are checked at every state.  The three projection laws,
    for the level ``ℓ`` of a state ``i`` and the level ``g`` of its
    projection ``i_T`` into a space ``T`` below its space ``S``, are:
    projects-to-level, ``T ⊆ ℓ`` implies ``g = T``; constant-above-level,
    ``ℓ ⊆ T`` implies ``g = ℓ``; monotone, ``g ⊆ ℓ``.  At ``T = S`` they
    hold, as ``g = ℓ ⊆ S``.  A state is *bad* when it lacks conception or
    a projection law fails at a covering child of its space (the space with
    one atom dropped).  The laws are walked at every lower space, state by
    state in index order, only at the states that project onto a bad
    state, at the incoherent states of the lattice
    (:func:`unawareness._incoherent`) and at those where measurability
    fails; so the witnesses and their order are those of a walk over every
    state.

    At every other state, *clean*, no projection law fails at any lower
    space.  A clean state is coherent, so ``i_T`` is the projection of
    ``i_c`` into ``T`` for ``T`` below a covering child ``c``, and the
    projections of a clean state are clean.  By induction on the size of
    ``S``, take ``T`` strictly below ``S``, and ``ℓ_c`` the level of the
    clean, smaller ``i_c``; the laws hold at ``i_c`` for ``T``, and at
    ``i`` for ``c``:

    - ``ℓ = S``: take any ``c`` above ``T``.  Projects-to-level at ``c``
      gives ``ℓ_c = c ⊇ T``, so ``g = T`` by projects-to-level at ``i_c``,
      and ``g ⊆ S``.  Constant-above-level does not apply, as ``T ≠ S``.
    - ``ℓ`` below ``S`` and ``ℓ ∪ T`` below ``S``: take ``c`` above both.
      Constant-above-level at ``c`` gives ``ℓ_c = ℓ``, so the laws at
      ``i`` for ``T`` are the laws at ``i_c`` for ``T``.
    - ``ℓ`` below ``S`` and ``ℓ ∪ T = S``: take ``c`` above ``T``; then
      ``ℓ ⊄ T`` and ``T ⊄ ℓ``, so only monotonicity applies, and ``g ⊆
      ℓ_c ⊆ ℓ`` by monotonicity at ``i_c`` and at ``c``."""
    require(model, "lambda", "alpha")
    report = Report()
    lat = model.lattice
    states, spaces, below, keys = lat.states, lat._space, lat._below, lat._keys
    span_bits, children, start = lat._names.span_bits, lat._children, lat._start
    # Aligned, state i of space S projects into T at start[T] + i - start[S].
    proj = None if lat._aligned else lat._proj
    incoherent = _incoherent(lat)
    checked = 0
    for agent in model.agents:
        levels, images = model._alpha[agent].levels, model._lambda[agent].images
        holders = _holders(levels)
        checked += len(states)
        bad = failing = 0
        for i, (level, space, image) in enumerate(zip(levels, spaces, images)):
            if level & ~space:
                bad |= 1 << i
                continue
            checked += image.bit_count() + 3 * len(below[space])
            if image & span_bits[space] & ~holders[level]:
                failing |= 1 << i
            at = i - start[space]  # aligned, i_c is start[c] + at
            for child in children[space]:
                got = levels[start[child] + at if proj is None else proj[i][child]]
                if (not child & ~level and got != child or not level & ~child and got != level
                        or got & ~level):
                    bad |= 1 << i
                    break

        for i in _walk(incoherent | lat._close(bad) | failing):
            ref, level, space = states[i], levels[i], spaces[i]
            if level & ~space:
                report.add("lack-of-conception", agent, state=ref, level=keys[level])
                continue
            for j in _indices(images[i] & span_bits[space] & ~holders[level]):
                report.add("awareness-measurability", agent, state=ref, reached=states[j])
            row = lat._proj[i]
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
        report.merge(_lambda_report(model._lambda[agent]))
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
    lambda_ = {}
    for agent, row in model._pi.items():
        keys = list(zip(lat._space, row.images))  # (space, Π image) per state
        cells: dict[tuple[int, int], int] = {}  # the states of each key
        for i, key in enumerate(keys):
            cells[key] = cells.get(key, 0) | 1 << i
        lambda_[agent] = _Row(lat, agent, [cells[key] for key in keys], list(lat._space))
    candidate = LatticeModel(lat, model.agents, pi=model._pi, lambda_=lambda_)
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
    lattice and Λ rows, so that check reuses the lattice's and Λ's reports
    from the implicit model's validation and walks only Π and the joint
    laws, and ``l_op`` on either model reads one memo.

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
        # The model validated, so every level lies below its state's space,
        # and every image is non-empty: its projection lies in the level.
        cells = _each(project, zip(model._lambda[agent].images, model._alpha[agent].levels))
        pi_star[agent] = _Row(lat, agent, *map(list, zip(*cells)))

    # Λ is the implicit model's: share its rows.
    complemented = LatticeModel(lat, model.agents, pi=pi_star, lambda_=model._lambda)
    report = validate_lambda(complemented)
    if not report.ok:
        raise DerivationInconsistent("derived complemented model fails validation", report)
    return complemented


def implicit_from_complemented(model: LatticeModel) -> LatticeModel:
    """Repackage a complemented model with implicit knowledge and the
    explicit correspondence's space as primitives; valid whenever the input
    is."""
    alpha = {}
    for agent, row in _explicit(model)._pi.items():
        if -1 in row.levels:  # a straddled image has no space
            row.level(row.levels.index(-1))
        alpha[agent] = _Row(model.lattice, agent, None, row.levels)
    out = LatticeModel(model.lattice, model.agents, lambda_=model._lambda, alpha=alpha)
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
                            suite.boxed(model._lambda[agent].images, event))

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
                                    suite.box_bases(model._lambda[agent])),))
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
