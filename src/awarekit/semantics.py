"""Extension-based satisfaction for lattice models.

Formulas denote events, computed bottom-up and memoized per model.  An
event is two masks, its base space and its up-closure
(:class:`~awarekit.unawareness.Event`), so evaluation runs on ints.  The
modalities read the model's operators whatever its family: ``L`` is
:func:`l_op` over Λ, ``A`` is :func:`a_op` (α's levels when α is primitive,
Π's otherwise) and ``K`` is :func:`k_op` over Π, the model's own or the
derived one.

Truth at a state is three-valued by design: a state whose space cannot
express all atoms of a formula lies outside both the formula's extension
and the extension of its negation, and gets the value Undefined.
Collapsing Undefined to False would corrupt validity, which quantifies over
defined states only.

Truth is evaluated per formula over the whole model, not per state: the
states where a formula is true and where it is false are two state masks,
the up-closure masks of its extension and of that extension's negation (see
:func:`truth_masks`).  Every question about many states reads these masks
with one operation per formula; :func:`satisfies` reads one bit.  The
witness of :func:`valid_in_model` is the lowest-index falsifying state,
which is the first in the top-down order of ``model.states`` (more
expressive spaces first).
"""

from __future__ import annotations

from enum import Enum

from .errors import UnknownAtom
from .syntax import A, And, Atom, Formula, K, L, Not, Top, atoms as formula_atoms
from .unawareness import Event, LatticeModel, StateRef, a_op, k_op, l_op


class TruthValue(Enum):
    TRUE = "True"
    FALSE = "False"
    UNDEFINED = "Undefined"

    def __str__(self) -> str:
        return self.value


def extension(model: LatticeModel, f: Formula) -> Event:
    """The event denoted by ``f``, memoized per subformula."""
    stray = formula_atoms(f) - model.atoms
    if stray:
        raise UnknownAtom(f"formula uses atoms outside the universe: {sorted(stray)}")
    return _extension(model, f)


def _extension(model: LatticeModel, f: Formula) -> Event:
    cache = model._ext_cache
    cached = cache.get(f)
    if cached is not None:
        return cached
    lat = model.lattice
    if isinstance(f, Top):
        out = lat.omega()
    elif isinstance(f, Atom):
        out = lat.valuation[f.name]
    elif isinstance(f, Not):
        out = lat.event_not(_extension(model, f.child))
    elif isinstance(f, And):
        out = lat.event_and([_extension(model, f.left), _extension(model, f.right)])
    elif isinstance(f, L):
        out = l_op(model, f.agent, _extension(model, f.child))
    elif isinstance(f, A):
        out = a_op(model, f.agent, _extension(model, f.child))
    elif isinstance(f, K):
        out = k_op(model, f.agent, _extension(model, f.child))
    else:
        raise TypeError(f"not a formula node: {f!r}")
    cache[f] = out
    return out


def truth_masks(model: LatticeModel, f: Formula) -> tuple[int, int]:
    """The states where ``f`` is true and where it is false, as state masks
    over ``model.states``: the up-closure of its extension, and the rest of
    the states at or above the extension's base space.  Not memoized: the
    extension is, and the pair is one and-not of it.  The two are disjoint,
    because each state projects to a single state of the base space."""
    event = extension(model, f)
    return event.up, model.lattice._upspace[event.space] & ~event.up


def _value(true: int, false: int, i: int) -> TruthValue:
    if true >> i & 1:
        return TruthValue.TRUE
    if false >> i & 1:
        return TruthValue.FALSE
    return TruthValue.UNDEFINED


def satisfies(model: LatticeModel, ref: StateRef, f: Formula) -> TruthValue:
    """Three-valued truth at a state: True inside the extension's up-closure,
    False inside the negation's, Undefined outside both."""
    i = model.lattice._state_index(ref)
    return _value(*truth_masks(model, f), i)


def truth_table(model: LatticeModel, f: Formula) -> list[TruthValue]:
    """The value of ``f`` at every state, in the order of ``model.states``."""
    true, false = truth_masks(model, f)
    return [_value(true, false, i) for i in range(len(model.states))]


def valid_in_model(model: LatticeModel, f: Formula) -> tuple[bool, StateRef | None]:
    """True when no defined state falsifies ``f``; otherwise the first
    falsifying state in top-down order is returned as a witness."""
    false = truth_masks(model, f)[1]
    if not false:
        return True, None
    return False, model.states[(false & -false).bit_length() - 1]
