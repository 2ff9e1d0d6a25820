"""Lattice models (CLI model kinds ``hms`` and ``implicit-hms``).

A :class:`SpaceLattice` carries one disjoint state space per subset of its
atom universe, linked by surjective commuting projections; all semantic
content is expressed through *events*: up-closed sets determined by a base
set inside a base space.  A :class:`LatticeModel` gives the lattice
knowledge through per-agent primitives: the explicit possibility
correspondence Π, the implicit one Λ, and the awareness function α, in one
of three shapes (Π; Π and Λ; Λ and α).  Two operators read them, whatever
the shape: knowledge, the box of a correspondence (:meth:`SpaceLattice.box`:
``k_op`` over Π, ``l_op`` over Λ), and awareness, a test of levels
(:meth:`SpaceLattice.aware`: ``a_op``).

The atom universe is finite and capped (default 6, override with the
``AWAREKIT_MAX_ATOMS`` environment variable) because the full powerset of
spaces is materialized eagerly and validation is exhaustive.

Lattices and models are immutable: nothing may change them after
construction.  Their index tables and operator caches are built on that
promise, and so is validation, which runs once per model object
(:func:`reports.memoised`); later calls return copies of the first report.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    ModelFormatError,
    NotComparable,
    PreconditionFailed,
    StraddledPossibilitySet,
    UnknownAgent,
    UnknownSpace,
    UnknownState,
)
from .reports import Report, memoised

DEFAULT_MAX_ATOMS = 6
MAX_ATOMS_ENV = "AWAREKIT_MAX_ATOMS"


def max_atoms() -> int:
    raw = os.environ.get(MAX_ATOMS_ENV)
    if raw is None:
        return DEFAULT_MAX_ATOMS
    try:
        value = int(raw)
    except ValueError:
        raise ModelFormatError(f"{MAX_ATOMS_ENV} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ModelFormatError(f"{MAX_ATOMS_ENV} must be at least 1, got {value}")
    return value


def space_key(space: Iterable[str]) -> str:
    """Canonical text key of a space index: comma-joined sorted atoms, "" for the meet."""
    return ",".join(sorted(space))


def parse_space_key(key: str) -> frozenset[str]:
    return frozenset(part for part in key.split(",") if part)


def subsets(space: frozenset[str]) -> Iterator[frozenset[str]]:
    """All subsets of ``space``, smallest first, deterministic order."""
    items = sorted(space)
    for size in range(len(items) + 1):
        for combo in combinations(items, size):
            yield frozenset(combo)


@dataclass(frozen=True, slots=True)
class StateRef:
    """A state tagged with its space; tagging keeps distinct spaces disjoint.

    The hash is the dataclass's own, ``hash((space, id))``, computed once at
    construction."""

    space: frozenset[str]
    id: str
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.space, self.id)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return StateRef, (self.space, self.id)

    def __str__(self) -> str:
        return f"{space_key(self.space)}:{self.id}"


def state_order(ref: StateRef) -> tuple:
    """Sort key putting more expressive spaces first."""
    return (-len(ref.space), space_key(ref.space), ref.id)


@dataclass(frozen=True)
class Event:
    """Base-space/base pair denoting the up-closed set ``base↑``.

    Two events are equal iff both base space and base agree, so each space
    carries its own vacuous event (empty base): contradictions differ by the
    vocabulary needed to state them.
    """

    base_space: frozenset[str]
    base: frozenset[StateRef]

    def __post_init__(self):
        for ref in self.base:
            if ref.space != self.base_space:
                raise ModelFormatError(f"event base state {ref} lies outside base space "
                                       f"{space_key(self.base_space)!r}")

    @property
    def is_vacuous(self) -> bool:
        return not self.base

    def __str__(self) -> str:
        ids = ",".join(sorted(ref.id for ref in self.base))
        return f"{space_key(self.base_space)}:[{ids}]"


class SpaceLattice:
    """The shared skeleton of every lattice-based model: spaces, projections, valuation.

    Projections are stored for covering pairs (drop one atom) and composed on
    demand; the global composition law is a validator concern, not assumed
    here.  Construction fails on structural unreadability only: missing
    spaces or covering maps, dangling state ids, non-total maps.

    Construction also builds a dense index that the validators and operators
    run on.  State ``i`` is ``states[i]``; a space is a bitmask over the
    sorted atoms; a set of states is a bitmask over state indices, held in a
    Python int.  Each state has a projection list indexed by target-space
    mask and an up-closure mask, and each space the index range of its
    states (states of one space are contiguous in ``states``).
    """

    def __init__(
        self,
        atoms: Iterable[str],
        spaces: Mapping[frozenset[str], Sequence[str]],
        projections: Mapping[tuple[frozenset[str], frozenset[str]], Mapping[str, str]],
        valuation: Mapping[str, Event],
    ):
        self.atoms = frozenset(atoms)
        cap = max_atoms()
        if len(self.atoms) > cap:
            raise ModelFormatError(
                f"{len(self.atoms)} atoms exceed the cap of {cap} "
                f"(override with {MAX_ATOMS_ENV})")

        self.spaces: dict[frozenset[str], tuple[StateRef, ...]] = {}
        for space in subsets(self.atoms):
            ids = spaces.get(space)
            if ids is None:
                raise ModelFormatError(f"missing space {space_key(space)!r}")
            if not ids:
                raise ModelFormatError(f"space {space_key(space)!r} is empty")
            if len(set(ids)) != len(ids):
                raise ModelFormatError(f"duplicate state ids in space {space_key(space)!r}")
            if "" in ids:
                raise ModelFormatError(f"empty state id in space {space_key(space)!r}")
            self.spaces[space] = tuple(StateRef(space, i) for i in sorted(ids))
        extra = set(spaces) - set(self.spaces)
        if extra:
            key = space_key(sorted(extra, key=space_key)[0])
            raise ModelFormatError(f"space {key!r} is not a subset of the atom universe")

        self._cover: dict[tuple[frozenset[str], frozenset[str]], dict[StateRef, StateRef]] = {}
        for parent in self.spaces:
            for atom in parent:
                child = parent - {atom}
                raw = projections.get((parent, child))
                if raw is None:
                    raise ModelFormatError(
                        f"missing projection {space_key(parent)!r} -> {space_key(child)!r}")
                table: dict[StateRef, StateRef] = {}
                child_refs = {ref.id: ref for ref in self.spaces[child]}
                for ref in self.spaces[parent]:
                    image = raw.get(ref.id)
                    if image is None:
                        raise ModelFormatError(
                            f"projection {space_key(parent)!r} -> {space_key(child)!r} "
                            f"is undefined on state {ref.id!r}")
                    if image not in child_refs:
                        raise ModelFormatError(
                            f"projection {space_key(parent)!r} -> {space_key(child)!r} "
                            f"maps {ref.id!r} to unknown state {image!r}")
                    table[ref] = child_refs[image]
                self._cover[(parent, child)] = table

        self.states: tuple[StateRef, ...] = tuple(
            sorted((ref for refs in self.spaces.values() for ref in refs), key=state_order))
        self._index: dict[StateRef, int] = {ref: i for i, ref in enumerate(self.states)}

        if set(valuation) != self.atoms:
            missing = self.atoms - set(valuation)
            extra_atoms = set(valuation) - self.atoms
            bad = sorted(missing | extra_atoms)
            raise ModelFormatError(f"valuation must be total on the atom universe; "
                                   f"mismatched atoms: {bad}")
        # Valuation bases are rebuilt from the lattice's own states.
        self.valuation: dict[str, Event] = {}
        for atom, event in valuation.items():
            if event.base_space not in self.spaces:
                raise ModelFormatError(f"valuation of {atom!r} uses unknown space "
                                       f"{space_key(event.base_space)!r}")
            base = []
            for ref in event.base:
                i = self._index.get(ref)
                if i is None:
                    raise ModelFormatError(f"valuation of {atom!r} references unknown state {ref}")
                base.append(self.states[i])
            self.valuation[atom] = Event(event.base_space, frozenset(base))

        # Space masks: bit k stands for the k-th atom in sorted order, so the
        # highest set bit of a mask is its greatest atom.
        self._atom_bit = {atom: 1 << k for k, atom in enumerate(sorted(self.atoms))}
        self._masks: dict[frozenset[str], int] = {
            space: sum(self._atom_bit[atom] for atom in space) for space in self.spaces}
        n_masks = 1 << len(self.atoms)
        self._keys: list[str] = [""] * n_masks
        self._below: list[list[int]] = [[] for _ in range(n_masks)]
        self._span: list[range] = [range(0)] * n_masks
        start = 0
        for space, refs in sorted(self.spaces.items(),
                                  key=lambda kv: (-len(kv[0]), space_key(kv[0]))):
            mask = self._masks[space]
            self._keys[mask] = space_key(space)
            self._below[mask] = [self._masks[sub] for sub in subsets(space)]
            self._span[mask] = range(start, start + len(refs))
            start += len(refs)
        self._space: list[int] = [self._masks[ref.space] for ref in self.states]

        # Projections composed along the canonical chain (drop atoms in
        # greatest-first order); path independence is exactly the
        # composition law checked by the validator.  Entries for targets
        # that are not below the state's space stay -1.
        index = self._index
        self._proj: list[list[int]] = [[-1] * n_masks for _ in self.states]
        for (parent, child), table in self._cover.items():
            target = self._masks[child]
            for ref, image in table.items():
                self._proj[index[ref]][target] = index[image]
        # States of smaller spaces come later in ``states``, so walking it
        # backwards completes every row a composite projection reads.
        for i in reversed(range(len(self.states))):
            mask = self._space[i]
            row = self._proj[i]
            row[mask] = i
            for target in self._below[mask]:
                if row[target] < 0:
                    drop = 1 << ((mask & ~target).bit_length() - 1)
                    row[target] = self._proj[row[mask ^ drop]][target]

        self._up: list[int] = [0] * len(self.states)
        for i, row in enumerate(self._proj):
            bit = 1 << i
            for target in self._below[self._space[i]]:
                self._up[row[target]] |= bit

        self._upc_cache: dict[Event, int] = {}

    # -- lookups ---------------------------------------------------------

    def has_space(self, space: frozenset[str]) -> bool:
        return space in self.spaces

    def states_of(self, space: frozenset[str]) -> tuple[StateRef, ...]:
        try:
            return self.spaces[space]
        except KeyError:
            raise UnknownSpace(f"no space {space_key(space)!r}") from None

    def require_state(self, ref: StateRef) -> StateRef:
        self._state_index(ref)
        return ref

    def cover_map(self, parent: frozenset[str], child: frozenset[str]) -> dict[StateRef, StateRef]:
        return self._cover[(parent, child)]

    # -- the dense index ----------------------------------------------------

    def _state_index(self, ref: StateRef) -> int:
        i = self._index.get(ref)
        if i is None:
            raise UnknownState(f"no state {ref}")
        return i

    def _refs(self, mask: int) -> list[StateRef]:
        """The states of a state mask, in index order."""
        states = self.states
        out = []
        while mask:
            low = mask & -mask
            out.append(states[low.bit_length() - 1])
            mask ^= low
        return out

    def _project_mask(self, mask: int, target: int) -> int:
        """The projection of a state mask into the space ``target``, which
        must lie below the space of every state in the mask."""
        proj = self._proj
        out = 0
        while mask:
            low = mask & -mask
            out |= 1 << proj[low.bit_length() - 1][target]
            mask ^= low
        return out

    def _projections(self, mask: int, space: int) -> list[int]:
        """The projections of a state mask inside ``space`` into every space
        below it, as a list indexed by target mask."""
        out = [0] * len(self._below)
        for target in self._below[space]:
            out[target] = self._project_mask(mask, target)
        return out

    def _upc(self, event: Event) -> int:
        """The up-closure of a checked event, as a state mask (cached)."""
        mask = self._upc_cache.get(event)
        if mask is None:
            if event.base_space not in self.spaces:
                raise UnknownSpace(f"no space {space_key(event.base_space)!r}")
            mask = 0
            for ref in event.base:
                mask |= self._up[self._state_index(ref)]
            self._upc_cache[event] = mask
        return mask

    # -- projections and up-closures --------------------------------------

    def project(self, ref: StateRef, target: frozenset[str]) -> StateRef:
        i = self._state_index(ref)
        if not target <= ref.space:
            raise NotComparable(
                f"space {space_key(target)!r} is not below {space_key(ref.space)!r}")
        return self.states[self._proj[i][self._masks[target]]]

    def up_closure(self, event: Event) -> frozenset[StateRef]:
        return frozenset(self._refs(self._upc(event)))

    # -- events ------------------------------------------------------------

    def check_event(self, event: Event) -> Event:
        self._upc(event)
        return event

    def omega(self) -> Event:
        """The sure event: full base in the meet space; its up-closure is all states."""
        meet = frozenset()
        return Event(meet, frozenset(self.spaces[meet]))

    def space_up(self, space: frozenset[str]) -> Event:
        return Event(space, frozenset(self.states_of(space)))

    def event_not(self, event: Event) -> Event:
        self.check_event(event)
        return Event(event.base_space, frozenset(self.spaces[event.base_space]) - event.base)

    def event_and(self, events: Sequence[Event]) -> Event:
        masks = [self._upc(event) for event in events]
        if not events:
            return self.omega()
        join: frozenset[str] = frozenset()
        for event in events:
            join |= event.base_space
        # A state of the join space lies in an event's up-closure exactly
        # when its projection to the event's base space lies in the base.
        span = self._span[self._masks[join]]
        base = ((1 << len(span)) - 1) << span.start
        for mask in masks:
            base &= mask
        return Event(join, frozenset(self._refs(base)))

    def event_or(self, events: Sequence[Event]) -> Event:
        return self.event_not(self.event_and([self.event_not(e) for e in events]))

    def event_subset(self, left: Event, right: Event) -> bool:
        return not self._upc(left) & ~self._upc(right)

    # -- operators ---------------------------------------------------------

    def box(self, images: list[int], event: Event) -> Event:
        """The states of the event's base space whose image (a state mask per
        state) lies in the event's up-closure, as an event at that space; an
        empty base is that space's vacuous event.  Knowledge is the box of a
        possibility correspondence."""
        outside = ~self._upc(event)
        states = self.states
        base = frozenset(states[i] for i in self._span[self._masks[event.base_space]]
                         if not images[i] & outside)
        return Event(event.base_space, base)

    def aware(self, levels: list[int], event: Event) -> Event:
        """The states of the event's base space whose level (a space mask per
        state) sits at or above that space, as an event at that space."""
        need = self._masks[event.base_space]
        states = self.states
        base = frozenset(states[i] for i in self._span[need] if not need & ~levels[i])
        return Event(event.base_space, base)


def _lattice(model) -> SpaceLattice:
    if isinstance(model, SpaceLattice):
        return model
    return model.lattice


# The primitives a lattice model may be given: Π alone, Π and Λ, or Λ and α.
_SHAPES = ((True, False, False), (True, True, False), (False, True, True))


class LatticeModel:
    """A space lattice plus per-agent knowledge primitives, in one of three
    shapes: ``pi`` alone (an unawareness model), ``pi`` and ``lambda_`` (a
    complemented model), or ``lambda_`` and ``alpha`` (an implicit
    knowledge-based model, whose Π is derived: :meth:`derived`).  Any other
    shape is a :class:`ModelFormatError`.  Absent primitives are None, and
    :attr:`family` is read off the ones present.  Each correspondence is
    normalized and kept with its mask table (:func:`_corr_masks`); α's
    table has the levels only.
    """

    def __init__(self, lattice: SpaceLattice, agents: Iterable[str], *,
                 pi: Mapping[str, Mapping[StateRef, Iterable[StateRef]]] | None = None,
                 lambda_: Mapping[str, Mapping[StateRef, Iterable[StateRef]]] | None = None,
                 alpha: Mapping[str, Mapping[StateRef, Iterable[str]]] | None = None):
        if (pi is not None, lambda_ is not None, alpha is not None) not in _SHAPES:
            raise ModelFormatError("a lattice model takes pi, pi and lambda, "
                                   "or lambda_star and alpha")
        self.lattice = lattice
        self.agents = tuple(dict.fromkeys(agents))
        if not self.agents:
            raise ModelFormatError("model needs at least one agent")
        self.pi = self._pi_masks = self.lambda_ = self._lambda_masks = None
        self.alpha = self._alpha_masks = None
        if pi is not None:
            self.pi = _normalize_correspondence(lattice, self.agents, pi, "pi")
            self._pi_masks = _corr_masks(lattice, self.pi)
        if lambda_ is not None:
            name = "lambda" if alpha is None else "lambda_star"
            self.lambda_ = _normalize_correspondence(lattice, self.agents, lambda_, name)
            self._lambda_masks = _corr_masks(lattice, self.lambda_)
        if alpha is not None:
            self.alpha = _normalize_alpha(lattice, self.agents, alpha)
            self._alpha_masks = {
                agent: (None, None, [lattice._masks[table[ref]] for ref in lattice.states])
                for agent, table in self.alpha.items()}
        self._derived: LatticeModel | None = None
        self._op_cache: dict = {}
        self._ext_cache: dict = {}    # see semantics
        self._truth_cache: dict = {}  # see semantics
        self._reports: dict = {}      # see reports.memoised

    @property
    def family(self) -> str:
        """``unawareness``, ``complemented`` or ``implicit``, after the
        primitives present."""
        if self.alpha is not None:
            return "implicit"
        return "unawareness" if self.lambda_ is None else "complemented"

    @property
    def base(self) -> LatticeModel:
        """The model itself, for callers that read a complemented model's base."""
        return self

    @property
    def atoms(self) -> frozenset[str]:
        return self.lattice.atoms

    @property
    def states(self) -> tuple[StateRef, ...]:
        return self.lattice.states

    @property
    def valuation(self) -> dict[str, Event]:
        return self.lattice.valuation

    def derived(self) -> LatticeModel:
        """Of an implicit model: the complemented model over Λ and the Π
        derived from Λ and α (:func:`implicit.derive_pi_star`, cached)."""
        if self._derived is None:
            from . import implicit

            self._derived = implicit.derive_pi_star(self)
        return self._derived


def _normalize(lattice, agents, table, name, check):
    """Check a per-agent, per-state table for totality and unknown keys;
    ``check(agent, ref, value)`` checks one value, as a frozenset."""
    if set(table) != set(agents):
        raise ModelFormatError(f"{name} must cover exactly the agents {sorted(agents)}")
    out: dict[str, dict[StateRef, frozenset]] = {}
    for agent in agents:
        row = {}
        per_agent = table[agent]
        for ref in lattice.states:
            value = per_agent.get(ref)
            if value is None:
                raise ModelFormatError(f"{name}[{agent}] is undefined on state {ref}")
            row[ref] = value = frozenset(value)
            check(agent, ref, value)
        extra = set(per_agent) - set(row)
        if extra:
            ref = sorted(extra, key=state_order)[0]
            raise ModelFormatError(f"{name}[{agent}] keyed by unknown state {ref}")
        out[agent] = row
    return out


def _normalize_correspondence(lattice, agents, corr, name):
    """A correspondence: each image is a non-empty set of known states."""

    def check(agent, ref, image):
        if not image:
            raise ModelFormatError(f"{name}[{agent}] is empty at state {ref}")
        for target in image:
            if target not in lattice._index:
                raise ModelFormatError(f"{name}[{agent}] at {ref} references "
                                       f"unknown state {target}")

    return _normalize(lattice, agents, corr, name, check)


def _normalize_alpha(lattice, agents, alpha):
    """The awareness function: each level is a space of the lattice."""

    def check(agent, ref, level):
        if not lattice.has_space(level):
            raise ModelFormatError(f"alpha[{agent}] at {ref} names unknown space "
                                   f"{space_key(level)!r}")

    return _normalize(lattice, agents, alpha, "alpha", check)


def _corr_masks(lattice: SpaceLattice,
                corr: Mapping[str, Mapping[StateRef, frozenset[StateRef]]]
                ) -> dict[str, tuple[list[int], list[int], list[int]]]:
    """Per agent, three lists indexed by state: the image as a state mask,
    the up-closure of the image, and the space mask of the image (-1 when
    the image straddles spaces)."""
    index, space, up = lattice._index, lattice._space, lattice._up
    out = {}
    for agent, table in corr.items():
        images, image_ups, levels = [], [], []
        for ref in lattice.states:
            image = image_up = 0
            found = set()
            for target in table[ref]:
                j = index[target]
                image |= 1 << j
                image_up |= up[j]
                found.add(space[j])
            images.append(image)
            image_ups.append(image_up)
            levels.append(found.pop() if len(found) == 1 else -1)
        out[agent] = (images, image_ups, levels)
    return out


# -- spec operations ---------------------------------------------------------


def up_closure(model, event: Event) -> frozenset[StateRef]:
    """All states, in every space at least as expressive as the base space,
    that project into the base (the base itself included)."""
    return _lattice(model).up_closure(event)


def project_state(model, ref: StateRef, target: frozenset[str]) -> StateRef:
    return _lattice(model).project(ref, target)


def event_algebra(model, op: str, args: Sequence[Event]) -> Event:
    """Boolean operations on events.

    ``not`` complements the base inside its own space; ``and`` intersects
    after elaborating every argument to the join of their base spaces (so a
    vacuous result is tagged with that join); ``or`` is the De Morgan dual.
    """
    lat = _lattice(model)
    if op == "not":
        if len(args) != 1:
            raise ValueError("event 'not' takes exactly one argument")
        return lat.event_not(args[0])
    if op == "and":
        if not args:
            raise ValueError("event 'and' needs at least one argument")
        return lat.event_and(list(args))
    if op == "or":
        if not args:
            raise ValueError("event 'or' needs at least one argument")
        return lat.event_or(list(args))
    raise ValueError(f"unknown event operation {op!r}")


def _explicit(model: LatticeModel) -> LatticeModel:
    """The model whose Π a model's explicit knowledge reads: its own, or
    its derived model's when α is primitive."""
    return model if model.pi is not None else model.derived()


def pi_space(model: LatticeModel, agent: str, ref: StateRef) -> frozenset[str]:
    """The unique space containing the agent's possibility set at ``ref``.

    Raises :class:`StraddledPossibilitySet` when the image straddles spaces,
    rather than guessing one; Confinement makes this unambiguous on valid
    models.
    """
    try:
        image = _explicit(model).pi[agent][ref]
    except KeyError:
        raise UnknownAgent(f"no agent {agent!r}") from None
    found = {target.space for target in image}
    if len(found) != 1:
        raise StraddledPossibilitySet(
            f"possibility set of agent {agent} at {ref} spans {len(found)} spaces")
    return next(iter(found))


# The mask table of each primitive, by the primitive's name in model files.
_MASKS = {"pi": "_pi_masks", "lambda": "_lambda_masks", "alpha": "_alpha_masks"}


def require(model: LatticeModel, *primitives: str) -> None:
    """Raise :class:`ModelFormatError`, naming the model's family and the
    primitive, unless the model has each of ``primitives``."""
    for name in primitives:
        if getattr(model, _MASKS[name]) is None:
            raise ModelFormatError(f"the {model.family} model has no {name}")


def _lookup(model: LatticeModel, kind: str, primitive: str, agent: str, event: Event) -> Event:
    """The operator ``kind`` for one agent over a primitive's mask table,
    cached per model: ``"a"`` tests the row's levels
    (:meth:`SpaceLattice.aware`), ``"k"`` and ``"l"`` box over its images
    (:meth:`SpaceLattice.box`)."""
    key = (kind, agent, event)
    out = model._op_cache.get(key)
    if out is None:
        require(model, primitive)
        try:
            images, _, levels = getattr(model, _MASKS[primitive])[agent]
        except KeyError:
            raise UnknownAgent(f"no agent {agent!r}") from None
        lat = model.lattice
        lat.check_event(event)
        if kind == "a":
            for i in lat._span[lat._masks[event.base_space]]:
                if levels[i] < 0:
                    pi_space(model, agent, lat.states[i])
            out = lat.aware(levels, event)
        else:
            out = lat.box(images, event)
        model._op_cache[key] = out
    return out


def k_op(model: LatticeModel, agent: str, event: Event) -> Event:
    """Explicit knowledge of an event (requires a validated model)."""
    return _lookup(_explicit(model), "k", "pi", agent, event)


def l_op(model: LatticeModel, agent: str, event: Event) -> Event:
    """Implicit knowledge of an event."""
    return _lookup(model, "l", "lambda", agent, event)


def a_op(model: LatticeModel, agent: str, event: Event) -> Event:
    """Awareness of an event: the agent's level sits at or above the event's
    base space.  The level is α's when α is primitive, and otherwise the
    space of the possibility set."""
    return _lookup(model, "a", "pi" if model.alpha is None else "alpha", agent, event)


def u_op(model: LatticeModel, agent: str, event: Event) -> Event:
    """Unawareness: the complement of awareness."""
    return model.lattice.event_not(a_op(model, agent, event))


# -- validation ---------------------------------------------------------------


def _validate_lattice(lat: SpaceLattice, report: Report) -> None:
    states, proj, span, masks = lat.states, lat._proj, lat._span, lat._masks
    report.count(len(lat._cover))
    for parent, child in sorted(lat._cover, key=lambda pair: (space_key(pair[0]),
                                                              space_key(pair[1]))):
        target = masks[child]
        hit = {proj[i][target] for i in span[masks[parent]]}
        for j in span[target]:
            if j not in hit:
                report.add("projection-surjective", state=states[j],
                           source=space_key(parent), target=space_key(child))

    # Commuting covering squares pin down path independence of every
    # composite projection, which is the general composition law.
    for space in lat.spaces:
        mask = masks[space]
        for x, y in combinations(sorted(space), 2):
            via_x = mask & ~lat._atom_bit[x]
            via_y = mask & ~lat._atom_bit[y]
            meet = via_x & via_y
            report.count(len(span[mask]))
            for i in span[mask]:
                if proj[proj[i][via_x]][meet] != proj[proj[i][via_y]][meet]:
                    report.add("projection-composition", state=states[i],
                               space=space_key(space), dropped=f"{x},{y}")

    report.count(len(lat.atoms))
    for atom in sorted(lat.atoms):
        event = lat.valuation[atom]
        singleton = frozenset({atom})
        if event.base_space != singleton:
            report.add("valuation-base-space", atom=atom,
                       base_space=space_key(event.base_space), required=space_key(singleton))


@memoised
def validate_hms(model: LatticeModel) -> Report:
    """Check the lattice laws, the valuation convention, and every property
    required of the explicit possibility correspondences of a model with a
    primitive Π, reporting each violation with a witness."""
    require(model, "pi")
    report = Report()
    lat = model.lattice
    _validate_lattice(lat, report)
    states, index, spaces, proj, below, keys = (
        lat.states, lat._index, lat._space, lat._proj, lat._below, lat._keys)

    checked = 0
    for agent in model.agents:
        pi = model.pi[agent]
        images, image_ups, levels = model._pi_masks[agent]
        projections: dict[int, list[int]] = {}  # image mask -> its projections
        checked += 2 * len(states)  # both confinement laws, the second when the first holds
        for i, ref in enumerate(states):
            if levels[i] < 0:
                checked -= 1
                found = {target.space for target in pi[ref]}
                report.add("confinement-single-space", agent, state=ref,
                           spaces=";".join(sorted(space_key(s) for s in found)))
                continue
            if levels[i] & ~spaces[i]:
                report.add("confinement-expressible", agent, state=ref,
                           image_space=keys[levels[i]])

        for i, ref in enumerate(states):
            image = pi[ref]
            mine, mine_up, space = images[i], image_ups[i], spaces[i]
            # reflexivity, stationarity per target, ignorance per lower space
            checked += len(image) + len(below[space])
            if not mine_up >> i & 1:
                report.add("generalized-reflexivity", agent, state=ref,
                           image=";".join(str(t) for t in sorted(image, key=state_order)))
            for target in image:
                if images[index[target]] != mine:
                    report.add("stationarity", agent, state=ref, reached=target)

            row = proj[i]
            for target_space in below[space][:-1]:
                if mine_up & ~image_ups[row[target_space]]:
                    report.add("projections-preserve-ignorance", agent,
                               state=ref, below=keys[target_space])

            level = levels[i]
            if level < 0 or level & ~space:
                continue
            projected = projections.get(mine)
            if projected is None:
                projected = projections[mine] = lat._projections(mine, level)
            checked += len(below[level])
            for target_space in below[level]:
                if projected[target_space] != images[row[target_space]]:
                    report.add("projections-preserve-knowledge", agent,
                               state=ref, below=keys[target_space])
    report.count(checked)
    return report


# -- property suites -------------------------------------------------------------

# The event basis is built from the valuation events, their negations, and
# pairwise conjunctions, truncated to MAX_BASIS events; the conjunction laws
# run over subsets of the basis up to MAX_FAMILY_SIZE members, at most
# MAX_FAMILIES families.
MAX_BASIS = 12
MAX_FAMILY_SIZE = 3
MAX_FAMILIES = 400


def event_basis(model) -> list[Event]:
    lat = _lattice(model)
    seeds = [lat.valuation[atom] for atom in sorted(lat.atoms)]
    basis: list[Event] = []
    seen: set[Event] = set()

    def push(event: Event) -> None:
        if event not in seen and len(basis) < MAX_BASIS:
            seen.add(event)
            basis.append(event)

    for event in seeds:
        push(event)
    for event in seeds:
        push(lat.event_not(event))
    pool = list(basis)
    for left, right in combinations(pool, 2):
        push(lat.event_and([left, right]))
    return basis


class EventFamily(tuple):
    """A family of events for the conjunction laws.  Its text, the events
    joined by ``;``, is the ``family`` witness of a failed check; it is only
    built when a report adds the violation."""

    __slots__ = ()

    def __str__(self) -> str:
        return ";".join(str(e) for e in self)


def event_families(basis: Sequence[Event]) -> list[EventFamily]:
    families: list[EventFamily] = []
    for size in range(1, MAX_FAMILY_SIZE + 1):
        for combo in combinations(basis, size):
            families.append(EventFamily(combo))
            if len(families) >= MAX_FAMILIES:
                return families
    return families


class _Suite:
    """What the explicit and implicit property suites share.

    Construction checks the preconditions, each a validator and the message
    of the :class:`PreconditionFailed` raised when the model fails it, and
    builds the event basis and its families.  Each check counts once and
    adds a violation, with the agent and the witness, when it fails."""

    def __init__(self, model: LatticeModel, preconditions):
        for validate, message in preconditions:
            pre = validate(model)
            if not pre.ok:
                raise PreconditionFailed(message, pre)
        self.model = model
        self.lat = model.lattice
        self.report = Report()
        self.basis = event_basis(model)
        self.families = event_families(self.basis)

    def check(self, law: str, agent: str, left: Event, right: Event, **extra) -> None:
        self.report.count()
        if left != right:
            self.report.add(law, agent, left=left, right=right, **extra)

    def check_subset(self, law: str, agent: str, left: Event, right: Event, **extra) -> None:
        self.report.count()
        if not self.lat.event_subset(left, right):
            self.report.add(law, agent, left=left, right=right, **extra)

    def check_raw(self, law: str, agent: str, event: Event, result: Event, whole: int) -> None:
        """An operator's ``result`` on ``event`` against its raw definition:
        ``whole`` is every state, in every space, that the definition puts
        in the up-closure of the result."""
        self.report.count()
        if self.lat._upc(result) != whole:
            self.report.add(law, agent, event=event, result=result)

    def boxed(self, images: list[int], event: Event) -> int:
        """The raw definition of knowledge: every state whose image lies in
        the event's up-closure."""
        outside = ~self.lat._upc(event)
        return sum(1 << i for i, image in enumerate(images) if not image & outside)

    def conjunctions(self, agent: str, laws) -> None:
        """Per family, and per (law, operator) in ``laws``: the operator of
        the family's conjunction is the conjunction of the operator."""
        lat, model = self.lat, self.model
        for family in self.families:
            joined = lat.event_and(family)
            for law, op in laws:
                self.check(law, agent, op(model, agent, joined),
                           lat.event_and([op(model, agent, e) for e in family]), family=family)

    def monotonicity(self, law: str, agent: str, op) -> None:
        lat, model = self.lat, self.model
        for left in self.basis:
            for right in self.basis:
                if lat.event_subset(left, right):
                    self.check_subset(law, agent, op(model, agent, left),
                                      op(model, agent, right), smaller=left, larger=right)


def _strong_plausibility_limit(model, agent: str, event: Event) -> Event:
    """Stabilized intersection of iterating not-know; finite models cycle."""
    lat = model.lattice
    seen: set[Event] = set()
    current = lat.event_not(k_op(model, agent, event))
    acc = current
    while current not in seen:
        seen.add(current)
        acc = lat.event_and([acc, current])
        current = lat.event_not(k_op(model, agent, current))
    return acc


def explicit_property_suite(model: LatticeModel) -> Report:
    """Exhaustively check every law of explicit knowledge and awareness over
    the generated event basis; raises :class:`PreconditionFailed` when the
    model itself does not validate."""
    suite = _Suite(model, [(validate_hms, "explicit property suite needs a valid model")])
    lat, report = suite.lat, suite.report
    check, check_subset = suite.check, suite.check_subset
    omega = lat.omega()

    for agent in model.agents:
        images, _, levels = model._pi_masks[agent]
        for event in suite.basis:
            known = k_op(model, agent, event)
            aware = a_op(model, agent, event)

            # Knowledge and awareness of any event are events based at the
            # argument's own base space; compare against the raw definitions.
            suite.check_raw("knowledge-based-event", agent, event, known,
                            suite.boxed(images, event))
            need = lat._masks[event.base_space]
            suite.check_raw("awareness-based-event", agent, event, aware,
                            sum(1 << i for i, level in enumerate(levels)
                                if level >= 0 and not need & ~level))

            check_subset("knowledge-truth", agent, known, event, event=event)
            check_subset("knowledge-positive-introspection", agent,
                         known, k_op(model, agent, known), event=event)

            not_k = lat.event_not(known)
            check_subset(
                "weak-negative-introspection-1", agent,
                lat.event_and([not_k, lat.event_not(k_op(model, agent, not_k))]),
                lat.event_not(k_op(model, agent,
                                   lat.event_not(k_op(model, agent, not_k)))),
                event=event)

            unaware = u_op(model, agent, event)
            check("ku-introspection", agent, k_op(model, agent, unaware),
                  Event(event.base_space, frozenset()), event=event)
            check("au-introspection", agent, unaware, u_op(model, agent, unaware),
                  event=event)
            check("weak-necessitation", agent, aware,
                  k_op(model, agent, lat.space_up(event.base_space)), event=event)
            check("plausibility", agent, aware,
                  lat.event_or([known, k_op(model, agent, not_k)]), event=event)
            check("strong-plausibility", agent, unaware,
                  _strong_plausibility_limit(model, agent, event), event=event)
            check("weak-negative-introspection-2", agent,
                  lat.event_and([not_k, a_op(model, agent, not_k)]),
                  k_op(model, agent, not_k), event=event)
            check("awareness-symmetry", agent, aware,
                  a_op(model, agent, lat.event_not(event)), event=event)
            check("ak-self-reflection", agent, aware, a_op(model, agent, known), event=event)
            check("aa-self-reflection", agent, aware, a_op(model, agent, aware), event=event)
            check("a-introspection", agent, aware, k_op(model, agent, aware), event=event)

        check("knowledge-necessitation", agent, k_op(model, agent, omega), omega)
        suite.conjunctions(agent, (("knowledge-conjunction", k_op),
                                   ("awareness-conjunction", a_op)))
        suite.monotonicity("knowledge-monotonicity", agent, k_op)

        # Possibility sets agree across every comparable space between the
        # image's space and the state's own space.
        # The model validated, so every image lies in one space below the state's.
        for i, ref in enumerate(lat.states):
            level, row = levels[i], lat._proj[i]
            extras = lat._below[lat._space[i] & ~level]
            report.count(len(extras))
            for extra_atoms in extras:
                middle = level | extra_atoms
                if images[row[middle]] != images[i]:
                    report.add("possibility-agrees-across-spaces", agent,
                               state=ref, middle=lat._keys[middle])
    return report
