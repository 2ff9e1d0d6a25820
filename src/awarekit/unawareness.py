"""Lattice models (CLI model kinds ``hms`` and ``implicit-hms``).

A :class:`SpaceLattice` carries one disjoint state space per subset of its
atom universe, linked by surjective commuting projections; all semantic
content is expressed through *events*: up-closed sets determined by a base
set inside a base space.  An :class:`Event` is held as two masks, the base
space as a space mask and the up-closure as a state mask, so the event
algebra, the operators and the property suites run on ints; the base space,
the base and the witness text ``<space key>:[<state ids>]`` are derived on
demand.  A :class:`LatticeModel` gives the lattice knowledge through
per-agent primitives: the explicit possibility correspondence Π, the
implicit one Λ, and the awareness function α, in one of three shapes (Π; Π
and Λ; Λ and α), each as one :class:`_Row` per agent: lists indexed by
state, a correspondence's image masks and their levels, α's levels.  The
row carries the two operators, whatever the shape: knowledge, the box of a
correspondence (:meth:`_Row.know`: ``k_op`` over Π, ``l_op`` over Λ), and
awareness, a test of levels (:meth:`_Row.aware`: ``a_op``); it memoizes
them per event, so models that share a row share the results.  The
validators walk the rows in state-index order, so their witnesses come out
in one order whatever the hash seed.  The ``StateRef``-keyed dicts ``pi``,
``lambda_`` and ``alpha`` are views, decoded from the rows on first read.
:mod:`~awarekit.modelio` checks a model file's rows and builds them.

The atom universe is finite and capped (default 6, override with the
``AWAREKIT_MAX_ATOMS`` environment variable) because the full powerset of
spaces is materialized eagerly and validation is exhaustive.  What a
lattice's tables hold that depends on its atoms alone (the spaces, their
masks and keys, the spaces below each, the covering pairs, the layout
order) is built once per atom set and shared (:class:`_Skeleton`).  The
projection table is built at construction only where the covering maps are
not all the identity on ids shared by every space; an *aligned* lattice
projects by index arithmetic and tabulates it when something first reads
it.

Lattices, models and rows are immutable: nothing may change them after
construction.  Their index tables and operator memos are built on that
promise, and so is validation, which runs once per object it reads: the
lattice laws once per lattice, Λ's laws once per agent row, and the rest
once per model (:func:`reports.memoised`); later calls return copies of
the first report.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain, combinations, islice
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

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

    def __str__(self) -> str:  # the state's token in model files
        return f"{space_key(self.space)}:{self.id}"


def parse_state_token(token: str) -> StateRef:
    if ":" not in token:
        raise ModelFormatError(f"state token {token!r} is not of the form 'spaceKey:stateId'")
    key, _, state_id = token.partition(":")
    if not state_id:
        raise ModelFormatError(f"state token {token!r} has an empty state id")
    return StateRef(parse_space_key(key), state_id)


def _indices(mask: int) -> list[int]:
    """The indices of the set bits of a mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _walk(mask: int) -> list[int]:
    """The states of a mask at which a validator runs its laws one state at
    a time, in index order: :func:`_indices`, under its own name so that
    the states a validator walks can be counted."""
    return _indices(mask)


def _refs(states: Sequence[StateRef], mask: int) -> list[StateRef]:
    """The states of a state mask, in index order."""
    return [states[i] for i in _indices(mask)]


class _Names:
    """What an event needs to name itself: a lattice's states and, per space
    mask, the space, its key and the state mask of its states.  It holds no
    reference back to the lattice, so events form no cycle with it."""

    __slots__ = ("states", "spaces", "keys", "span_bits")

    def __init__(self, states, spaces, keys, span_bits):
        self.states, self.spaces, self.keys, self.span_bits = states, spaces, keys, span_bits


class Event(NamedTuple):
    """The event ``base↑`` as two masks: ``space``, the base space as a space
    mask, and ``up``, the up-closure of the base as a state mask.

    Two events of a lattice are equal iff both masks agree, so each space
    carries its own vacuous event (empty base): contradictions differ by the
    vocabulary needed to state them.  ``names`` is the lattice's name table,
    compared by identity, so events of different lattices are never equal.
    Build events with :meth:`SpaceLattice.event`.
    """

    space: int
    up: int
    names: _Names

    @property
    def base_space(self) -> frozenset[str]:
        return self.names.spaces[self.space]

    @property
    def base(self) -> frozenset[StateRef]:
        names = self.names
        return frozenset(_refs(names.states, self.up & names.span_bits[self.space]))

    def __str__(self) -> str:
        ids = ",".join(sorted(ref.id for ref in self.base))
        return f"{self.names.keys[self.space]}:[{ids}]"

    def __repr__(self) -> str:
        return f"Event({str(self)!r})"


class _Skeleton(NamedTuple):
    """The tables of a lattice that depend on its sorted atoms alone, built
    once per atom set by :func:`_skeleton` and shared by every lattice over
    it.  A space is a bitmask over the sorted atoms (bit k for the k-th), so
    the highest set bit of a mask is its greatest atom.  Per space mask:
    ``spaces``, its set of atoms; ``keys``, its key; ``below``, the masks
    of the spaces inside it, in :func:`subsets` order; ``children``, its
    covering children, the masks with one atom dropped, in increasing order
    of the dropped atom.  ``masks`` maps each space to its mask in
    :func:`subsets` order; ``key_masks`` and ``key_spaces`` resolve a
    canonical key; ``edges`` are the covering pairs as (parent, child)
    masks, parents in :func:`subsets` order, dropped atoms sorted;
    ``layout`` is the order of the spaces' states, larger spaces first,
    then by key."""

    atom_bit: dict[str, int]
    masks: dict[frozenset[str], int]
    spaces: list[frozenset[str]]
    keys: list[str]
    key_masks: dict[str, int]
    key_spaces: dict[str, frozenset[str]]
    below: list[list[int]]
    children: list[list[int]]
    edges: list[tuple[int, int]]
    layout: list[int]


@lru_cache(maxsize=64)
def _skeleton(atoms: tuple[str, ...]) -> _Skeleton:
    """The skeleton of the lattices over ``atoms``, which must be sorted
    and within :func:`max_atoms`; a lattice checks the cap first."""
    atom_bit = {atom: 1 << k for k, atom in enumerate(atoms)}
    masks = {space: sum(atom_bit[atom] for atom in space)
             for space in subsets(frozenset(atoms))}
    n_masks = 1 << len(atoms)
    spaces: list[frozenset[str]] = [frozenset()] * n_masks
    keys = [""] * n_masks
    for space, mask in masks.items():
        spaces[mask], keys[mask] = space, space_key(space)
    order = list(masks.values())
    children = [[mask ^ 1 << k for k in _indices(mask)] for mask in range(n_masks)]
    return _Skeleton(
        atom_bit, masks, spaces, keys,
        key_masks={key: mask for mask, key in enumerate(keys)},
        key_spaces=dict(zip(keys, spaces)),
        below=[[sub for sub in order if not sub & ~mask] for mask in range(n_masks)],
        children=children,
        edges=[(mask, child) for mask in order for child in children[mask]],
        layout=sorted(order, key=lambda mask: (-len(spaces[mask]), keys[mask])))


class SpaceLattice:
    """The lattice every lattice-based model is built on: spaces, projections, valuation.

    It is given as a file gives it: each space's state ids, a map of ids per
    covering pair (drop one atom), and each atom's base space and base ids.
    Construction fails on structural unreadability only, checking the
    spaces, then the covering maps (parents in :func:`subsets` order,
    dropped atoms sorted; each total on its parent's ids and defined on
    nothing else), then that every given map is of a covering pair, then
    the valuation (base ids known, each listed once), so the first failure
    does not depend on the hash seed.
    The composition law is a validator concern, not assumed here.

    The lattice is held as dense index tables.  State ``i`` is
    ``states[i]``, laid out space by space, larger spaces first, ids
    sorted; a space is a bitmask over the sorted atoms; a set of states is a
    bitmask over state indices, held in a Python int.  What depends on the
    atoms alone (the spaces' masks, keys, the spaces below each, the
    covering pairs and the layout order) is a :class:`_Skeleton`, built once
    per atom set and shared.  Each state has a projection list indexed by
    target-space mask, ``_proj``, the only store of projections: it
    follows the covering maps along the canonical chain (drop atoms in
    greatest-first order).  Each state also has an up-closure mask, and
    each space a map from its ids to state indices, the index range of its
    states, their mask, and the mask of every state at or above it.

    The lattice is *aligned* when every space holds the same ids and every
    covering map is the identity on them, as in every unminimized transform
    output.  Then state ``k`` of a space projects to state ``k`` of every
    space below: state ``i`` of space ``S`` projects into ``T`` at
    ``_start[T] + i - _start[S]``, which the validators and the suites
    read; a space's part of a state mask projects with one shift
    (:meth:`_project_mask`) and up-closes with one multiply
    (:meth:`_close`).  So an aligned lattice tabulates ``_proj`` on its
    first read only, and a lattice that is not aligned tabulates it at
    construction, where its covering maps are checked, and walks masks bit
    by bit.
    """

    def __init__(
        self,
        atoms: Iterable[str],
        spaces: Mapping[frozenset[str], Sequence[str]],
        projections: Mapping[tuple[frozenset[str], frozenset[str]], Mapping[str, str]],
        valuation: Mapping[str, tuple[frozenset[str], Iterable[str]]],
    ):
        self.atoms = frozenset(atoms)
        cap = max_atoms()
        if len(self.atoms) > cap:
            raise ModelFormatError(
                f"{len(self.atoms)} atoms exceed the cap of {cap} "
                f"(override with {MAX_ATOMS_ENV})")
        sk = self._skeleton = _skeleton(tuple(sorted(self.atoms)))
        self._atom_bit, self._masks, self._keys = sk.atom_bit, sk.masks, sk.keys
        self._below, self._children, self._key_masks = sk.below, sk.children, sk.key_masks
        by_mask = sk.spaces

        self.spaces: dict[frozenset[str], tuple[StateRef, ...]] = {}
        shared: list[str] | None = None  # the ids of every space, while they agree
        for space, mask in sk.masks.items():
            ids = spaces.get(space)
            if ids is None:
                raise ModelFormatError(f"missing space {sk.keys[mask]!r}")
            if not ids:
                raise ModelFormatError(f"space {sk.keys[mask]!r} is empty")
            if len(set(ids)) != len(ids):
                raise ModelFormatError(f"duplicate state ids in space {sk.keys[mask]!r}")
            if "" in ids:
                raise ModelFormatError(f"empty state id in space {sk.keys[mask]!r}")
            ordered = sorted(ids)
            if not space:
                shared = ordered
            elif shared is not None and ordered != shared:
                shared = None
            self.spaces[space] = tuple(StateRef(space, i) for i in ordered)
        # Every space of the universe was found, so more spaces means others.
        if len(spaces) > len(self.spaces):
            extra = set(spaces) - set(self.spaces)
            key = space_key(sorted(extra, key=space_key)[0])
            raise ModelFormatError(f"space {key!r} is not a subset of the atom universe")

        n_masks = len(by_mask)
        self._span: list[range] = [range(0)] * n_masks
        self._ids: list[dict[str, int]] = [{}] * n_masks
        self._space: list[int] = []  # the space mask of each state
        span_bits = [0] * n_masks
        states: list[StateRef] = []
        for mask in sk.layout:
            refs, start = self.spaces[by_mask[mask]], len(states)
            self._span[mask] = range(start, start + len(refs))
            self._ids[mask] = {ref.id: i for i, ref in enumerate(refs, start)}
            span_bits[mask] = ((1 << len(refs)) - 1) << start
            self._space += [mask] * len(refs)
            states.extend(refs)
        self.states: tuple[StateRef, ...] = tuple(states)
        self._start = [span.start for span in self._span]
        self._names = _Names(self.states, by_mask, self._keys, span_bits)
        # The states at or above each space: every state projects into it.
        self._upspace: list[int] = [0] * n_masks
        for mask in range(n_masks):
            for target in self._below[mask]:
                self._upspace[target] |= span_bits[mask]

        # Aligned while every covering map so far is the identity on the
        # shared ids; the first map that is not starts the table over.
        identity = None if shared is None else dict(zip(shared, shared))
        self._aligned = identity is not None
        for parent, child in sk.edges:
            raw = projections.get((by_mask[parent], by_mask[child]))
            if raw is None:
                raise ModelFormatError(f"missing projection {self._pair(parent, child)}")
            if raw != identity:
                self._aligned = False
                self._proj = self._tabulate(projections)
                break
        # Every covering pair has its map, so more maps means other keys.
        if len(projections) > len(sk.edges):
            covering = {(by_mask[parent], by_mask[child]) for parent, child in sk.edges}
            extra_pair = min((space_key(parent), space_key(child))
                             for parent, child in projections.keys() - covering)
            raise ModelFormatError("projection {!r} -> {!r} is not a covering pair"
                                   .format(*extra_pair))

        if set(valuation) != self.atoms:
            missing = self.atoms - set(valuation)
            extra_atoms = set(valuation) - self.atoms
            bad = sorted(missing | extra_atoms)
            raise ModelFormatError(f"valuation must be total on the atom universe; "
                                   f"mismatched atoms: {bad}")

        # Aligned, the up-closure of state k of a space is state k of every
        # space at or above it: ``_comb`` has a bit at the first state of each.
        self._comb: list[int] = []
        if self._aligned:
            firsts = sum(1 << start for start in self._start)
            self._comb = [up & firsts for up in self._upspace]
            comb, start = self._comb, self._start
            self._up = [comb[space] << i - start[space] for i, space in enumerate(self._space)]
        else:
            self._up = [0] * len(self.states)
            for i, row in enumerate(self._proj):
                bit = 1 << i
                for target in self._below[self._space[i]]:
                    self._up[row[target]] |= bit

        self._omega = Event(0, self._upspace[0], self._names)
        self._reports: dict = {}  # see reports.memoised
        self._incoherent: int | None = None  # see _incoherent
        self.valuation: dict[str, Event] = {}
        for atom, (space, ids) in valuation.items():
            mask = self._masks.get(space)
            if mask is None:
                raise ModelFormatError(f"valuation of {atom!r} uses unknown space "
                                       f"{space_key(space)!r}")
            up = 0
            for state_id in ids:
                i = self._ids[mask].get(state_id)
                if i is None:
                    raise ModelFormatError(f"valuation of {atom!r} references unknown state "
                                           f"{space_key(space)}:{state_id}")
                if up >> i & 1:
                    raise ModelFormatError(f"valuation of {atom!r} repeats state "
                                           f"{space_key(space)}:{state_id}")
                up |= self._up[i]
            self.valuation[atom] = Event(mask, up, self._names)

    def _pair(self, parent: int, child: int) -> str:
        """A covering pair as error messages name it."""
        return f"{self._keys[parent]!r} -> {self._keys[child]!r}"

    def _tabulate(self, projections) -> list[list[int]]:
        """The projection table from the given covering maps, each checked
        in :attr:`_Skeleton.edges` order.  Composite projections run along
        the canonical chain; path independence is exactly the composition
        law checked by the validator.  Entries for targets that are not
        below the state's space stay -1."""
        states, span, by_mask = self.states, self._span, self._skeleton.spaces
        table = [[-1] * len(by_mask) for _ in states]
        for parent, child in self._skeleton.edges:
            raw = projections.get((by_mask[parent], by_mask[child]))
            if raw is None:
                raise ModelFormatError(f"missing projection {self._pair(parent, child)}")
            ids = self._ids[child]
            for i in span[parent]:
                state_id = states[i].id
                image = raw.get(state_id)
                if image is None:
                    raise ModelFormatError(f"projection {self._pair(parent, child)} is "
                                           f"undefined on state {state_id!r}")
                if image not in ids:
                    raise ModelFormatError(f"projection {self._pair(parent, child)} maps "
                                           f"{state_id!r} to unknown state {image!r}")
                table[i][child] = ids[image]
            # The map is total on the parent's ids, so a longer map has others.
            if len(raw) > len(span[parent]):
                extra_id = min(raw.keys() - self._ids[parent].keys())
                raise ModelFormatError(f"projection {self._pair(parent, child)} is defined "
                                       f"on unknown state {extra_id!r}")
        # States of smaller spaces come later in ``states``, so walking it
        # backwards completes every row a composite projection reads.
        for i in reversed(range(len(states))):
            mask = self._space[i]
            row = table[i]
            row[mask] = i
            for target in self._below[mask]:
                if row[target] < 0:
                    drop = 1 << ((mask & ~target).bit_length() - 1)
                    row[target] = table[row[mask ^ drop]][target]
        return table

    @cached_property
    def _proj(self) -> list[list[int]]:
        """The projection table of an aligned lattice, tabulated on first
        read: state ``i`` of space ``S`` projects into each ``T`` below at
        ``_start[T] + i - _start[S]``.  A lattice that is not aligned sets
        its table at construction."""
        start, below, n_masks = self._start, self._below, len(self._keys)
        table = []
        for i, space in enumerate(self._space):
            row = [-1] * n_masks
            at = i - start[space]
            for target in below[space]:
                row[target] = start[target] + at
            table.append(row)
        return table

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

    # -- the dense index ----------------------------------------------------

    def _edges(self) -> list[tuple[int, int]]:
        """The covering pairs as (parent, child) space masks: parents in
        :func:`subsets` order, dropped atoms sorted."""
        return self._skeleton.edges

    @cached_property
    def _n_below(self) -> int:
        """The number of (state, space at or below the state's) pairs."""
        return sum(len(span) * len(below) for span, below in zip(self._span, self._below))

    def _find(self, ref: StateRef) -> int | None:
        """The index of a state, None when the lattice has no such state."""
        mask = self._masks.get(ref.space)
        return None if mask is None else self._ids[mask].get(ref.id)

    def _state_index(self, ref: StateRef) -> int:
        i = self._find(ref)
        if i is None:
            raise UnknownState(f"no state {ref}")
        return i

    @cached_property
    def _tokens(self) -> list[str]:
        """The canonical token of each state, by index."""
        keys, space = self._keys, self._space
        return [f"{keys[space[i]]}:{ref.id}" for i, ref in enumerate(self.states)]

    @cached_property
    def _token_index(self) -> dict[str, int]:
        """Each state's index, keyed by its canonical token."""
        return dict(zip(self._tokens, range(len(self.states))))

    def _level(self, image: int) -> int:
        """The space mask of a non-empty state mask, -1 when it straddles spaces."""
        space = self._space[(image & -image).bit_length() - 1]
        return -1 if image & ~self._names.span_bits[space] else space

    def _project_mask(self, mask: int, target: int) -> int:
        """The projection of a state mask into the space ``target``, which
        must lie below the space of every state in the mask.  Aligned, each
        space's part of the mask shifts onto ``target``'s states."""
        out = 0
        if self._aligned:
            space, span_bits, start = self._space, self._names.span_bits, self._start
            at = start[target]
            while mask:
                source = space[(mask & -mask).bit_length() - 1]
                part = mask & span_bits[source]
                out |= part << at - start[source]
                mask ^= part
            return out
        proj = self._proj
        while mask:
            low = mask & -mask
            out |= 1 << proj[low.bit_length() - 1][target]
            mask ^= low
        return out

    def _close(self, mask: int) -> int:
        """The union of the up-closures of the states of a state mask.
        Aligned, each space's part of the mask, shifted to bit 0, is copied
        to every space at or above it by one multiply: the copies are one
        space's width apart, so they do not overlap."""
        out = 0
        if self._aligned:
            space, span_bits, start, comb = (
                self._space, self._names.span_bits, self._start, self._comb)
            while mask:
                source = space[(mask & -mask).bit_length() - 1]
                part = mask & span_bits[source]
                out |= (part >> start[source]) * comb[source]
                mask ^= part
            return out
        up = self._up
        while mask:
            low = mask & -mask
            out |= up[low.bit_length() - 1]
            mask ^= low
        return out

    def _space_mask(self, space: frozenset[str]) -> int:
        mask = self._masks.get(space)
        if mask is None:
            raise UnknownSpace(f"no space {space_key(space)!r}")
        return mask

    def _upc(self, event: Event) -> int:
        """The up-closure of an event, which must be one of this lattice's."""
        if event.names is not self._names:
            raise UnknownState(f"event {event} belongs to another lattice")
        return event.up

    # -- projections and up-closures --------------------------------------

    def project(self, ref: StateRef, target: frozenset[str]) -> StateRef:
        i = self._state_index(ref)
        if not target <= ref.space:
            raise NotComparable(
                f"space {space_key(target)!r} is not below {space_key(ref.space)!r}")
        return self.states[self._proj[i][self._masks[target]]]

    def up_closure(self, event: Event) -> frozenset[StateRef]:
        """All states, in every space at least as expressive as the base
        space, that project into the base (the base itself included)."""
        return frozenset(_refs(self.states, self._upc(event)))

    # -- events ------------------------------------------------------------

    def event(self, space: frozenset[str], refs: Iterable[StateRef] = ()) -> Event:
        """The event with base ``refs`` inside ``space``."""
        mask = self._space_mask(space)
        up = 0
        for ref in refs:
            if ref.space != space:
                raise ModelFormatError(f"event base state {ref} lies outside base space "
                                       f"{space_key(space)!r}")
            up |= self._up[self._state_index(ref)]
        return Event(mask, up, self._names)

    def omega(self) -> Event:
        """The sure event: full base in the meet space; its up-closure is all states."""
        return self._omega

    def space_up(self, space: frozenset[str]) -> Event:
        mask = self._space_mask(space)
        return Event(mask, self._upspace[mask], self._names)

    def event_not(self, event: Event) -> Event:
        """The rest of the base space: every state at or above it projects
        into it, and those outside the event project outside the base."""
        return Event(event.space, self._upspace[event.space] & ~self._upc(event), self._names)

    def event_and(self, events: Sequence[Event]) -> Event:
        """Elaborate every event to the join of their base spaces: a state of
        the join lies in an event's up-closure exactly when its projection
        to the event's base space lies in the base."""
        join, base = 0, -1
        for event in events:
            base &= self._upc(event)
            join |= event.space
        if not events:
            return self._omega
        return Event(join, self._close(base & self._names.span_bits[join]), self._names)

    def event_or(self, events: Sequence[Event]) -> Event:
        return self.event_not(self.event_and([self.event_not(e) for e in events]))

    def event_subset(self, left: Event, right: Event) -> bool:
        return not self._upc(left) & ~self._upc(right)

    # -- the operators' kernels (see _Row) ------------------------------------

    def _box(self, images: list[int], space: int, outside: int) -> int:
        """The base of knowledge at ``space`` (:meth:`_Row.know`), as a state
        mask: the states of the space whose image misses the state mask
        ``outside``."""
        out = 0
        for i in self._span[space]:
            if not images[i] & outside:
                out |= 1 << i
        return out

    def _aware(self, levels: list[int], space: int) -> int:
        """The base of awareness at ``space`` (:meth:`_Row.aware`), as a state
        mask: the states of the space whose level sits at or above it."""
        out = 0
        for i in self._span[space]:
            if not space & ~levels[i]:
                out |= 1 << i
        return out

    # -- the property suites' events, built once per lattice ---------------

    @cached_property
    def _basis(self) -> tuple[Event, ...]:
        """The event basis of the property suites (:func:`event_basis`)."""
        return _build_basis(self)

    @cached_property
    def _families(self) -> _Families:
        """The conjunction laws' families of the basis, with their members
        as basis indices and each family's joined event."""
        return _build_families(self)


# The primitives a lattice model may be given: Π alone, Π and Λ, or Λ and α.
_SHAPES = ((True, False, False), (True, True, False), (False, True, True))


class LatticeModel:
    """A space lattice plus per-agent knowledge primitives, in one of three
    shapes: ``pi`` alone (an unawareness model), ``pi`` and ``lambda_`` (a
    complemented model), or ``lambda_`` and ``alpha`` (an implicit
    knowledge-based model, whose Π is derived: :meth:`derived`).  Any other
    shape is a :class:`ModelFormatError`.

    Each primitive is given as its rows, a :class:`_Row` per agent, built
    by :mod:`~awarekit.modelio` from a file or by a derivation or transform
    from other rows.  The rows are the only stored form, held in ``_pi``,
    ``_lambda`` and ``_alpha`` (None when absent), and are shared with what
    they cache; :attr:`family` is read off the ones present.  ``pi``,
    ``lambda_`` and ``alpha`` are ``StateRef``-keyed views of the rows.
    """

    def __init__(self, lattice: SpaceLattice, agents: Iterable[str], *,
                 pi: dict[str, _Row] | None = None, lambda_: dict[str, _Row] | None = None,
                 alpha: dict[str, _Row] | None = None):
        if (pi is not None, lambda_ is not None, alpha is not None) not in _SHAPES:
            raise ModelFormatError("a lattice model takes pi, pi and lambda, "
                                   "or lambda_star and alpha")
        self.lattice = lattice
        self.agents = tuple(agents)
        self._pi, self._lambda, self._alpha = pi, lambda_, alpha
        self._derived: LatticeModel | None = None
        self._ext_cache: dict = {}  # see semantics
        self._reports: dict = {}    # see reports.memoised

    @cached_property
    def pi(self) -> dict[str, dict[StateRef, frozenset[StateRef]]] | None:
        return _decode_correspondence(self.lattice, self._pi)

    @cached_property
    def lambda_(self) -> dict[str, dict[StateRef, frozenset[StateRef]]] | None:
        return _decode_correspondence(self.lattice, self._lambda)

    @cached_property
    def alpha(self) -> dict[str, dict[StateRef, frozenset[str]]] | None:
        if self._alpha is None:
            return None
        states, spaces = self.lattice.states, self.lattice._names.spaces
        return {agent: {ref: spaces[level] for ref, level in zip(states, row.levels)}
                for agent, row in self._alpha.items()}

    @property
    def family(self) -> str:
        """``unawareness``, ``complemented`` or ``implicit``, after the
        primitives present."""
        if self._alpha is not None:
            return "implicit"
        return "unawareness" if self._lambda is None else "complemented"

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


def _decode_correspondence(lattice: SpaceLattice, rows):
    if rows is None:
        return None
    states = lattice.states
    return {agent: {ref: frozenset(_refs(states, image)) for ref, image in zip(states, row.images)}
            for agent, row in rows.items()}


def _holders(values: Sequence[int]) -> dict[int, int]:
    """Each distinct value of a per-state list, mapped to the state mask of
    the states that hold it."""
    out: dict[int, int] = {}
    for i, value in enumerate(values):
        out[value] = out.get(value, 0) | 1 << i
    return out


class _Row:
    """One agent's row of one primitive of a lattice model, lists indexed by
    state: for a correspondence (Π or Λ), ``images``, each state's image as
    a state mask, and ``levels``, the space mask of the image (-1 when it
    straddles spaces); for α, no images (None) and the levels.

    A row is immutable, and the only thing that caches facts about itself:
    :attr:`holders`, each operator's result per event, and Λ's report
    (:func:`implicit._lambda_report`), which models that share the row
    share."""

    def __init__(self, lattice: SpaceLattice, agent: str, images: list[int] | None,
                 levels: list[int]):
        self.lattice, self.agent, self.images, self.levels = lattice, agent, images, levels
        self._know_memo: dict[Event, Event] = {}
        self._aware_memo: dict[Event, Event] = {}
        self._reports: dict = {}  # see reports.memoised

    @cached_property
    def holders(self) -> dict[int, int]:
        """:func:`_holders` of the images, built once for every validator
        that reads them."""
        return _holders(self.images)

    def level(self, i: int) -> int:
        """The level at state ``i``.  Raises :class:`StraddledPossibilitySet`
        when the image there straddles spaces, rather than guessing one."""
        level = self.levels[i]
        if level < 0:
            lat = self.lattice
            found = {lat._space[j] for j in _indices(self.images[i])}
            raise StraddledPossibilitySet(f"possibility set of agent {self.agent} at "
                                          f"{lat.states[i]} spans {len(found)} spaces")
        return level

    def know(self, event: Event) -> Event:
        """The box of the images: the states of the event's base space whose
        image lies in the event's up-closure, as an event at that space; an
        empty base is that space's vacuous event."""
        out = self._know_memo.get(event)
        if out is None:
            lat = self.lattice
            base = lat._box(self.images, event.space, ~lat._upc(event))
            out = self._know_memo[event] = Event(event.space, lat._close(base), lat._names)
        return out

    def aware(self, event: Event) -> Event:
        """The states of the event's base space whose level sits at or above
        that space, as an event at that space.  A straddled image in that
        space raises, as :meth:`level` does."""
        out = self._aware_memo.get(event)
        if out is None:
            lat, levels = self.lattice, self.levels
            lat._upc(event)
            for i in lat._span[event.space]:
                if levels[i] < 0:
                    self.level(i)
            base = lat._aware(levels, event.space)
            out = self._aware_memo[event] = Event(event.space, lat._close(base), lat._names)
        return out


def _each(fn, keys: Iterable) -> list:
    """``[fn(key) for key in keys]``, calling ``fn`` once per distinct key."""
    memo: dict = {}
    return [memo[key] if key in memo else memo.setdefault(key, fn(key)) for key in keys]


# -- spec operations ---------------------------------------------------------


def _explicit(model: LatticeModel) -> LatticeModel:
    """The model whose Π a model's explicit knowledge reads: its own, or
    its derived model's when α is primitive."""
    return model if model._pi is not None else model.derived()


def require(model: LatticeModel, *primitives: str) -> None:
    """Raise :class:`ModelFormatError`, naming the model's family and the
    primitive, unless the model has each of ``primitives``."""
    for name in primitives:
        if getattr(model, "_" + name) is None:
            raise ModelFormatError(f"the {model.family} model has no {name}")


def _row(rows: dict[str, _Row], agent: str) -> _Row:
    """The agent's row among a primitive's rows."""
    try:
        return rows[agent]
    except KeyError:
        raise UnknownAgent(f"no agent {agent!r}") from None


def pi_space(model: LatticeModel, agent: str, ref: StateRef) -> frozenset[str]:
    """The unique space containing the agent's possibility set at ``ref``.

    Raises :class:`StraddledPossibilitySet` when the image straddles spaces,
    rather than guessing one; Confinement makes this unambiguous on valid
    models.
    """
    row = _row(_explicit(model)._pi, agent)
    lat = model.lattice
    return lat._names.spaces[row.level(lat._state_index(ref))]


def k_op(model: LatticeModel, agent: str, event: Event) -> Event:
    """Explicit knowledge of an event (requires a validated model)."""
    return _row(_explicit(model)._pi, agent).know(event)


def l_op(model: LatticeModel, agent: str, event: Event) -> Event:
    """Implicit knowledge of an event."""
    if model._lambda is None:
        require(model, "lambda")
    return _row(model._lambda, agent).know(event)


def a_op(model: LatticeModel, agent: str, event: Event) -> Event:
    """Awareness of an event: the agent's level sits at or above the event's
    base space.  The level is α's when α is primitive, and otherwise the
    space of the possibility set (every model without α has Π)."""
    return _row(model._pi if model._alpha is None else model._alpha, agent).aware(event)


def u_op(model: LatticeModel, agent: str, event: Event) -> Event:
    """Unawareness: the complement of awareness."""
    return model.lattice.event_not(a_op(model, agent, event))


# -- validation ---------------------------------------------------------------


def _walk_projection_laws(lat: SpaceLattice, report: Report) -> int:
    """Add to ``report`` the projection laws of a lattice, walked state by
    state: each covering map is onto, and covering squares commute.  Return
    the lattice's incoherent states (:func:`_incoherent`): those whose
    square fails, closed upward along the covering maps."""
    states, proj, span, masks, keys = lat.states, lat._proj, lat._span, lat._masks, lat._keys
    covers = sorted(lat._edges(), key=lambda pair: (keys[pair[0]], keys[pair[1]]))
    report.count(len(covers))
    for parent, target in covers:
        hit = {proj[i][target] for i in span[parent]}
        for j in span[target]:
            if j not in hit:
                report.add("projection-surjective", state=states[j],
                           source=keys[parent], target=keys[target])

    # Commuting covering squares pin down path independence of every
    # composite projection, which is the general composition law.
    broken = [False] * len(states)
    for space in lat.spaces:
        mask = masks[space]
        for x, y in combinations(sorted(space), 2):
            via_x = mask & ~lat._atom_bit[x]
            via_y = mask & ~lat._atom_bit[y]
            meet = via_x & via_y
            report.count(len(span[mask]))
            for i in span[mask]:
                if proj[proj[i][via_x]][meet] != proj[proj[i][via_y]][meet]:
                    broken[i] = True
                    report.add("projection-composition", state=states[i],
                               space=space_key(space), dropped=f"{x},{y}")
    if not any(broken):
        return 0
    # A state is incoherent when its square fails or a covering child is
    # incoherent.  States of smaller spaces come later, so walking
    # backwards settles every covering child of a state before the state.
    children, space_of = lat._children, lat._space
    for i in reversed(range(len(states))):
        if not broken[i]:
            row = proj[i]
            broken[i] = any(broken[row[child]] for child in children[space_of[i]])
    return sum(1 << i for i, hit in enumerate(broken) if hit)


def _incoherent(lat: SpaceLattice) -> int:
    """The states of a lattice from which some chain of covering maps
    reaches a state whose covering square does not commute, as a state
    mask; 0 when the projections compose, as on every aligned lattice.
    Every state that a chain reaches from a *coherent* state (one outside
    the mask) is coherent.

    From a coherent state ``i`` every chain of covering maps into a space
    ``T`` ends at one state, its projection ``_proj[i][T]``: this is the
    diamond lemma, by induction on the number of atoms dropped.  Two
    chains that first drop the same atom agree from the coherent state
    they reach.  Two that first drop ``x`` and ``y`` each agree with the
    chain through the state reached by dropping both, from the coherent
    states they reach, and those two chains meet there, as the square at
    ``i`` commutes.  So ``_proj[j][T] = _proj[i][T]`` for every ``j`` on a
    chain from ``i`` down to ``T``.  :func:`_validate_lattice` collects the
    mask in its walk of the squares and keeps it on the lattice."""
    if lat._incoherent is None:
        _validate_lattice(lat)
    return lat._incoherent


@memoised
def _validate_lattice(lat: SpaceLattice) -> Report:
    """The projection laws and the valuation convention: a lattice's own
    laws, checked once per lattice for every model over it.  An aligned
    lattice passes the projection laws as built: each covering map is the
    identity on the same ids, so it is onto, and every composite of them is
    the identity too; only ``checked`` counts their checks.  The walk of
    the covering squares also keeps :func:`_incoherent`'s mask on the
    lattice."""
    report = Report()
    if lat._aligned:
        lat._incoherent = 0
        report.count(len(lat._edges()) + sum(len(space) * (len(space) - 1) // 2 * len(refs)
                                             for space, refs in lat.spaces.items()))
    else:
        lat._incoherent = _walk_projection_laws(lat, report)
    report.count(len(lat.atoms))
    for atom in sorted(lat.atoms):
        space = lat.valuation[atom].space
        if space != lat._atom_bit[atom]:
            report.add("valuation-base-space", atom=atom,
                       base_space=lat._keys[space], required=atom)
    return report


def _dirty(row: _Row, ups: dict[int, int] | None = None) -> int:
    """The states at which a projection law of one agent's correspondence
    may fail at some lower space, as a state mask: every state that
    projects onto a *bad* state.

    The laws compare a state ``i`` with its projection ``i_T`` into each
    space ``T`` below its own.  Knowledge, for ``T`` at or below the level
    ``L`` of ``i``'s image: the image projected into ``T`` is the image of
    ``i_T``.  Ignorance, for Π (given ``ups``, each distinct image's
    up-closure): the up-closure of ``i``'s image lies in that of
    ``i_T``'s.  A state is bad when:

    - it is incoherent (:func:`_incoherent`), or its image holds an
      incoherent state;
    - it is unconfined: for Π, its image straddles spaces or lies above
      its space; for Λ, the image is not in its own space;
    - a law fails at a covering child ``c`` of its space (the space with
      one atom dropped);
    - for Π at a level ``L`` below its space, the image of ``i_L`` is not
      ``i``'s: ``i`` is outside the up-closure of the states whose image
      it is at ``L``;
    - for Π at ``L`` the state's space, the up-closure of the image is not
      inside the up-closure of its projection into some ``c``.

    At ``L`` the state's space, knowledge at ``c`` and the last condition
    give ignorance at ``c``.  The condition holds wherever the image's
    up-closure is coherent, as each of its states ``j`` projects into
    ``c`` through its projection into ``L``, so it is only decided there.
    So knowledge is checked once per image and covering child, over the
    states whose image it is at their own space; when those states are the
    image itself, as in a partition, they project onto the projected
    image, and the law holds at each of them exactly when every state of
    the projected image has it as its image.  On an aligned lattice state
    ``k`` of ``L`` projects to state ``k`` of ``c``, so the states where
    the law fails are those of ``c`` that miss the projected image, shifted
    back.

    A state outside the result is *clean*: no law fails there at any lower
    space.  A clean state is coherent, so for ``T`` below a covering child
    ``c`` of its space, ``i_T`` is the projection of ``i_c``, and the
    states below a clean state are clean.  By induction on the size of
    ``i``'s space, take ``T`` below ``c``:

    - ignorance: up(Π(i)) ⊆ up(Π(i_c)) at the covering pair, and
      up(Π(i_c)) ⊆ up(Π(i_T)) at the clean, smaller ``i_c``; inclusion of
      up-closures is transitive;
    - knowledge at ``L`` the state's space: the image of ``i_c`` is the
      image of ``i`` projected into ``c``, a space it lies in, and each
      state of the image is coherent, so projecting it into ``c`` and then
      into ``T`` projects it into ``T``; the law at ``i`` is the law at
      the clean, smaller ``i_c``;
    - knowledge at ``L`` below the state's space (Π only): ``i`` and
      ``i_L`` share an image, at ``i_L``'s own space, and a projection
      into every ``T`` below ``L``, so the law at ``i`` is the law at the
      clean, smaller ``i_L``.

    Neither the valuation nor onto covering maps enter: the laws here never
    read the valuation, and the proof never uses that a map is onto.  So a
    lattice whose only faults are those (``valuation-base-space``,
    ``projection-surjective``) dirties no state."""
    lat, images, levels, holders = row.lattice, row.images, row.levels, row.holders
    incoherent = _incoherent(lat)
    spaces, span_bits = lat._space, lat._names.span_bits
    children, aligned, start = lat._children, lat._aligned, lat._start
    proj = None if aligned else lat._proj
    bad = incoherent
    for image, mine in holders.items():
        level = levels[(mine & -mine).bit_length() - 1]
        if level < 0 or image & incoherent:
            bad |= mine
            continue
        own = mine & span_bits[level]  # the states whose image it is at their own space
        lower = mine ^ own
        if lower and ups is None:
            bad |= lower
        elif lower:
            below = lat._close(own)
            bad |= lower & ~below
            up = ups[image]
            for i in _indices(lower & below):
                space = spaces[i]
                at = i - start[space]  # aligned, i_c is start[c] + at
                for child in children[space]:
                    if up & ~ups[images[start[child] + at if aligned else proj[i][child]]]:
                        bad |= 1 << i
                        break
        if not own:
            continue
        for child in children[level]:
            if aligned:
                shift = start[child] - start[level]
                projected = image << shift
                bad |= (own << shift & ~holders.get(projected, 0)) >> shift
                continue
            projected = lat._project_mask(image, child)
            if ups is not None and ups[image] & incoherent and ups[image] & ~lat._close(projected):
                bad |= own
                break
            if own != image or projected & ~holders.get(projected, 0):
                for i in _indices(own):
                    if images[proj[i][child]] != projected:
                        bad |= 1 << i
    return lat._close(bad)


@memoised
def validate_hms(model: LatticeModel) -> Report:
    """Check the lattice laws, the valuation convention, and every property
    required of the explicit possibility correspondences of a model with a
    primitive Π, reporting each violation with a witness.

    Confinement, reflexivity and stationarity at a state read only its
    image, the states holding that image, and its space, so each is decided
    once per distinct image, for all of the image's holders at once.  The
    projection laws, knowledge and ignorance at every space below a state's
    own, fail only at the states :func:`_dirty` finds, also on a lattice
    whose projections do not compose, where it adds the states from which
    a broken covering square can be reached.  The laws are then
    walked state by state, in index order, only where one of them fails or
    may fail: at every other state none of them fails.  So the witnesses and
    their order are those of a walk over every state.  ``checked`` counts
    every (state, lower space) check as that walk would, and is computed
    per image rather than counted during the walk."""
    require(model, "pi")
    lat = model.lattice
    report = _validate_lattice(lat)
    states, spaces, below, keys, upspace = (
        lat.states, lat._space, lat._below, lat._keys, lat._upspace)

    checked = 0
    for agent in model.agents:
        row = model._pi[agent]
        images, levels, holders = row.images, row.levels, row.holders
        ups = {image: lat._close(image) for image in holders}
        dirty = _dirty(row, ups)
        # Both confinement laws, the second when the first holds; then
        # reflexivity, stationarity per target and ignorance per lower space.
        checked += 2 * len(states) + lat._n_below
        unconfined = failing = 0
        for image, mine in holders.items():
            level = levels[(mine & -mine).bit_length() - 1]
            checked += mine.bit_count() * image.bit_count()
            if level < 0:
                checked -= mine.bit_count()
                unconfined |= mine
            else:  # knowledge per space below the level, where it is expressible
                expressible = mine & upspace[level]
                checked += expressible.bit_count() * len(below[level])
                unconfined |= mine ^ expressible
            failing |= mine & ~ups[image]  # reflexivity
            if image & ~mine:  # stationarity
                failing |= mine

        for i in _walk(unconfined):
            ref = states[i]
            if levels[i] < 0:
                found = {keys[spaces[j]] for j in _indices(images[i])}
                report.add("confinement-single-space", agent, state=ref,
                           spaces=";".join(sorted(found)))
                continue
            if levels[i] & ~spaces[i]:
                report.add("confinement-expressible", agent, state=ref,
                           image_space=keys[levels[i]])

        projections: dict[int, list[int]] = {}  # image -> its projection per space below its level
        for i in _walk(failing | dirty):
            ref, mine, space = states[i], images[i], spaces[i]
            mine_up = ups[mine]
            if not mine_up >> i & 1:
                report.add("generalized-reflexivity", agent, state=ref,
                           image=";".join(map(str, _refs(states, mine))))
            for j in _indices(mine & ~holders[mine]):
                report.add("stationarity", agent, state=ref, reached=states[j])

            if not dirty >> i & 1:
                continue
            proj = lat._proj[i]
            for target_space in below[space][:-1]:
                if mine_up & ~ups[images[proj[target_space]]]:
                    report.add("projections-preserve-ignorance", agent,
                               state=ref, below=keys[target_space])
            if not levels[i] & ~space:  # the level is in the state's space; -1 is not
                _knowledge_laws(row, i, projections, "projections-preserve-knowledge", report)
    report.count(checked)
    return report


def _knowledge_laws(row: _Row, i: int, projections: dict[int, list[int]], law: str,
                    report: Report) -> None:
    """Add a ``law`` violation at state ``i``, whose level must lie in its
    space, for each space ``T`` at or below the level, in ``_below`` order,
    where the image of ``i_T`` is not ``i``'s image projected into ``T``;
    ``projections`` keeps each image's projections for the caller's walk."""
    lat, images = row.lattice, row.images
    mine, below = images[i], lat._below[row.levels[i]]
    projected = projections.get(mine)
    if projected is None:  # the last space below the level is the level itself
        projected = projections[mine] = [lat._project_mask(mine, target)
                                          for target in below[:-1]] + [mine]
    proj, keys = lat._proj[i], lat._keys
    for target, image in zip(below, projected):
        if image != images[proj[target]]:
            report.add(law, row.agent, state=lat.states[i], below=keys[target])


# -- property suites -------------------------------------------------------------

# The event basis is built from the valuation events, their negations, and
# pairwise conjunctions, truncated to MAX_BASIS events; the conjunction laws
# run over subsets of the basis up to MAX_FAMILY_SIZE members, at most
# MAX_FAMILIES families.  The basis, the families and each family's joined
# event depend on the lattice alone, so each lattice builds them once
# (SpaceLattice._basis and _families) and every agent, law and suite shares
# them; a conjunction check compares two base masks at the join space.
MAX_BASIS = 12
MAX_FAMILY_SIZE = 3
MAX_FAMILIES = 400


def event_basis(model) -> list[Event]:
    return list(model.lattice._basis)


def _build_basis(lat: SpaceLattice) -> tuple[Event, ...]:
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
    return tuple(basis)


class _Families(NamedTuple):
    """The families of a lattice's event basis, smallest first, in
    :func:`combinations` order; per family, its members as basis indices
    and the index in ``joins`` of its joined event, the conjunction of its
    members.  ``joins`` holds each distinct joined event once."""

    members: list[tuple[int, ...]]
    join_of: list[int]
    joins: list[Event]


def _build_families(lat: SpaceLattice) -> _Families:
    basis = lat._basis
    members = list(islice(chain.from_iterable(
        combinations(range(len(basis)), size) for size in range(1, MAX_FAMILY_SIZE + 1)),
        MAX_FAMILIES))
    joins: dict[Event, int] = {}
    join_of = [joins.setdefault(lat.event_and([basis[k] for k in family]), len(joins))
               for family in members]
    return _Families(members, join_of, list(joins))


class _Suite:
    """What the explicit and implicit property suites share.

    Construction checks the preconditions, each a validator and the message
    of the :class:`PreconditionFailed` raised when the model fails it, and
    takes the event basis from the lattice, which builds it, its families
    and their joined events once.  Each check counts once and adds a
    violation, with the agent and the witness, when it fails; the
    conjunction laws are decided on base masks at each family's join space
    (:meth:`conjunctions`)."""

    def __init__(self, model: LatticeModel, preconditions):
        for validate, message in preconditions:
            pre = validate(model)
            if not pre.ok:
                raise PreconditionFailed(message, pre)
        self.model = model
        self.lat = model.lattice
        self.report = Report()
        self.basis = self.lat._basis

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
        if result.up != whole:
            self.report.add(law, agent, event=event, result=result)

    def boxed(self, images: list[int], event: Event) -> int:
        """The raw definition of knowledge: every state whose image lies in
        the event's up-closure."""
        outside = ~self.lat._upc(event)
        return sum(1 << i for i, image in enumerate(images) if not image & outside)

    def box_bases(self, row: _Row) -> list[int]:
        """Per distinct joined event of the families, the base of the box
        over the row's images on it."""
        lat, images = self.lat, row.images
        return [lat._box(images, joined.space, ~joined.up) for joined in lat._families.joins]

    def aware_bases(self, row: _Row) -> list[int]:
        """Per distinct joined event of the families, the base of awareness
        over the row's levels on it, computed once per join space, the only
        thing it reads.  The preconditions rule out straddled images, so no
        level is -1 and the raise of :meth:`_Row.level` that ``a_op`` makes
        on one is not needed."""
        lat, levels = self.lat, row.levels
        return _each(lambda space: lat._aware(levels, space),
                     [joined.space for joined in lat._families.joins])

    def conjunctions(self, agent: str, laws) -> None:
        """Per family, and per (law, operator, bases) in ``laws``: the
        operator of the family's conjunction is the conjunction of the
        operator.

        The operators keep their argument's base space, so both sides are
        events at the family's join space J, and they are equal exactly when
        their bases, their up-closures cut to J's states, are.  ``bases``
        holds, per distinct joined event, the base of the operator on it
        (:meth:`box_bases`, :meth:`aware_bases`); the other base is J's
        states ANDed with the operator's result on each member.  Only a
        failed check builds its witnesses: the two sides, with the operator
        and ``event_and``, and the family, its members' texts joined by ``;``."""
        lat, model, report, basis = self.lat, self.model, self.report, self.basis
        families = lat._families
        span_bits = lat._names.span_bits
        at_join = [span_bits[joined.space] for joined in families.joins]
        results = [[op(model, agent, event).up for event in basis] for _, op, _ in laws]
        report.count(len(families.members) * len(laws))
        for members, join in zip(families.members, families.join_of):
            for (law, op, bases), ups in zip(laws, results):
                right = at_join[join]
                for k in members:
                    right &= ups[k]
                if bases[join] != right:
                    family = [basis[k] for k in members]
                    report.add(law, agent, left=op(model, agent, families.joins[join]),
                               right=lat.event_and([op(model, agent, e) for e in family]),
                               family=";".join(map(str, family)))

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
        pi_row = model._pi[agent]
        images, levels = pi_row.images, pi_row.levels
        for event in suite.basis:
            known = k_op(model, agent, event)
            aware = a_op(model, agent, event)

            # Knowledge and awareness of any event are events based at the
            # argument's own base space; compare against the raw definitions.
            suite.check_raw("knowledge-based-event", agent, event, known,
                            suite.boxed(images, event))
            need = event.space
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
                  lat.event(event.base_space), event=event)
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
        suite.conjunctions(agent, (("knowledge-conjunction", k_op, suite.box_bases(pi_row)),
                                   ("awareness-conjunction", a_op, suite.aware_bases(pi_row))))
        suite.monotonicity("knowledge-monotonicity", agent, k_op)

        # Possibility sets agree across every comparable space between the
        # image's space and the state's own space.
        # The model validated, so every image lies in one space below the state's.
        # Aligned, state i of space S projects into T at start[T] + i - start[S].
        proj = None if lat._aligned else lat._proj
        spaces, below, start = lat._space, lat._below, lat._start
        for i, ref in enumerate(lat.states):
            level, space = levels[i], spaces[i]
            extras = below[space & ~level]
            report.count(len(extras))
            for extra_atoms in extras:
                middle = level | extra_atoms
                j = start[middle] + i - start[space] if proj is None else proj[i][middle]
                if images[j] != images[i]:
                    report.add("possibility-agrees-across-spaces", agent,
                               state=ref, middle=lat._keys[middle])
    return report
