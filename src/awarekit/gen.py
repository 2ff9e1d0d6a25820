"""Seeded random generation of validated models.

Awareness models are generated directly (partitions, awareness cells,
valuations); lattice models come out of the transform pipeline, which
guarantees they validate.  Generation is a pure function of seed and caps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .awareness import AwarenessModel, _Tables
from .errors import InvalidCaps
from .syntax import A, And, Atom, Formula, K, L, Not, TOP


ATOM_POOL = ("p", "q", "r", "s", "t", "u")


@dataclass(frozen=True)
class GenCaps:
    """Upper bounds for generated model sizes; actual sizes are sampled."""

    atoms: int = 3
    worlds: int = 5
    agents: int = 2

    def require_valid(self) -> None:
        if self.atoms < 1 or self.worlds < 1 or self.agents < 1:
            raise InvalidCaps(f"all caps must be at least 1, got {self}")


def _atom_names(count: int) -> list[str]:
    if count <= len(ATOM_POOL):
        return list(ATOM_POOL[:count])
    return [f"p{i}" for i in range(count)]


def gen_fh(seed: int, caps: GenCaps = GenCaps()) -> AwarenessModel:
    """A random partitional, propositionally determined awareness model;
    identical for identical ``(seed, caps)``."""
    caps.require_valid()
    rng = random.Random(f"fh:{seed}")
    n_atoms = rng.randint(1, caps.atoms)
    n_worlds = rng.randint(1, caps.worlds)
    n_agents = rng.randint(1, caps.agents)

    atoms = _atom_names(n_atoms)
    worlds = [f"w{i}" for i in range(n_worlds)]
    agents = [str(i + 1) for i in range(n_agents)]

    # The model is built from its mask tables: world i is the i-th world id
    # in sorted order, and bit k of an atom mask the k-th atom.
    at = {w: i for i, w in enumerate(sorted(worlds))}
    bit = {a: k for k, a in enumerate(sorted(atoms))}
    succ: dict[str, list[int]] = {}
    aware: dict[str, list[int]] = {}
    for agent in agents:
        n_cells = rng.randint(1, n_worlds)
        label_of = {w: rng.randrange(n_cells) for w in worlds}
        cells: dict[int, list[str]] = {}
        for w in worlds:
            cells.setdefault(label_of[w], []).append(w)
        rows = succ[agent] = [0] * n_worlds
        levels = aware[agent] = [0] * n_worlds
        for cell in cells.values():
            members = sum(1 << at[w] for w in cell)
            cell_atoms = sum(1 << bit[a] for a in atoms if rng.random() < 0.7)
            for w in cell:
                rows[at[w]], levels[at[w]] = members, cell_atoms

    valuation = {a: sum(1 << at[w] for w in worlds if rng.random() < 0.5) for a in atoms}
    return AwarenessModel(atoms, agents, sorted(worlds),
                          tables=_Tables(tuple(sorted(atoms)), succ, aware, valuation))


def gen_hms(seed: int, caps: GenCaps = GenCaps()):
    """A random complemented lattice model, via the transform pipeline."""
    from .transforms import hms_transform

    return hms_transform(gen_fh(seed, caps))


def gen_implicit(seed: int, caps: GenCaps = GenCaps()):
    """A random implicit knowledge-based lattice model."""
    from .transforms import hms_transform

    return hms_transform(gen_fh(seed, caps), truncate=True)


def random_formula(rng: random.Random, atoms, agents, max_depth: int,
                   budget: int = 6) -> Formula:
    """A random formula with modal depth at most ``max_depth`` and at most
    ``budget`` connectives."""
    atoms = sorted(atoms)
    agents = sorted(agents)
    kinds = ["atom", "top"]
    if budget > 0:
        kinds += ["not", "and"]
        if max_depth > 0 and agents:
            kinds += ["l", "a", "k"]

    kind = rng.choice(kinds)
    if kind == "top" or (kind == "atom" and not atoms):
        return TOP
    if kind == "atom":
        return Atom(rng.choice(atoms))
    if kind == "not":
        return Not(random_formula(rng, atoms, agents, max_depth, budget - 1))
    if kind == "and":
        return And(random_formula(rng, atoms, agents, max_depth, budget - 1),
                   random_formula(rng, atoms, agents, max_depth, budget - 1))
    node = {"l": L, "a": A, "k": K}[kind]
    return node(rng.choice(agents),
                random_formula(rng, atoms, agents, max_depth - 1, budget - 1))
