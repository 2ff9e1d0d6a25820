"""Exact-size seeded awareness models and known-answer mutators.

``awarekit.gen.gen_fh`` samples its sizes below caps, so it cannot produce a
model of a fixed size.  ``awareness_data`` does, with the shape of the
ROADMAP baseline grid: 2 agents and about worlds/3 partition cells per agent.
Everything here works on model-file data (the JSON objects ``modelio``
reads and writes), so it needs no import of the program.

Each mutator takes a model-file object and a ``random.Random`` and changes
it in place so that the file still loads but ``awarekit validate`` must
report the named law; ``flip_valuation`` builds the negative controls of
the ``equiv-deep`` workload.
"""

from __future__ import annotations

import random

ATOMS = ("p", "q", "r", "s", "t", "u")


def awareness_data(rng: random.Random, n_atoms: int, n_worlds: int,
                   n_agents: int = 2, aware_sizes: tuple[int, ...] = ()) -> dict:
    """A valid partitional awareness model with exactly the given sizes.

    Each cell's agent is aware of each atom with probability 0.7, or, when
    ``aware_sizes`` is given, of exactly as many atoms as the next entry of
    a shuffled cycle of it says.  Validation cost grows as 2^(awareness
    size), so fixed sizes give every model the same cost class."""
    if not 1 <= n_atoms <= len(ATOMS):
        raise ValueError(f"n_atoms must be in 1..{len(ATOMS)}, got {n_atoms}")
    atoms = list(ATOMS[:n_atoms])
    worlds = [f"w{i}" for i in range(n_worlds)]
    agents = [str(i + 1) for i in range(n_agents)]
    n_cells = max(1, n_worlds // 3)

    sizes = list(aware_sizes)
    rng.shuffle(sizes)
    relations = {}
    awareness = {}
    for agent in agents:
        order = list(worlds)
        rng.shuffle(order)
        # The first n_cells worlds open one cell each, so no cell is empty.
        label = {w: i if i < n_cells else rng.randrange(n_cells)
                 for i, w in enumerate(order)}
        cells: dict[int, list[str]] = {}
        for w in worlds:
            cells.setdefault(label[w], []).append(w)
        relations[agent] = sorted([w, t] for cell in cells.values()
                                  for w in cell for t in cell)
        awareness[agent] = {}
        for cell in cells.values():
            if sizes:
                sizes.append(sizes.pop(0))
                cell_atoms = sorted(rng.sample(atoms, sizes[-1]))
            else:
                cell_atoms = sorted(a for a in atoms if rng.random() < 0.7)
            for w in cell:
                awareness[agent][w] = cell_atoms

    valuation = {a: sorted(w for w in worlds if rng.random() < 0.5) for a in atoms}
    return {"atoms": atoms, "agents": agents, "worlds": worlds,
            "relations": relations, "awareness": awareness, "valuation": valuation}


def family_of(data: dict) -> str:
    """The model family of a model-file object, named as ``awarekit gen`` names it."""
    if "worlds" in data:
        return "fh"
    return "implicit-hms" if "lambda_star" in data else "hms"


def _cells(data: dict, agent: str) -> list[tuple[str, ...]]:
    succ: dict[str, list[str]] = {}
    for w, t in data["relations"][agent]:
        succ.setdefault(w, []).append(t)
    return sorted({tuple(sorted(ts)) for ts in succ.values()})


def _top_key(data: dict) -> str:
    return ",".join(sorted(data["atoms"]))


# -- awareness-model mutators ------------------------------------------------


def drop_reflexive_pair(data: dict, rng: random.Random) -> None:
    agent = rng.choice(data["agents"])
    world = rng.choice(data["worlds"])
    data["relations"][agent].remove([world, world])


def break_cell_awareness(data: dict, rng: random.Random) -> None:
    """Give one world of a cell with at least two worlds its own awareness set."""
    choices = [(agent, cell) for agent in data["agents"]
               for cell in _cells(data, agent) if len(cell) > 1]
    agent, cell = rng.choice(choices)
    world = rng.choice(cell)
    atom = rng.choice(data["atoms"])
    aware = set(data["awareness"][agent][world]) ^ {atom}
    data["awareness"][agent][world] = sorted(aware)


# -- lattice-model mutators ----------------------------------------------------


def drop_own_state(data: dict, rng: random.Random) -> None:
    """Remove a state from its own implicit image, keeping the image non-empty."""
    field = "lambda_star" if "lambda_star" in data else "lambda"
    agent = rng.choice(sorted(data[field]))
    table = data[field][agent]
    token = rng.choice(sorted(t for t, image in table.items() if len(image) > 1))
    table[token] = [t for t in table[token] if t != token]


def misroute_projection(data: dict, rng: random.Random) -> None:
    """Send one top-space state to another state's image under one covering
    projection, so the two routes down to a shared subspace disagree."""
    top = _top_key(data)
    keys = sorted(k for k in data["projections"] if k.partition("->")[0] == top)
    table = data["projections"][rng.choice(keys)]
    state = rng.choice(sorted(table))
    others = sorted(set(table.values()) - {table[state]})
    table[state] = rng.choice(others)


def alpha_above_space(data: dict, rng: random.Random) -> None:
    """Give a state outside the top space the top space as awareness level."""
    top = _top_key(data)
    agent = rng.choice(sorted(data["alpha"]))
    table = data["alpha"][agent]
    token = rng.choice(sorted(t for t in table if t.partition(":")[0] != top))
    table[token] = top


MUTATIONS = {
    "fh": (("relation-reflexive", drop_reflexive_pair),
           ("awareness-constant-on-cells", break_cell_awareness)),
    "hms": (("implicit-reflexivity", drop_own_state),
            ("projection-composition", misroute_projection)),
    "implicit-hms": (("lack-of-conception", alpha_above_space),
                     ("implicit-reflexivity", drop_own_state)),
}


def mutate(data: dict, rng: random.Random, index: int) -> str:
    """Apply the family's ``index``-th mutation (cycling), seeded by ``rng``;
    return the law that ``awarekit validate`` must name."""
    mutations = MUTATIONS[family_of(data)]
    law, mutator = mutations[index % len(mutations)]
    mutator(data, rng)
    return law


def flip_valuation(data: dict, rng: random.Random) -> None:
    """Flip one atom at one world of a complemented transform's file; the
    result is the transform of the source with that atom flipped there."""
    atom = rng.choice(sorted(data["valuation"]))
    entry = data["valuation"][atom]
    world = rng.choice(sorted(data["spaces"][entry["base_space"]]))
    base = set(entry["base"]) ^ {world}
    entry["base"] = sorted(base)
