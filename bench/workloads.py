"""Workload inputs: each builder writes its files under a work directory and
returns a balanced set of operations.  An operation is one ``awarekit``
command line with its known answer; a run passes over the set again and again,
so that every run executes the same mix.

Builders import the program lazily (they run after ``run.py`` has put the
checkout's ``src`` on the path).
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from modelgen import awareness_data, flip_valuation, mutate

FUZZ_CAPS = "atoms=5,worlds=10,agents=2"
FUZZ_OPS = 24            # ops of each command
FUZZ_POOL = 64           # candidate seeds drawn per seed kept
EQUIV_PAIRS = 4          # one in four is a negative control
EQUIV_ATOMS, EQUIV_WORLDS = 3, 48
VALIDATE_BASES = 2       # per family; each gives one clean and one mutated file
VALIDATE_ATOMS, VALIDATE_WORLDS = 6, 6
VALIDATE_AWARE = (3, 4, 5, 5)   # cell awareness sizes, mean near 0.7 * 6 atoms


def op(argv: list[str], exit_code: int, law: str | None = None) -> dict:
    """An operation: the command line, its expected exit code and, for a
    violation, the law the report must name."""
    return {"argv": argv, "exit": exit_code, "law": law}


def _cli(argv: list[str]) -> None:
    from awarekit.cli import main

    code = main(argv)
    if code != 0:
        raise RuntimeError(f"setup command failed with exit {code}: {argv}")


def _write(path: Path, data: dict) -> str:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


def _read(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


# -- fuzz ------------------------------------------------------------------


def _fuzz_cost(model) -> int:
    """A size proxy that orders ``fuzz`` trial cost well: spaces and their
    projections grow as 3^atoms, and each world costs its own state plus the
    cells it sees."""
    seen = sum(len(model.successors(agent, w)) for agent in model.agents
               for w in model.worlds)
    return 3 ** len(model.language_atoms) * (len(model.worlds) + seen)


def _quantile_sample(rng: random.Random, cost) -> list[int]:
    """``FUZZ_OPS`` seeds: a pool of seeds is sorted by cost, cut into
    ``FUZZ_OPS`` equal strata, and the middle seed of each stratum kept.
    Every workload seed then gets ops at the same cost quantiles, which
    matters because a few heavy ops carry much of the time."""
    pool = [rng.randrange(2**31) for _ in range(FUZZ_POOL * FUZZ_OPS)]
    ranked = sorted(range(len(pool)), key=lambda i: (cost(pool[i]), i))
    kept = [pool[i] for i in ranked[FUZZ_POOL // 2::FUZZ_POOL]]
    rng.shuffle(kept)
    return kept


def fuzz(seed: int, workdir: Path) -> list[dict]:
    """Alternating ``fuzz`` and ``lpa fuzz`` single-trial invocations.

    ``gen_fh`` samples the model size from each op seed, and op cost spans
    two orders of magnitude across seeds.  The op seeds are therefore a
    stratified sample over ``_fuzz_cost`` of ``gen_fh``'s own sizes, so the
    ops have the size mix users get, with less run-to-run spread than seeds
    taken in stream order.
    """
    from awarekit.gen import GenCaps, gen_fh

    caps = GenCaps(atoms=5, worlds=10, agents=2)
    rng = random.Random(f"fuzz:{seed}")
    fuzz_seeds = _quantile_sample(rng, lambda s: _fuzz_cost(gen_fh(s, caps)))
    # ``lpa fuzz --seed s`` draws its first trial's model as gen_fh(s * 1_000_003).
    lpa_seeds = _quantile_sample(rng, lambda s: _fuzz_cost(gen_fh(s * 1_000_003, caps)))

    ops = []
    for fuzz_seed, lpa_seed in zip(fuzz_seeds, lpa_seeds):
        ops.append(op(["fuzz", "--trials", "1", "--seed", str(fuzz_seed),
                       "--caps", FUZZ_CAPS, "--format", "data"], 0))
        ops.append(op(["lpa", "fuzz", "--trials", "1", "--depth", "2",
                       "--seed", str(lpa_seed), "--caps", FUZZ_CAPS,
                       "--format", "data"], 0))
    return ops


# -- equiv-deep ------------------------------------------------------------


def equiv_deep(seed: int, workdir: Path) -> list[dict]:
    """``equiv a b --via hms --depth 2`` on exact-size awareness models and
    their transforms; the last pair's ``b`` has one atom flipped at one
    world, so it must fail with ``modal-equivalence``."""
    rng = random.Random(f"equiv-deep:{seed}")
    ops = []
    for i in range(EQUIV_PAIRS):
        a = _write(workdir / f"pair{i}_a.model",
                   awareness_data(rng, EQUIV_ATOMS, EQUIV_WORLDS))
        b_path = workdir / f"pair{i}_b.model"
        _cli(["transform", a, "--to", "hms", "--out", str(b_path)])
        control = i == EQUIV_PAIRS - 1
        if control:
            data = _read(b_path)
            flip_valuation(data, rng)
            _write(b_path, data)
        ops.append(op(["equiv", a, str(b_path), "--via", "hms", "--depth", "2",
                       "--format", "data"],
                      1 if control else 0, "modal-equivalence" if control else None))
    return ops


# -- validate-mixed ----------------------------------------------------------


def validate_mixed(seed: int, workdir: Path) -> list[dict]:
    """``validate`` on ``fh``, ``hms`` and ``implicit-hms`` files at the
    6-atom cap; every base model gives a clean file and a copy with one
    seeded mutation whose law is known.  Every seed gets the same cell
    awareness sizes and the same mix of mutations, so seeds differ in the
    models' content, not in their cost class."""
    rng = random.Random(f"validate-mixed:{seed}")
    ops = []
    for family in ("fh", "hms", "implicit-hms"):
        for i in range(VALIDATE_BASES):
            stem = f"{family}{i}"
            source = _write(workdir / f"{stem}.source.model",
                            awareness_data(rng, VALIDATE_ATOMS, VALIDATE_WORLDS,
                                           aware_sizes=VALIDATE_AWARE))
            if family == "fh":
                clean = Path(source)
            else:
                clean = workdir / f"{stem}.model"
                _cli(["transform", source, "--to", family, "--out", str(clean)])
            data = _read(clean)
            law = mutate(data, rng, i)
            mutated = _write(workdir / f"{stem}.mutated.model", data)
            ops.append(op(["validate", str(clean), "--format", "data"], 0))
            ops.append(op(["validate", mutated, "--format", "data"], 1, law))
    rng.shuffle(ops)
    return ops


BUILDERS = {"fuzz": fuzz, "equiv-deep": equiv_deep, "validate-mixed": validate_mixed}
