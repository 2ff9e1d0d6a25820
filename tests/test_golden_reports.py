"""Golden differential test: validator and suite reports, and transform
outputs, must match the recorded ones.

``tests/data/golden_reports.jsonl`` holds one JSON object per line:
``{"model": name, "check": name, "result": ...}``.  The result is a
``Report.to_data()``, ``{"error": "<class>: <message>"}`` when the check
raised, or the ``dumps_model`` text of a transform.  The models are the
two bundled fixtures, seeded generated models of at most four atoms, and
one seeded mutation of every lattice model; then the generated awareness
models and one seeded mutation of each, with their ``validate_fh`` reports.

Every validator and suite walks states, worlds, images and events in index
or sorted order, so a report's violations, and the "first is ..." tail of
an error message, come out in one order whatever the process's string hash
seed.  Records are therefore compared exactly, violation order included, in
whatever hash seed the test process runs under; a fresh process under
``PYTHONHASHSEED=0`` must reproduce the file byte for byte, and ``validate
--format data`` on a mutated file of each family must print the same bytes
under two hash seeds.

Regenerate the file (only when a change of output is intended) with:

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/test_golden_reports.py --write
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import awarekit
from awarekit.awareness import validate_fh
from awarekit.errors import AwarekitError
from awarekit.fixtures import fig1L, fig1R
from awarekit.gen import GenCaps, gen_fh
from awarekit.implicit import (
    a_star_property_suite,
    implicit_property_suite,
    validate_alpha,
    validate_implicit,
    validate_lambda,
)
from awarekit.modelio import data_to_model, dumps_model, model_to_data
from awarekit.transforms import hms_transform
from awarekit.unawareness import explicit_property_suite, validate_hms

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_reports.jsonl"
CAPS = GenCaps(atoms=4, worlds=4, agents=2)
FH_SEEDS = tuple(range(7))


def _top(data: dict) -> str:
    return ",".join(sorted(data["atoms"]))


def _corr_field(data: dict) -> str:
    return "lambda_star" if "lambda_star" in data else "lambda"


def _pick_agent(data: dict, field: str, rng: random.Random) -> str:
    return rng.choice(sorted(data[field]))


# -- data-level mutators: each returns False when the model offers no spot --


def drop_own_state(data, rng):
    field = _corr_field(data)
    table = data[field][_pick_agent(data, field, rng)]
    tokens = sorted(t for t, image in table.items() if len(image) > 1 and t in image)
    if not tokens:
        return False
    token = rng.choice(tokens)
    table[token] = [t for t in table[token] if t != token]
    return True


def cross_space_image(data, rng):
    """Add a state of another space to one implicit image."""
    field = _corr_field(data)
    table = data[field][_pick_agent(data, field, rng)]
    token = rng.choice(sorted(table))
    others = sorted(t for t in table if t.partition(":")[0] != token.partition(":")[0])
    table[token] = sorted(set(table[token]) | {rng.choice(others)})
    return True


def copy_other_image(data, rng):
    """Give one state the implicit image of another state of its space."""
    field = _corr_field(data)
    table = data[field][_pick_agent(data, field, rng)]
    pairs = sorted((a, b) for a in table for b in table
                   if a.partition(":")[0] == b.partition(":")[0]
                   and set(table[a]) != set(table[b]))
    if not pairs:
        return False
    a, b = rng.choice(pairs)
    table[a] = list(table[b])
    return True


def misroute_projection(data, rng):
    keys = sorted(k for k, table in data["projections"].items()
                  if len(set(table.values())) > 1)
    if not keys:
        return False
    table = data["projections"][rng.choice(keys)]
    state = rng.choice(sorted(table))
    table[state] = rng.choice(sorted(set(table.values()) - {table[state]}))
    return True


def straddle_pi(data, rng):
    """Add a state of another space to one explicit possibility set."""
    table = data["pi"][_pick_agent(data, "pi", rng)]
    token = rng.choice(sorted(table))
    spaces = {t.partition(":")[0] for t in table[token]}
    others = sorted(t for t in table if t.partition(":")[0] not in spaces)
    if not others:
        return False
    table[token] = sorted(set(table[token]) | {rng.choice(others)})
    return True


def raise_pi(data, rng):
    """Point one possibility set of a lower space at a top-space state."""
    top = _top(data)
    table = data["pi"][_pick_agent(data, "pi", rng)]
    lower = sorted(t for t in table if t.partition(":")[0] != top)
    if not lower:
        return False
    table[rng.choice(lower)] = [rng.choice(sorted(t for t in table
                                                  if t.partition(":")[0] == top))]
    return True


def shrink_pi(data, rng):
    table = data["pi"][_pick_agent(data, "pi", rng)]
    tokens = sorted(t for t, image in table.items() if len(image) > 1)
    if not tokens:
        return False
    token = rng.choice(tokens)
    table[token] = sorted(table[token])[1:]
    return True


def move_valuation_base(data, rng):
    atom = rng.choice(sorted(data["valuation"]))
    data["valuation"][atom] = {"base_space": "", "base": []}
    return True


def alpha_above_space(data, rng):
    top = _top(data)
    table = data["alpha"][_pick_agent(data, "alpha", rng)]
    table[rng.choice(sorted(t for t in table if t.partition(":")[0] != top))] = top
    return True


def lower_alpha(data, rng):
    """Lower the awareness level at one state to the meet."""
    table = data["alpha"][_pick_agent(data, "alpha", rng)]
    tokens = sorted(t for t, level in table.items() if level)
    if not tokens:
        return False
    table[rng.choice(tokens)] = ""
    return True


def drop_self_loop(data, rng):
    pairs = data["relations"][_pick_agent(data, "relations", rng)]
    loops = sorted(pair for pair in pairs if pair[0] == pair[1])
    if not loops:
        return False
    pairs.remove(rng.choice(loops))
    return True


def join_two_cells(data, rng):
    """Relate one world to a world outside its cell, one way only."""
    pairs = data["relations"][_pick_agent(data, "relations", rng)]
    unrelated = sorted([w, t] for w in data["worlds"] for t in data["worlds"]
                       if [w, t] not in pairs)
    if not unrelated:
        return False
    pairs.append(rng.choice(unrelated))
    return True


def split_cell_awareness(data, rng):
    """Toggle one atom of one world's awareness inside a cell of two or more."""
    agent = _pick_agent(data, "relations", rng)
    shared = sorted({w for w, t in data["relations"][agent] if w != t})
    if not shared:
        return False
    table, world = data["awareness"][agent], rng.choice(shared)
    table[world] = sorted(set(table[world]) ^ {rng.choice(data["atoms"])})
    return True


def aware_of_stranger(data, rng):
    """Make one world aware of an atom outside the language."""
    table = data["awareness"][_pick_agent(data, "awareness", rng)]
    world = rng.choice(sorted(table))
    table[world] = sorted(table[world] + ["z"])
    return True


def value_stranger(data, rng):
    """Value an atom outside the language."""
    data["valuation"]["z"] = [rng.choice(data["worlds"])]
    return True


LATTICE_MUTATORS = (drop_own_state, cross_space_image, copy_other_image, misroute_projection)
MUTATORS = {
    "hms": LATTICE_MUTATORS + (straddle_pi, raise_pi, shrink_pi, move_valuation_base),
    "implicit-hms": LATTICE_MUTATORS + (alpha_above_space, lower_alpha),
    "fh": (drop_self_loop, join_two_cells, split_cell_awareness, aware_of_stranger,
           value_stranger),
}


def _family(model) -> str:
    return {"complemented": "hms", "implicit": "implicit-hms", "awareness": "fh"}[model.family]


def mutated(name: str, model, index: int):
    """A seeded mutation of ``model``: the ``index``-th mutator of its family
    that finds a spot, trying the next ones in turn."""
    mutators = MUTATORS[_family(model)]
    rng = random.Random(f"golden:{name}")
    for step in range(len(mutators)):
        mutator = mutators[(index + step) % len(mutators)]
        data = model_to_data(model)
        if mutator(data, rng):
            return f"{name}~{mutator.__name__}", data_to_model(data)
    raise AssertionError(f"no mutator applies to {name}")


# -- records ---------------------------------------------------------------


def _run(check):
    try:
        return check().to_data()
    except AwarekitError as err:
        return {"error": f"{type(err).__name__}: {err}"}


def checks(model) -> list[tuple[str, object]]:
    if model.family == "awareness":
        return [("validate_fh", lambda: validate_fh(model))]
    if model.family == "complemented":
        return [
            ("validate_hms", lambda: validate_hms(model.base)),
            ("validate_lambda", lambda: validate_lambda(model)),
            ("explicit_property_suite", lambda: explicit_property_suite(model.base)),
            ("implicit_property_suite", lambda: implicit_property_suite(model)),
        ]
    assert model.family == "implicit"
    return [
        ("validate_implicit", lambda: validate_implicit(model)),
        ("validate_alpha", lambda: validate_alpha(model)),
        ("a_star_property_suite", lambda: a_star_property_suite(model)),
    ]


def golden_models():
    """(name, model) for every lattice model, then every awareness model,
    mutations included, and the dumps of every transform, as (name, check,
    result) records."""
    lattice = [("fig1L", fig1L()), ("fig1R", fig1R())]
    dumps = []
    for seed in FH_SEEDS:
        source = gen_fh(seed, CAPS)
        for truncate in (False, True):
            out = hms_transform(source, truncate=truncate)
            family = "implicit-hms" if truncate else "hms"
            name = f"gen_fh({seed})->{family}"
            lattice.append((name, out))
            dumps.append((name, f"dumps_model(hms_transform(truncate={truncate}))",
                          dumps_model(out)))
    seen = {family: 0 for family in MUTATORS}
    for name, model in list(lattice):
        lattice.append(mutated(name, model, seen[_family(model)]))
        seen[_family(model)] += 1
    awareness = [(f"gen_fh({seed})", gen_fh(seed, CAPS)) for seed in FH_SEEDS]
    awareness += [mutated(name, model, i) for i, (name, model) in enumerate(awareness)]
    return lattice + awareness, dumps


def golden_records() -> list[dict]:
    models, dumps = golden_models()
    records = [{"model": name, "check": check, "result": text}
               for name, check, text in dumps]
    for name, model in models:
        records += [{"model": name, "check": check, "result": _run(fn)}
                    for check, fn in checks(model)]
    return records


def _recorded() -> list[dict]:
    return [json.loads(line) for line in GOLDEN.read_text(encoding="utf-8").splitlines()]


@pytest.fixture(scope="module")
def current() -> dict:
    return {(r["model"], r["check"]): r["result"] for r in golden_records()}


def test_golden_set_is_unchanged(current):
    assert sorted(current) == sorted((r["model"], r["check"]) for r in _recorded())


def test_golden_mutations_fail_validation(current):
    for (model, check), result in current.items():
        if "~" in model and check in ("validate_lambda", "validate_implicit", "validate_fh"):
            hms = current.get((model, "validate_hms"), {"passed": True})
            assert not (result.get("passed", False) and hms["passed"]), model


# The file is read at collection; ``test_golden_set_is_unchanged`` fails
# when it is missing.
@pytest.mark.parametrize("record", _recorded() if GOLDEN.exists() else [],
                         ids=lambda r: f"{r['model']}:{r['check']}")
def test_matches_golden(record, current):
    assert current[(record["model"], record["check"])] == record["result"]


def _run_under_seed(seed: str, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=str(Path(awarekit.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)


def test_exact_under_recorded_hash_seed():
    run = _run_under_seed("0", __file__, "--print")
    assert run.returncode == 0, run.stderr
    assert run.stdout == GOLDEN.read_text(encoding="utf-8")


@pytest.mark.parametrize("family", ["hms", "implicit-hms", "fh"])
def test_validate_data_is_the_same_under_two_hash_seeds(family, tmp_path):
    """A mutated file with several violations, of stationarity (lattice
    files) or of reflexivity, transitivity and euclideanness (an ``fh``
    file): its ``validate --format data`` bytes do not depend on the hash
    seed."""
    source = gen_fh(0, CAPS)
    if family == "fh":
        name, model = mutated("gen_fh(0)", source, 0)
        assert name.endswith("~drop_self_loop")
    else:
        name, model = mutated(f"gen_fh(0)->{family}",
                              hms_transform(source, truncate=family == "implicit-hms"), 0)
        assert name.endswith("~drop_own_state")
    path = tmp_path / "mutated.model"
    path.write_text(dumps_model(model), encoding="utf-8")
    runs = [_run_under_seed(hash_seed, "-m", "awarekit.cli", "validate", str(path),
                            "--format", "data") for hash_seed in ("1", "2")]
    assert [run.returncode for run in runs] == [1, 1], runs[0].stderr
    assert len(json.loads(runs[0].stdout)["violations"]) > 1
    assert runs[0].stdout == runs[1].stdout


def main(argv: list[str]) -> int:
    if argv not in (["--write"], ["--print"]):
        print(__doc__)
        return 2
    text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in golden_records())
    if argv == ["--print"]:
        sys.stdout.write(text)
        return 0
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(text, encoding="utf-8")
    print(f"wrote {len(text.splitlines())} records to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
