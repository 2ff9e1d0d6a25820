"""The benchmark's own generator and known-answer mutators."""

import contextlib
import copy
import io
import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import modelgen  # noqa: E402
from awarekit import awareness, cli, modelio  # noqa: E402


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, json.loads(out.getvalue()) if out.getvalue() else None


def write(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def transformed(tmp_path, family, seed, atoms=3, worlds=6):
    source = modelgen.awareness_data(random.Random(seed), atoms, worlds)
    if family == "fh":
        return source
    out = tmp_path / f"{family}-{seed}.model"
    code, _ = run_cli(["transform", write(tmp_path / "source.model", source),
                       "--to", family, "--out", str(out)])
    assert code == 0
    return json.loads(out.read_text())


def test_generation_is_deterministic_and_exact():
    first = modelgen.awareness_data(random.Random("s"), 4, 12)
    assert first == modelgen.awareness_data(random.Random("s"), 4, 12)
    assert first != modelgen.awareness_data(random.Random("t"), 4, 12)
    model = modelio.data_to_model(first)
    assert len(model.language_atoms) == 4
    assert len(model.worlds) == 12
    assert len(model.agents) == 2
    for agent in model.agents:
        cells = {model.successors(agent, w) for w in model.worlds}
        assert len(cells) == 12 // 3
    assert awareness.validate_fh(model).ok


def test_fixed_awareness_sizes_are_used_once_per_cell():
    data = modelgen.awareness_data(random.Random(7), 6, 6, aware_sizes=(3, 4, 5, 5))
    model = modelio.data_to_model(data)
    cells = [(agent, next(iter(cell))) for agent in model.agents
             for cell in {model.successors(agent, w) for w in model.worlds}]
    sizes = sorted(len(model.awareness_atoms[agent][w]) for agent, w in cells)
    assert sizes == [3, 4, 5, 5]
    assert awareness.validate_fh(model).ok


@pytest.mark.parametrize("family", sorted(modelgen.MUTATIONS))
def test_mutated_files_load_and_name_their_law(tmp_path, family):
    for seed in range(3):
        clean = transformed(tmp_path, family, seed)
        code, report = run_cli(["validate", write(tmp_path / "clean.model", clean),
                                "--format", "data"])
        assert code == 0 and report["passed"]
        for law, mutator in modelgen.MUTATIONS[family]:
            data = copy.deepcopy(clean)
            mutator(data, random.Random(seed))
            code, report = run_cli(["validate", write(tmp_path / "mutated.model", data),
                                    "--format", "data"])
            assert code == 1, (family, law, seed)
            assert law in {v["law"] for v in report["violations"]}


def test_every_control_pair_exits_1(tmp_path):
    for seed in range(5):
        source = modelgen.awareness_data(random.Random(seed), 2, 9)
        a = write(tmp_path / "a.model", source)
        b = transformed(tmp_path, "hms", seed, atoms=2, worlds=9)
        code, _ = run_cli(["equiv", a, write(tmp_path / "b.model", b), "--via", "hms",
                           "--format", "data"])
        assert code == 0
        modelgen.flip_valuation(b, random.Random(seed))
        code, report = run_cli(["equiv", a, write(tmp_path / "b.model", b), "--via", "hms",
                                "--format", "data"])
        assert code == 1
        assert "modal-equivalence" in {v["law"] for v in report["violations"]}
