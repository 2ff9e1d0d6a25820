"""Golden test for the fuzz commands: ``fuzz`` and ``lpa fuzz`` must print
the recorded ``--format data`` line and exit with the recorded code.

The ``checked`` totals count every law instance the validators and suites
ran, so this pins them exactly while the pipeline that produces them is
restructured.  ``tests/data/golden_fuzz.jsonl`` holds one JSON object per
line: ``{"argv": [...], "exit": code, "stdout": text}``.

Regenerate the file (only when a change of output is intended) with:

    PYTHONPATH=src python tests/test_fuzz_golden.py --write
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from awarekit.cli import main as cli_main

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_fuzz.jsonl"
SEEDS = (0, 4, 11)
CAPS = (None, "atoms=6,worlds=24")


def golden_argvs() -> list[list[str]]:
    argvs = []
    for command in (["fuzz"], ["lpa", "fuzz"]):
        for caps in CAPS:
            for seed in SEEDS:
                argv = command + ["--trials", "3", "--seed", str(seed), "--format", "data"]
                if caps:
                    argv += ["--caps", caps]
                argvs.append(argv)
    return argvs


def run(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


def _recorded() -> list[dict]:
    return [json.loads(line) for line in GOLDEN.read_text(encoding="utf-8").splitlines()]


def test_golden_fuzz_set_is_unchanged():
    assert [r["argv"] for r in _recorded()] == golden_argvs()


@pytest.mark.parametrize("record", _recorded() if GOLDEN.exists() else [],
                         ids=lambda r: " ".join(r["argv"]))
def test_fuzz_matches_golden(record):
    assert run(record["argv"]) == record


def main(argv: list[str]) -> int:
    if argv != ["--write"]:
        print(__doc__)
        return 2
    text = "".join(json.dumps(run(a), sort_keys=True) + "\n" for a in golden_argvs())
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(text, encoding="utf-8")
    print(f"wrote {len(text.splitlines())} records to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
