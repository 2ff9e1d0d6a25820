"""The paper's theorems at the atom cap: modal equivalence across the
forward transforms and the round trip, and LPA soundness, on generated
models of up to 4, 5 and 6 atoms and 12 worlds.

Marked ``slow``; the whole sweep takes a few seconds and runs with the
rest of the suite (deselect it with ``-m "not slow"``)."""

from __future__ import annotations

import pytest

from awarekit.gen import GenCaps, gen_fh
from awarekit.lpa import fuzz_soundness
from awarekit.transforms import equivalence_check, hms_transform, round_trip_check

pytestmark = pytest.mark.slow

ATOMS = (4, 5, 6)
SEEDS = range(10)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("atoms", ATOMS)
def test_forward_transforms_are_modally_equivalent(atoms, seed):
    source = gen_fh(seed, GenCaps(atoms=atoms, worlds=12))
    for via, truncate in (("hms", False), ("implicit-hms", True)):
        report = equivalence_check(source, hms_transform(source, truncate=truncate), via)
        assert report.ok, (via, report.text())
    report = round_trip_check(source)
    assert report.ok, report.text()


@pytest.mark.parametrize("atoms", ATOMS)
def test_lpa_is_sound(atoms):
    report = fuzz_soundness(trials=5, caps=GenCaps(atoms=atoms, worlds=12))
    assert report.ok, report.text()
