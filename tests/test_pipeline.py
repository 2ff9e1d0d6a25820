"""One fuzz trial builds one category, one implicit model and one derived
complemented model, and validation runs once per model object."""

from __future__ import annotations

import contextlib
import io

import pytest

from awarekit import implicit, transforms
from awarekit.cli import main as cli_main
from awarekit.gen import GenCaps, gen_fh
from awarekit.implicit import validate_implicit, validate_lambda
from awarekit.modelio import model_to_data
from awarekit.unawareness import validate_hms

STAGES = ((transforms, "build_category"), (transforms, "category_to_implicit"),
          (implicit, "derive_pi_star"))


@pytest.fixture
def stage_calls(monkeypatch):
    """Calls per pipeline stage, counted through the module bindings the
    pipeline reaches them by."""
    calls = {name: 0 for _, name in STAGES}
    for module, name in STAGES:
        real = getattr(module, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("argv", [
    ["fuzz", "--trials", "1", "--seed", "3", "--format", "data"],
    ["lpa", "fuzz", "--trials", "1", "--seed", "3", "--format", "data"],
    ["fuzz", "--trials", "1", "--seed", "5", "--format", "data",
     "--caps", "atoms=6,worlds=24"],
], ids=" ".join)
def test_one_trial_runs_each_stage_once(stage_calls, argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(argv) == 0
    assert stage_calls == {name: 1 for _, name in STAGES}


def test_hms_transform_returns_the_derived_model(stage_calls):
    im = transforms.hms_transform(gen_fh(2, GenCaps()), truncate=True)
    assert stage_calls["derive_pi_star"] == 0
    assert im.derived() is im.derived()
    assert stage_calls["derive_pi_star"] == 1


def test_merging_into_a_report_leaves_the_next_one_unchanged():
    comp = transforms.hms_transform(gen_fh(4, GenCaps()))
    im = transforms.hms_transform(gen_fh(4, GenCaps()), truncate=True)
    for validate, model in ((validate_hms, comp.base), (validate_lambda, comp),
                            (validate_implicit, im)):
        first = validate(model)
        before = first.to_data()
        first.merge(first.copy())
        first.add("extra-law")
        again = validate(model)
        assert again is not first
        assert again.to_data() == before and again.ok and again.checked > 0


def test_validation_runs_once_per_model(monkeypatch):
    from awarekit import unawareness

    comp = transforms.hms_transform(gen_fh(1, GenCaps()))
    fresh = unawareness.LatticeModel(comp.lattice, comp.agents,
                                     pi=model_to_data(comp)["pi"])
    runs = []
    real = unawareness._validate_lattice
    monkeypatch.setattr(unawareness, "_validate_lattice",
                        lambda *a, **k: runs.append(1) or real(*a, **k))
    for model in (comp.base, comp.base, fresh, fresh, fresh):
        assert validate_hms(model).ok
    # The derivation validated comp already; the fresh model runs once.
    assert len(runs) == 1
