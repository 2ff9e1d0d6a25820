"""One fuzz trial builds one category, one implicit model and one derived
complemented model, and validation checks each group of laws once per part
it reads: the lattice's laws once per lattice, Λ's laws once per agent row,
and the rest once per model object."""

from __future__ import annotations

import contextlib
import inspect
import io
import sys

import pytest

from awarekit import implicit, transforms, unawareness
from awarekit.cli import main as cli_main
from awarekit.gen import GenCaps, gen_fh
from awarekit.implicit import (
    implicit_from_complemented,
    implicit_property_suite,
    validate_implicit,
    validate_lambda,
)
from awarekit.modelio import lattice_model_from_rows, model_to_data
from awarekit.unawareness import LatticeModel, SpaceLattice, _Row, event_basis, l_op, validate_hms

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


@contextlib.contextmanager
def walks(*functions):
    """The arguments of every call of each function's own code, under any
    memo wrapper: ``seen[f]`` lists one dict of argument values per walk."""
    codes = {inspect.unwrap(f).__code__: f for f in functions}
    seen = {f: [] for f in functions}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            seen[codes[frame.f_code]].append(dict(frame.f_locals))

    outer = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield seen
    finally:
        sys.setprofile(outer)


@pytest.mark.parametrize("argv", [
    ["fuzz", "--trials", "1", "--seed", "2", "--format", "data"],
    ["lpa", "fuzz", "--trials", "1", "--seed", "1", "--format", "data"],
], ids=" ".join)
def test_one_trial_checks_each_shared_part_once(argv):
    """The implicit model, the complemented model derived from it and the
    implicit view of that share one lattice and one Λ row per agent: the
    lattice laws run once for the lattice and Λ's laws once per agent."""
    with walks(validate_implicit, unawareness._validate_lattice,
               implicit._lambda_laws) as seen, contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(argv) == 0
        (im,) = [call["model"] for call in seen[validate_implicit]]
        view = implicit_from_complemented(im.derived())
    assert [call["model"] for call in seen[validate_implicit]] == [im, view]
    assert len(im.agents) == 2
    assert [call["lat"] for call in seen[unawareness._validate_lattice]] == [im.lattice]
    assert [(call["lat"], call["agent"]) for call in seen[implicit._lambda_laws]] == [
        (im.lattice, agent) for agent in im.agents]


def test_models_that_share_a_row_share_its_operator_memo(monkeypatch):
    """After the implicit suite on the complemented model derived from an
    implicit one, implicit knowledge of every basis event is read from the
    Λ row both models share, on either model: no new box is computed."""
    im = transforms.hms_transform(gen_fh(2, GenCaps()), truncate=True)
    comp = im.derived()
    assert implicit_property_suite(comp).ok
    boxes = []
    box = SpaceLattice._box
    monkeypatch.setattr(SpaceLattice, "_box",
                        lambda self, *args: boxes.append(args) or box(self, *args))
    for agent in im.agents:
        for event in event_basis(im):
            assert l_op(im, agent, event) is l_op(comp, agent, event)
    assert boxes == []


def test_validation_runs_once_per_model():
    """``validate_hms``'s Π walk runs once per model object, and the
    lattice laws once for the lattice every model here shares."""
    with walks(validate_hms, unawareness._validate_lattice) as seen:
        comp = transforms.hms_transform(gen_fh(1, GenCaps()))
        fresh = lattice_model_from_rows(comp.lattice, comp.agents, pi=model_to_data(comp)["pi"])
        for model in (comp, comp.base, comp.base, fresh, fresh, fresh):
            assert validate_hms(model).ok
    assert [call["model"] for call in seen[validate_hms]] == [comp, fresh]
    assert [call["lat"] for call in seen[unawareness._validate_lattice]] == [comp.lattice]


def test_a_shared_lattice_keeps_each_rows_report_apart():
    """A model on a validated model's lattice, with a Λ row of its own that
    breaks reflexivity, fails with its own witness; the rows it shares keep
    their reports, and the first model still passes."""
    im = transforms.hms_transform(gen_fh(2, GenCaps()), truncate=True)
    assert len(im.agents) == 2 and validate_implicit(im).ok
    lat, agent = im.lattice, im.agents[0]
    images = im._lambda[agent].images
    i = next(i for i, image in enumerate(images) if image.bit_count() > 1)
    planted = dict(im._lambda)
    planted[agent] = _Row(lat, agent, images[:i] + [images[i] & ~(1 << i)] + images[i + 1:],
                          im._lambda[agent].levels)
    broken = LatticeModel(lat, im.agents, lambda_=planted, alpha=im._alpha)
    report = validate_implicit(broken)
    assert not report.ok and {v.agent for v in report.violations} == {agent}
    assert [v.witness for v in report.violations if v.law == "implicit-reflexivity"] == [
        {"state": str(lat.states[i])}]
    assert validate_implicit(im).ok
