"""Consequences of the lattice laws, checked as theorems.

The validators check the primitive laws only.  On every model that passes
them, these facts follow and are checked here instead of on every model:

* Λ's images partition each space;
* projections preserve implicit ignorance: the up-closure of Λ(ω) lies
  inside the up-closure of Λ at each projection of ω;
* the derived Π meets the defining clause at every projection of every
  state, below and above the awareness level.

The checks are written from the definitions, over sets of ``StateRef``s
and ``SpaceLattice.project``; they do not read the models' rows.  The
models are the implicit views of both fixtures and truncated transforms of
generated awareness models, each with the complemented model derived from
it.
"""

from __future__ import annotations

import functools

import pytest

from awarekit.fixtures import fig1L, fig1R
from awarekit.gen import GenCaps, gen_fh
from awarekit.implicit import implicit_from_complemented, validate_implicit
from awarekit.transforms import hms_transform
from awarekit.unawareness import pi_space

SEEDS = range(24)
CAPS = GenCaps(atoms=6, worlds=6)  # seeds 0, 10, 15 and 19 reach 6 atoms


def _implicit_models():
    yield "fig1L", implicit_from_complemented(fig1L())
    yield "fig1R", implicit_from_complemented(fig1R())
    for seed in SEEDS:
        yield f"gen_fh({seed})", hms_transform(gen_fh(seed, CAPS), truncate=True)


def _models():
    for name, model in _implicit_models():
        assert validate_implicit(model).ok, name
        yield f"{name}:implicit", model
        yield f"{name}:complemented", model.derived()


MODELS = dict(_models())
pytestmark = pytest.mark.parametrize("name", sorted(MODELS))


def _pi(model, agent):
    return (model.pi if model.pi is not None else model.derived().pi)[agent]


def _level(model, agent, ref):
    """The awareness level at ``ref``: α's when α is primitive, and the
    space of the possibility set otherwise."""
    if model.alpha is not None:
        return model.alpha[agent][ref]
    return pi_space(model, agent, ref)


def _project(model, states, space):
    return frozenset(model.lattice.project(ref, space) for ref in states)


def _up_closures(model):
    """The up-closure of a state set inside one space: the states of every
    space above whose projection into that space lands in the set."""

    @functools.cache
    def up(states):
        (space,) = {ref.space for ref in states}
        return frozenset(ref for ref in model.states
                         if space <= ref.space and model.lattice.project(ref, space) in states)

    return up


def test_implicit_images_partition_each_space(name):
    model = MODELS[name]
    lat = model.lattice
    for agent in model.agents:
        lam = model.lambda_[agent]
        for space in lat.spaces:
            members = frozenset(lat.states_of(space))
            cells = {lam[ref] for ref in members}
            assert frozenset().union(*cells) == members, (agent, space)
            for left in cells:
                for right in cells:
                    assert left == right or not left & right, (agent, space, left, right)


def test_projections_preserve_implicit_ignorance(name):
    model = MODELS[name]
    up = _up_closures(model)
    for agent in model.agents:
        lam = model.lambda_[agent]
        for ref in model.states:
            mine = up(lam[ref])
            for space in model.lattice.spaces:
                if space < ref.space:
                    below = model.lattice.project(ref, space)
                    assert mine <= up(lam[below]), (agent, ref, space)


def test_derived_pi_meets_the_defining_clause(name):
    model = MODELS[name]
    for agent in model.agents:
        lam, pi = model.lambda_[agent], _pi(model, agent)
        for ref in model.states:
            image, level = lam[ref], _level(model, agent, ref)
            for space in model.lattice.spaces:
                if not space <= ref.space:
                    continue
                below = model.lattice.project(ref, space)
                got = pi[below]
                assert got == _project(model, image, _level(model, agent, below)), \
                    (agent, ref, space)
                if space <= level:
                    assert got == _project(model, image, space), (agent, ref, space)
                if level <= space:
                    assert got == _project(model, image, level), (agent, ref, space)
