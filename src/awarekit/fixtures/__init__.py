"""Bundled example models and proofs.

``fig1L`` is the complemented model where the agent implicitly knows exactly
what she explicitly knows; ``fig1R`` refines it so she implicitly knows more
than she is aware of (at ``p,q:pq`` she implicitly knows ``q`` while unaware
of it).  Both share the same explicit possibility correspondences and differ
only in the implicit layer.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from ..modelio import load_model
from ..unawareness import LatticeModel


def fixture_path(name: str) -> Path:
    return Path(str(resources.files(__package__) / name))


def fig1L() -> LatticeModel:
    return load_model(fixture_path("fig1L.model"))


def fig1R() -> LatticeModel:
    return load_model(fixture_path("fig1R.model"))


def proof_path(name: str) -> Path:
    return fixture_path("proofs") / name
