"""The ROADMAP baseline grid, timed through the public stage functions.

Each cell is an exact-size awareness model (2 agents, about worlds/3 cells
per agent).  Stages: ``category_to_implicit`` (including the
``build_category`` it consumes), ``derive_pi_star``, and the explicit and
implicit property suites on the derived complemented model.
"""

from __future__ import annotations

import random
import time

from modelgen import awareness_data

CELLS = ((3, 8), (3, 32), (4, 16), (5, 16), (6, 8))
STAGES = ("category_to_implicit", "derive_pi_star", "explicit_suite", "implicit_suite")


def metric_names() -> list[str]:
    return [f"grid.a{atoms}w{worlds}.{stage}_ms" for atoms, worlds in CELLS
            for stage in STAGES]


def time_grid(seed: int) -> dict[str, float]:
    """Milliseconds per stage and cell, keyed as ``metric_names`` gives them."""
    from awarekit import awareness, implicit, modelio, transforms, unawareness

    out = {}
    for atoms, worlds in CELLS:
        rng = random.Random(f"grid:{seed}:a{atoms}w{worlds}")
        model = modelio.data_to_model(awareness_data(rng, atoms, worlds))

        def timed(stage, fn, *args):
            start = time.perf_counter()
            value = fn(*args)
            out[f"grid.a{atoms}w{worlds}.{stage}_ms"] = (time.perf_counter() - start) * 1000
            return value

        lattice_model = timed("category_to_implicit", lambda: transforms.category_to_implicit(
            awareness.build_category(model)))
        complemented = timed("derive_pi_star", implicit.derive_pi_star, lattice_model)
        timed("explicit_suite", unawareness.explicit_property_suite, complemented.base)
        timed("implicit_suite", implicit.implicit_property_suite, complemented)
    return out
