"""The tracer wraps every namespace that binds a layer function, attributes
self time through nested calls, and restores every original."""

import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import layertrace  # noqa: E402
import modelgen  # noqa: E402
from awarekit import awareness, cli, gen, modelio, transforms, unawareness  # noqa: E402


def bindings():
    return (transforms.build_category, awareness.build_category, cli.gen_fh, gen.gen_fh,
            unawareness.SpaceLattice.__init__)


def test_install_wraps_every_binding_and_uninstall_restores():
    model = modelio.data_to_model(modelgen.awareness_data(random.Random(0), 2, 6))
    originals = bindings()
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert all(a is not b for a, b in zip(bindings(), originals))
        transforms.hms_transform(model)
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert bindings() == originals

    metrics = tracer.metrics()
    assert metrics["transforms.hms_transform.calls"][0] == 1
    assert metrics["awareness.build_category.calls"][0] == 1
    assert metrics["implicit.derive_pi_star.calls"][0] == 1
    # One member per sublanguage of the two atoms.
    assert metrics["awareness.AwarenessModel.calls"][0] == 4
    assert metrics["size.states"][0] == 4 * 6
    assert metrics["build_category.useful_ratio"][0] == 1.0
    assert metrics["validate.useful_ratio"][0] < 1.0
    self_ms = [metrics[f"{name}.self_ms"][0] for name in layertrace.LAYERS]
    assert sum(self_ms) > 0
    assert min(self_ms) > -1e-6  # a span's children lie inside it

