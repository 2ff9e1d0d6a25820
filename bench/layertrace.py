"""Per-layer tracing of ``awarekit`` from outside the program.

``Tracer.install`` wraps each public function in ``LAYERS`` in every
``awarekit.*`` module namespace that binds it, so calls made inside the CLI
go through the wrapper, and wraps the ``__init__`` of the two model classes
whose construction is a layer cost.  Each call leaves a span (layer, start,
end, parent span) in memory; ``end_op`` turns one op's spans into calls and
self time per layer (a span's duration minus the durations of the child
spans it covers) and clears them.  Calls that take or return a model also
record it, for the waste ratios and size gauges.  ``uninstall`` restores
every original.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# Layer functions, named <module>.<public name>.  Classes are traced through
# their constructors.
LAYERS = (
    "modelio.load_model",
    "modelio.dumps_model",
    "gen.gen_fh",
    "awareness.validate_fh",
    "awareness.build_category",
    "awareness.AwarenessModel",
    "awareness.fh_extension",
    "unawareness.SpaceLattice",
    "unawareness.validate_hms",
    "unawareness.explicit_property_suite",
    "implicit.validate_lambda",
    "implicit.validate_implicit",
    "implicit.derive_pi_star",
    "implicit.implicit_property_suite",
    "implicit.a_star_property_suite",
    "transforms.category_to_implicit",
    "transforms.hms_transform",
    "transforms.equivalence_check",
    "semantics.extension",
    "semantics.satisfies",
    "semantics.valid_in_model",
    "enumeration.enumerate_formulas",
    "lpa.fuzz_soundness",
)
CLASSES = ("awareness.AwarenessModel", "unawareness.SpaceLattice")

# Waste ratios: distinct (function, model object) pairs over calls.  A model
# is immutable, so a second call on the same object repeats work.
WASTE = {
    "validate": ("awareness.validate_fh", "unawareness.validate_hms",
                 "implicit.validate_lambda", "implicit.validate_implicit"),
    "derive_pi_star": ("implicit.derive_pi_star",),
    "build_category": ("awareness.build_category",),
}
# Size gauges per op: states, spaces and projection entries (sum over states
# of 2^|space|) of the largest lattice built, and the correspondence pairs
# (relation pairs for awareness models) of the largest model validated,
# derived from or loaded.
SIZES = ("states", "spaces", "proj_entries", "corr_pairs")

# Which end-to-end metric each layer's numbers should move, and where.
MOVES = {
    "modelio": "op_p50_ms on validate-mixed and equiv-deep",
    "gen": "fuzz",
    "awareness": "AwarenessModel copies: peak_rss_mb and ops_per_s on fuzz; "
                 "fh_extension: equiv-deep",
    "unawareness": "ops_per_s on validate-mixed and fuzz; flat on equiv-deep ops",
    "implicit": "ops_per_s and op_p90_ms on fuzz; validators also validate-mixed",
    "transforms": "fuzz and setup_s of equiv-deep; equivalence_check self time: equiv-deep",
    "semantics": "ops_per_s on equiv-deep; lpa fuzz ops in fuzz",
    "enumeration": "equiv-deep",
    "lpa": "fuzz",
}


def _corr_pairs(model) -> int:
    if hasattr(model, "relations"):
        return sum(len(pairs) for pairs in model.relations.values())
    tables = [getattr(model, name, None) for name in ("pi", "lambda_", "lambda_star")]
    return sum(len(image) for corr in tables if corr
               for table in corr.values() for image in table.values())


def _lattice_sizes(lattice) -> tuple[int, int, int]:
    states = lattice.states
    return len(states), len(lattice.spaces), sum(2 ** len(ref.space) for ref in states)


class Tracer:
    """Spans and counts for the layers in ``LAYERS``, aggregated per op."""

    def __init__(self):
        self.spans: list = []          # (layer index, start, end, parent span index)
        self._stack = [-1]
        self._seen: list = []          # (layer index, model) of tracked calls
        self._restore: list = []
        self.ops = 0
        self.calls = [0] * len(LAYERS)
        self.self_s = [0.0] * len(LAYERS)
        self.errors = [0] * len(LAYERS)
        self.useful = dict.fromkeys(WASTE, 0)
        self.attempts = dict.fromkeys(WASTE, 0)
        self.sizes = dict.fromkeys(SIZES, 0)

    def _wrap(self, index: int, fn, track: str | None):
        """``fn`` with a span per call; ``track`` records the call's first
        argument ("arg") or its result ("result") for the op's model counts."""
        spans, stack, seen, errors = self.spans, self._stack, self._seen, self.errors
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if track == "arg":
                seen.append((index, args[0] if args else next(iter(kwargs.values()))))
            span = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[index] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[span] = (index, start, end, parent)
            if track == "result":
                seen.append((index, result))
            return result

        return traced

    def install(self) -> None:
        tracked = {name: "arg" for names in WASTE.values() for name in names}
        tracked["unawareness.SpaceLattice"] = "arg"
        tracked["modelio.load_model"] = "result"
        modules = [m for key, m in sys.modules.items()
                   if key == "awarekit" or key.startswith("awarekit.")]
        for index, name in enumerate(LAYERS):
            module_name, attr = name.split(".")
            original = getattr(importlib.import_module(f"awarekit.{module_name}"), attr)
            if name in CLASSES:
                init = original.__dict__["__init__"]
                original.__init__ = self._wrap(index, init, tracked.get(name))
                self._restore.append((original, "__init__", init))
                continue
            traced = self._wrap(index, original, tracked.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
                        self._restore.append((module, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def end_op(self) -> None:
        """Fold the spans and tracked calls of the op just run into the totals."""
        spans = self.spans
        for index, start, end, parent in spans:
            duration = end - start
            self.calls[index] += 1
            self.self_s[index] += duration
            if parent >= 0:
                self.self_s[spans[parent][0]] -= duration

        lattice_index = LAYERS.index("unawareness.SpaceLattice")
        op_sizes = dict.fromkeys(SIZES, 0)
        for group, names in WASTE.items():
            indices = {LAYERS.index(name) for name in names}
            calls = [(index, id(obj)) for index, obj in self._seen if index in indices]
            self.attempts[group] += len(calls)
            self.useful[group] += len(set(calls))
        for index, obj in self._seen:
            if index == lattice_index:
                states, spaces, proj = _lattice_sizes(obj)
                op_sizes["states"] = max(op_sizes["states"], states)
                op_sizes["spaces"] = max(op_sizes["spaces"], spaces)
                op_sizes["proj_entries"] = max(op_sizes["proj_entries"], proj)
            else:
                op_sizes["corr_pairs"] = max(op_sizes["corr_pairs"], _corr_pairs(obj))
        for key, value in op_sizes.items():
            self.sizes[key] += value

        self.ops += 1
        spans.clear()
        self._seen.clear()

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-op layer metrics, size gauges, waste ratios and error counts."""
        ops = max(self.ops, 1)
        out: dict[str, tuple[float, str]] = {}
        for index, name in enumerate(LAYERS):
            out[f"{name}.calls"] = (self.calls[index] / ops, "calls/op")
            out[f"{name}.self_ms"] = (self.self_s[index] * 1000 / ops, "ms/op")
            out[f"{name}.errors"] = (self.errors[index], "count")
        for key in SIZES:
            out[f"size.{key}"] = (self.sizes[key] / ops, "count/op")
        for group in WASTE:
            attempts = self.attempts[group]
            # With no attempts nothing was wasted.
            ratio = self.useful[group] / attempts if attempts else 1.0
            out[f"{group}.useful_ratio"] = (ratio, "ratio")
        return out
