"""Totality of loading: a model file of any family with one value mutated,
deleted or repeated is read, or rejected as malformed input; it never ends
in an internal error."""

from __future__ import annotations

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from awarekit.cli import main as cli_main
from awarekit.errors import ModelFormatError
from awarekit.fixtures import fig1L
from awarekit.gen import gen_fh
from awarekit.implicit import implicit_from_complemented
from awarekit.modelio import data_to_model, model_to_data


def _unawareness() -> dict:
    data = model_to_data(fig1L())
    del data["lambda"]
    return data


FAMILIES = {
    "fh": lambda: model_to_data(gen_fh(1)),
    "unawareness": _unawareness,
    "complemented": lambda: model_to_data(fig1L()),
    "implicit": lambda: model_to_data(implicit_from_complemented(fig1L())),
}
JUNK = [None, 0, -1, 1.5, True, "", "x", ":", "->", [], {}, ["x"], {"x": "x"}]


def _paths(node, path=()):
    """The path of every value below the root, parents first."""
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _strings(node):
    if isinstance(node, str):
        yield node
    elif isinstance(node, dict):
        for key, child in node.items():
            yield key
            yield from _strings(child)
    elif isinstance(node, list):
        for child in node:
            yield from _strings(child)


def _respelled(key: str) -> str:
    """A key naming the same space or state with its atoms reversed."""
    head, sep, tail = key.partition(":")
    return ",".join(reversed(head.split(","))) + sep + tail


@st.composite
def mutated(draw, family: str) -> dict:
    """The family's file with one value replaced, deleted or repeated: a
    list member twice, a row entry again under a respelled key."""
    data = FAMILIES[family]()
    path = draw(st.sampled_from(list(_paths(data))))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    last = path[-1]
    how = draw(st.sampled_from(("replace", "delete", "repeat")))
    if how == "replace":
        parent[last] = draw(st.sampled_from(JUNK + sorted(set(_strings(data)))))
    elif how == "delete":
        del parent[last]
    elif isinstance(parent, list):
        parent.insert(last, parent[last])
    else:
        parent[_respelled(last)] = parent[last]
    return data


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_a_mutated_file_is_read_or_rejected(family, tmp_path):
    """``data_to_model`` raises nothing but :class:`ModelFormatError`, and
    ``validate`` exits 0, 1 or 2, never 3."""
    path = tmp_path / "mutated.model"

    @settings(max_examples=200, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(mutated(family))
    def check(data):
        with contextlib.suppress(ModelFormatError):
            data_to_model(data)
        path.write_text(json.dumps(data), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli_main(["validate", str(path)])
        assert code in (0, 1, 2), err.getvalue()

    check()
