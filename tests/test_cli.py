"""Command-line interface: subcommands, exit codes, and output formats."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import awarekit
from awarekit.cli import main
from awarekit.fixtures import fixture_path, proof_path
from awarekit.awareness import fh_satisfies
from awarekit.lpa import check_proof
from awarekit.modelio import load_model, load_proof, model_to_data
from awarekit.reports import Report
from awarekit.syntax import parse

FIG1L = str(fixture_path("fig1L.model"))
FIG1R = str(fixture_path("fig1R.model"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_fixture(capsys):
    code, out, _ = run(capsys, "validate", FIG1L)
    assert code == 0
    assert "PASS" in out


def test_validate_data_format_round_trips(capsys):
    code, out, _ = run(capsys, "validate", FIG1L, "--format", "data")
    assert code == 0
    report = Report.from_data(json.loads(out))
    assert report.ok and report.checked > 0


def test_validate_detects_violations(tmp_path, capsys):
    data = model_to_data(load_model(FIG1L))
    data["pi"]["1"]["q:q"] = ["q:q"]
    bad = tmp_path / "bad.model"
    bad.write_text(json.dumps(data))
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    assert "projections-preserve-ignorance" in out


def test_check_single_state(capsys):
    code, out, _ = run(capsys, "check", FIG1L, "--formula", "a_1 q",
                       "--state", "p,q:pq")
    assert code == 0
    assert out.strip() == "False"


def test_check_space_key_without_commas_is_input_error(capsys):
    code, _, err = run(capsys, "check", FIG1L, "--formula", "a_1 q",
                       "--state", "pq:pq")
    assert code == 2
    assert "no space for state token 'pq:pq'" in err


def test_check_canonical_space_key(capsys):
    code, out, _ = run(capsys, "check", FIG1R, "--formula", "l_1 q",
                       "--state", "p,q:pq")
    assert code == 0
    assert out.strip() == "True"


def test_check_space_key_in_any_order(capsys):
    """A space key is read as a set of atoms, so ``q,p`` names ``p,q``."""
    assert run(capsys, "check", FIG1R, "--formula", "l_1 q", "--state", "q,p:pq") == \
        run(capsys, "check", FIG1R, "--formula", "l_1 q", "--state", "p,q:pq")


def test_check_all_states(capsys):
    code, out, _ = run(capsys, "check", FIG1L, "--formula", "p", "--all")
    assert code == 0
    assert "q:q\tUndefined" in out
    assert "p:p\tTrue" in out


def test_check_unknown_state_is_input_error(capsys):
    code, _, err = run(capsys, "check", FIG1L, "--formula", "p",
                       "--state", "p,q:ghost")
    assert code == 2
    assert "error" in err


def test_check_bad_formula_is_input_error(capsys):
    code, _, err = run(capsys, "check", FIG1L, "--formula", "k_9 p",
                       "--state", "p,q:pq")
    assert code == 2


@pytest.fixture
def fig1R_fh(tmp_path, capsys):
    """The awareness model of fig1R's top space, written to a file."""
    path = tmp_path / "fig1R.fh"
    assert run(capsys, "transform", FIG1R, "--to", "fh", "--out", str(path))[0] == 0
    return str(path)


def test_check_on_an_awareness_model(fig1R_fh, capsys):
    model, formula = load_model(fig1R_fh), "l_1 q"
    values = {w: str(fh_satisfies(model, w, parse(formula))) for w in model.worlds}
    code, out, err = run(capsys, "check", fig1R_fh, "--formula", formula, "--all")
    assert (code, err) == (0, "")
    assert out == "".join(f"{w}\t{values[w]}\n" for w in model.worlds)
    for world in model.worlds:
        assert run(capsys, "check", fig1R_fh, "--formula", formula, "--state", world) == \
            (0, values[world] + "\n", "")
    code, out, _ = run(capsys, "check", fig1R_fh, "--formula", formula, "--all",
                       "--format", "data")
    assert code == 0 and json.loads(out) == {"formula": formula, "values": values}


@pytest.mark.parametrize("flags, message", [
    (["--state", "ghost"], "no world 'ghost'"),
    ([], "check needs --state or --all"),
    (["--state", ""], "check needs --state or --all"),
], ids=["unknown-world", "neither-flag", "empty-state"])
def test_check_on_an_awareness_model_input_errors(fig1R_fh, capsys, flags, message):
    assert run(capsys, "check", fig1R_fh, "--formula", "l_1 q", *flags) == \
        (2, "", f"error: {message}\n")


@pytest.mark.parametrize("bare, message", [
    (False, "check needs --state or --all"),
    (True, "check needs a complemented or implicit model "
           "(a bare 'pi' model has no implicit layer)"),
], ids=["complemented", "bare-pi"])
def test_check_without_a_state_on_a_lattice_model(bare, message, tmp_path, capsys):
    """A bare-Π model is rejected for its family before the missing flag."""
    data = model_to_data(load_model(FIG1L))
    if bare:
        del data["lambda"]
    path = tmp_path / "source.model"
    path.write_text(json.dumps(data))
    assert run(capsys, "check", str(path), "--formula", "p") == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("source", ["fig1L", "fig1R", "fh"])
def test_transform_to_fh_star_needs_an_implicit_model(source, fig1R_fh, tmp_path, capsys):
    path = {"fig1L": FIG1L, "fig1R": FIG1R, "fh": fig1R_fh}[source]
    out = tmp_path / "out.fh"
    assert run(capsys, "transform", path, "--to", "fh-star", "--out", str(out)) == \
        (2, "", "error: --to fh-star needs an implicit model file "
                "(with 'lambda_star' and 'alpha')\n")
    assert not out.exists()


def test_transform_and_equiv_pipeline(tmp_path, capsys):
    out_path = tmp_path / "fig1R.fh"
    code, _, _ = run(capsys, "transform", FIG1R, "--to", "fh",
                     "--out", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "equiv", FIG1R, str(out_path),
                       "--via", "fh", "--depth", "2")
    assert code == 0
    assert "PASS" in out


def test_transform_direction_mismatch(capsys):
    code, _, err = run(capsys, "transform", FIG1L, "--to", "hms")
    assert code == 2


def test_transform_round_trip_through_files(tmp_path, capsys):
    fh_path = tmp_path / "top.fh"
    hms_path = tmp_path / "back.model"
    assert run(capsys, "transform", FIG1R, "--to", "fh", "--out", str(fh_path))[0] == 0
    assert run(capsys, "transform", str(fh_path), "--to", "hms",
               "--out", str(hms_path))[0] == 0
    code, out, _ = run(capsys, "equiv", str(fh_path), str(hms_path),
                       "--via", "hms", "--depth", "2")
    assert code == 0
    assert "PASS" in out


def test_dump_category(tmp_path, capsys):
    fh_path = tmp_path / "top.fh"
    run(capsys, "transform", FIG1R, "--to", "fh", "--out", str(fh_path))
    out_dir = tmp_path / "category"
    code, _, _ = run(capsys, "transform", str(fh_path), "--to", "implicit-hms",
                     "--out", str(tmp_path / "im.model"),
                     "--dump-category", str(out_dir))
    assert code == 0
    manifest = json.loads((out_dir / "category.json").read_text())
    assert set(manifest["members"]) == {"", "p", "q", "p,q"}
    member = load_model(out_dir / manifest["members"]["p"])
    assert member.language_atoms == frozenset({"p"})


@pytest.mark.parametrize("direction, family", [("fh", "hms"), ("fh-star", "implicit-hms")])
@pytest.mark.parametrize("flag", ["--minimize", "--dump-category"])
def test_category_flags_need_a_transform_to_a_lattice_family(tmp_path, capsys, direction,
                                                             family, flag):
    """Only the transforms to ``hms`` and ``implicit-hms`` build a
    category, so the other directions reject its flags and write nothing."""
    source = str(tmp_path / "source.model")
    assert run(capsys, "gen", "--seed", "1", "--family", family, "--out", source)[0] == 0
    out, dump = tmp_path / "out.fh", tmp_path / "dump"
    argv = ["transform", source, "--to", direction, "--out", str(out), flag]
    code, _, err = run(capsys, *argv, *([str(dump)] if flag == "--dump-category" else []))
    assert code == 2
    assert err == f"error: {flag} needs --to hms or --to implicit-hms\n"
    assert not out.exists() and not dump.exists()


def test_gen_writes_valid_model(tmp_path, capsys):
    out_path = tmp_path / "gen.model"
    code, _, _ = run(capsys, "gen", "--seed", "9", "--family", "hms",
                     "--out", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "validate", str(out_path))
    assert code == 0


def test_gen_bad_caps(capsys):
    code, _, err = run(capsys, "gen", "--seed", "1", "--caps", "atoms=0")
    assert code == 2


@pytest.mark.parametrize("caps, message", [
    ("atoms", "bad caps entry 'atoms'; expected name=value"),
    ("atoms=3,colors=2", "unknown cap 'colors'; expected atoms/worlds/agents"),
    ("atoms=three", "cap 'atoms' needs an integer"),
    ("atoms=3,atoms=4", "cap 'atoms' is given twice"),
    ("worlds=5,atoms=3,worlds=5", "cap 'worlds' is given twice"),
], ids=["no-equals", "unknown", "not-integer", "repeated", "repeated-same-value"])
@pytest.mark.parametrize("command", [["gen", "--seed", "1"], ["fuzz", "--trials", "1"],
                                     ["lpa", "fuzz", "--trials", "1"]],
                         ids=["gen", "fuzz", "lpa-fuzz"])
def test_bad_caps_are_input_errors(command, caps, message, capsys):
    """A repeated cap is an error, as a key repeated in a model file is,
    rather than the last value silently winning."""
    assert run(capsys, *command, "--caps", caps) == (2, "", f"error: {message}\n")


def test_fuzz_subcommand(capsys):
    code, out, _ = run(capsys, "fuzz", "--trials", "2", "--seed", "5")
    assert code == 0
    assert "PASS" in out


def test_lpa_check_accepts_and_rejects(capsys):
    code, out, _ = run(capsys, "lpa", "check",
                       str(proof_path("good_necessitation_top.proof")))
    assert code == 0 and "accepted" in out
    code, out, _ = run(capsys, "lpa", "check",
                       str(proof_path("bad_07_not_a_tautology.proof")))
    assert code == 1 and "line 1" in out


@pytest.mark.parametrize("name", ["good_necessitation_top.proof",
                                  "bad_07_not_a_tautology.proof"])
def test_lpa_check_data_format(name, capsys):
    code, out, err = run(capsys, "lpa", "check", str(proof_path(name)), "--format", "data")
    verdict = check_proof(load_proof(proof_path(name)))
    assert code == (0 if verdict.accepted else 1) and err == ""
    assert json.loads(out) == {"accepted": verdict.accepted,
                               "failed_line": verdict.failed_line, "reason": verdict.reason}
    assert verdict.accepted == name.startswith("good")


@pytest.mark.parametrize("by, message", [
    ('5', "'by' must be a string"),
    ('["taut"]', "'by' must be a string"),
    ('"ax:a-neg phi=\\"p"', "bad 'by' field: No closing quotation"),
    ('""', "empty 'by' field"),
    ('" "', "empty 'by' field"),
    ('"ax:a-neg phi"', "bad substitution 'phi'"),
    ('"ax:a-neg chi=p"', "unknown metavariable 'chi'"),
    ('"ax:a-neg phi=~"', "unexpected end of input (at offset 1)"),
    ('"mp 1"', "'mp' needs two line numbers"),
    ('"mp 1 x"', "'mp' needs integers"),
    ('"nec"', "'nec' needs one line number"),
    ('"nec x"', "'nec' needs an integer"),
    ('"ax:a-neg phi=p i=!!"', "i='!!' is not an agent id"),
    ('"ax:a-neg phi=p i="', "i='' is not an agent id"),
    ('"ax:a-neg phi=p phi=q"', "metavariable 'phi' is given twice"),
], ids=["number", "list", "unbalanced-quote", "empty", "blank", "hint-without-equals",
        "unknown-metavariable", "bad-hint-formula", "mp-one-line", "mp-not-integers",
        "nec-no-line", "nec-not-integer", "hint-not-an-agent", "hint-empty-agent",
        "hint-twice"])
def test_lpa_check_bad_justification_is_input_error(tmp_path, capsys, by, message):
    proof = tmp_path / "bad.proof"
    proof.write_text('{"formula": "T", "by": "taut"}\n{"formula": "T", "by": %s}\n' % by)
    code, out, err = run(capsys, "lpa", "check", str(proof))
    assert (code, out, err) == (2, "", f"error: line 2: {message}\n")


def test_lpa_check_bad_formula_names_its_line(tmp_path, capsys):
    proof = tmp_path / "bad.proof"
    proof.write_text('{"formula": "T", "by": "taut"}\n{"formula": "((p", "by": "taut"}\n')
    assert run(capsys, "lpa", "check", str(proof)) == \
        (2, "", "error: line 2: expected ')' (at offset 3)\n")


def test_lpa_fuzz(capsys):
    code, out, _ = run(capsys, "lpa", "fuzz", "--trials", "3", "--seed", "2")
    assert code == 0


def test_dot_export(tmp_path, capsys):
    dot = tmp_path / "lattice.dot"
    code, _, _ = run(capsys, "validate", FIG1L, "--dot", str(dot))
    assert code == 0
    assert dot.read_text().startswith("digraph")


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "validate", "no-such-file.model")
    assert code == 2


def test_usage_error_is_exit_two(capsys):
    assert main(["transform", FIG1L]) == 2


@pytest.mark.parametrize("argv", [
    ["equiv", FIG1R, FIG1L, "--via", "fh", "--depth", "-1"],
    ["fuzz", "--trials", "0"],
    ["fuzz", "--trials", "-2"],
    ["lpa", "fuzz", "--trials", "0"],
    ["lpa", "fuzz", "--trials", "1", "--depth", "-1"],
], ids=" ".join)
def test_nonsense_count_is_a_bad_flag(argv, capsys):
    """A negative depth or a trial count below one is refused, not run
    as a vacuous PASS."""
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "must be at least" in err


def test_least_counts_still_run(tmp_path, capsys):
    fh_path = tmp_path / "fig1R.fh"
    assert run(capsys, "transform", FIG1R, "--to", "fh", "--out", str(fh_path))[0] == 0
    code, out, _ = run(capsys, "equiv", FIG1R, str(fh_path), "--via", "fh", "--depth", "0")
    assert code == 0 and "PASS" in out
    for argv in (["fuzz", "--trials", "1"], ["lpa", "fuzz", "--trials", "1", "--depth", "0"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "PASS" in out


def test_unexpected_exception_is_internal_error(monkeypatch, capsys):
    from awarekit import cli

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_validate", broken)
    code, out, err = run(capsys, "validate", FIG1L)
    assert code == cli.EXIT_INTERNAL == 3
    assert out == ""
    assert err.startswith("internal error: RuntimeError: boom")
    assert "Traceback" in err


def test_deeply_nested_formula_is_input_error(capsys):
    code, out, err = run(capsys, "check", FIG1L, "--formula", "~" * 3000 + "p", "--all")
    assert code == 2
    assert "nests deeper" in err and out == ""


def test_atom_that_cannot_round_trip_is_input_error(tmp_path, capsys):
    model = tmp_path / "comma.model"
    model.write_text(json.dumps({
        "atoms": ["p,q"], "agents": ["1"], "worlds": ["w0"],
        "relations": {"1": [["w0", "w0"]]},
        "awareness": {"1": {"w0": ["p,q"]}},
        "valuation": {"p,q": ["w0"]},
    }))
    for argv in (["validate", str(model)], ["transform", str(model), "--to", "hms"]):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "'p,q' is not a valid atom name" in err and out == ""


def _write_fh(path, worlds, relation, valuation):
    path.write_text(json.dumps({
        "atoms": ["p"], "agents": ["1"], "worlds": worlds,
        "relations": {"1": relation},
        "awareness": {"1": {w: ["p"] for w in worlds}},
        "valuation": {"p": valuation},
    }))
    return str(path)


def test_empty_world_id_is_input_error(tmp_path, capsys):
    model = _write_fh(tmp_path / "empty.model", ["", "w1"],
                      [["", ""], ["w1", "w1"]], [""])
    for argv in (["validate", model], ["transform", model, "--to", "hms"]):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "world ids must be non-empty" in err and out == ""


def test_minimize_keeps_world_names_with_plus(tmp_path, capsys):
    model = _write_fh(tmp_path / "plus.model", ["a+b", "c"],
                      [[w, t] for w in ("a+b", "c") for t in ("a+b", "c")], ["a+b"])
    out_path = tmp_path / "plus.hms"
    code, _, err = run(capsys, "transform", model, "--to", "hms", "--minimize",
                       "--out", str(out_path))
    assert code == 0, err
    assert load_model(out_path).lattice.has_space(frozenset({"p"}))
    code, out, _ = run(capsys, "validate", str(out_path))
    assert code == 0 and "PASS" in out


def test_minimize_quotient_name_collision_is_input_error(tmp_path, capsys):
    # With p, worlds a and b are equivalent and named "a+b", which is also
    # the name of the singleton block of world a+b.
    model = _write_fh(tmp_path / "clash.model", ["a", "b", "a+b"],
                      [["a", "a"], ["b", "b"], ["a+b", "a+b"]], ["a", "b"])
    code, out, err = run(capsys, "transform", model, "--to", "hms", "--minimize")
    assert code == 2
    assert "would both be named 'a+b'" in err and out == ""


def test_transform_builds_the_category_once(tmp_path, capsys, monkeypatch):
    from awarekit import awareness, transforms

    calls = []
    real = awareness.build_category
    for module in (awareness, transforms):
        monkeypatch.setattr(module, "build_category",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
    fh_path = tmp_path / "top.fh"
    run(capsys, "transform", FIG1R, "--to", "fh", "--out", str(fh_path))
    code, _, _ = run(capsys, "transform", str(fh_path), "--to", "hms",
                     "--out", str(tmp_path / "out.model"),
                     "--dump-category", str(tmp_path / "category"))
    assert code == 0 and len(calls) == 1


@pytest.mark.parametrize("argv", [
    ["check", FIG1L, "--formula", "p", "--all"],
    ["gen", "--seed", "0", "--family", "hms", "--caps", "atoms=4,worlds=8"],
], ids=["small", "large"])
def test_closed_stdout_is_an_io_error(argv):
    """Standard output is a pipe whose reader has already gone: exit 2, and
    nothing on stderr about it, whether the output fits the stream's buffer
    or not."""
    read, write = os.pipe()
    os.close(read)
    src = str(Path(awarekit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    try:
        proc = subprocess.run([sys.executable, "-m", "awarekit.cli", *argv],
                              stdout=write, stderr=subprocess.PIPE, text=True,
                              env=env, timeout=120)
    finally:
        os.close(write)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr and "internal error" not in proc.stderr


def _fresh_process(argv):
    src = str(Path(awarekit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-m", "awarekit.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_one_parser_serves_every_call(capsys):
    """``main`` builds its parser once per process.  A usage error, then
    ``validate``, ``check`` and ``lpa fuzz`` in one process give the exit
    codes and output that each gives in a fresh process."""
    calls = [
        ["transform", FIG1L],
        ["validate", FIG1L, "--format", "data"],
        ["check", FIG1L, "--formula", "k_1 p -> l_1 p", "--all"],
        ["lpa", "fuzz", "--trials", "1", "--format", "data"],
    ]
    in_process = [run(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in in_process] == [2, 0, 0, 0]
    assert in_process == [_fresh_process(argv) for argv in calls]
