"""Schema matching, proof checking, and the soundness fuzz."""

from __future__ import annotations

import json

import pytest

from awarekit.fixtures import proof_path
from awarekit.gen import GenCaps
from awarekit.lpa import (
    AxiomInstance,
    ModusPonens,
    Necessitation,
    ProofLine,
    SCHEMA_NAMES,
    Taut,
    check_proof,
    fuzz_soundness,
    match_schema,
    skeleton_tautology,
    substitute,
    SCHEMAS,
)
from awarekit.modelio import load_proof, parse_proof
from awarekit.semantics import valid_in_model
from awarekit.syntax import And, Atom, L, Not, parse


def test_fourteen_schemata():
    assert len(SCHEMA_NAMES) == 14


def test_match_awareness_negation():
    env = match_schema("a-neg", parse("a_1 ~p <-> a_1 p"))
    assert env == {"phi": Atom("p"), "i": "1"}


def test_match_explicit_definition():
    env = match_schema("k-def", parse("k_1 p <-> (l_1 p & a_1 p)"))
    assert env == {"phi": Atom("p"), "i": "1"}


def test_match_failure():
    assert match_schema("a-neg", parse("a_1 p -> a_1 q")) is None


def test_match_cross_agent_schema():
    env = match_schema("a-k", parse("a_1 k_2 (p & q) <-> a_1 (p & q)"))
    assert env["i"] == "1" and env["j"] == "2"


def test_match_unknown_schema_name():
    with pytest.raises(ValueError):
        match_schema("no-such-schema", parse("T"))


def test_substitute_round_trips_through_match():
    env = {"phi": parse("p & ~q"), "psi": parse("l_2 p"), "i": "1", "j": "2"}
    for name in SCHEMA_NAMES:
        if name in ("top", "taut"):
            continue
        instance = substitute(SCHEMAS[name], env)
        found = match_schema(name, instance)
        assert found is not None
        for key, value in found.items():
            assert env[key] == value


def test_skeleton_tautology():
    assert skeleton_tautology(parse("p -> p"))
    assert skeleton_tautology(parse("k_1 p | ~ k_1 p"))
    assert not skeleton_tautology(parse("p -> q"))
    # distinct modal subformulas get distinct letters
    assert not skeleton_tautology(parse("l_1 p -> l_1 q"))
    assert skeleton_tautology(parse("T"))


def test_single_line_top_by_tautology():
    verdict = check_proof([ProofLine(parse("T"), Taut())])
    assert verdict.accepted


def test_mp_on_non_implication_rejected():
    lines = [
        ProofLine(parse("T"), Taut()),
        ProofLine(parse("l_1 T"), Necessitation(1)),
        ProofLine(parse("T"), ModusPonens(1, 2)),
    ]
    verdict = check_proof(lines)
    assert not verdict.accepted and verdict.failed_line == 3


def test_acceptance_is_monotone_under_concatenation():
    prefix = load_proof(proof_path("good_explicit_implies_implicit.proof"))
    assert check_proof(prefix).accepted
    extended = prefix + [ProofLine(parse("l_1 (k_1 p -> l_1 p)"), Necessitation(3))]
    assert check_proof(extended).accepted


def test_shipped_proofs_match_manifest():
    manifest = json.loads(proof_path("manifest.json").read_text())
    for name in manifest["accepted"]:
        verdict = check_proof(load_proof(proof_path(name)))
        assert verdict.accepted, (name, verdict)
    for name, line in manifest["rejected"].items():
        verdict = check_proof(load_proof(proof_path(name)))
        assert not verdict.accepted and verdict.failed_line == line, (name, verdict)


def test_axiom_hint_verification():
    text = '{"formula": "a_1 ~p <-> a_1 p", "by": "ax:a-neg phi=p i=1"}'
    assert check_proof(parse_proof(text)).accepted
    bad = '{"formula": "a_1 ~p <-> a_1 p", "by": "ax:a-neg phi=q"}'
    assert not check_proof(parse_proof(bad)).accepted


def test_t_schema_instance_valid_on_fixture(fig1L):
    ok, _ = valid_in_model(fig1L, parse("l_1 T -> T"))
    assert ok


def test_soundness_fuzz_small():
    report = fuzz_soundness(trials=25, depth=2, caps=GenCaps(), seed=7)
    assert report.ok, report.violations[:3]


def test_soundness_fuzz_catches_broken_awareness(monkeypatch):
    """A deliberately broken awareness clause must produce counterexamples on
    the awareness axioms."""
    import awarekit.semantics as semantics_module
    from awarekit.unawareness import pi_space

    def strict(model, agent, event):
        lat = model.lattice
        need = event.base_space
        base = frozenset(state for state in lat.states_of(need)
                         if need < pi_space(model, agent, state))
        return lat.event(need, base)

    monkeypatch.setattr(semantics_module, "a_op", strict)
    report = fuzz_soundness(trials=6, depth=1, seed=3)
    assert not report.ok
    assert any(v.law == "axiom-validity" for v in report.violations)


@pytest.mark.parametrize("law, top", [
    ("modus-ponens-preserves-validity", And),
    ("necessitation-preserves-validity", L),
], ids=["modus-ponens", "necessitation"])
def test_soundness_fuzz_catches_a_check_that_breaks_a_rule(monkeypatch, law, top):
    """A planted defect in the validity check the fuzz trusts on lattice
    models: it checks the negation of every formula whose outermost
    connective is ``top``.  A valid premise of another shape still passes,
    and the rule's conclusion, a conjunction (an axiom instance of an
    ``iff`` schema) or ``l_i`` of the premise, fails with a state where
    its negation is false, so the rule is reported broken with that
    witness."""
    import awarekit.lpa as lpa_module

    real = lpa_module.model_valid

    def planted(model, f):
        return real(model, Not(f) if isinstance(f, top) else f)

    monkeypatch.setattr(lpa_module, "model_valid", planted)
    report = fuzz_soundness(trials=8, depth=1, seed=3)
    found = [v for v in report.violations if v.law == law]
    assert found
    for violation in found:
        assert violation.witness["model_class"] in {"complemented", "implicit"}
        assert " fails at state " in violation.witness["witness"]


def _verdict(*lines: tuple[str, str]) -> str:
    """The verdict on a proof of the given (formula, by) lines."""
    text = "\n".join(json.dumps({"formula": f, "by": by}) for f, by in lines)
    return str(check_proof(parse_proof(text)))


@pytest.mark.parametrize("formula, by, verdict", [
    ("T", "ax:top", "accepted"),
    ("p", "ax:top", "rejected at line 1: not an instance of schema 'top'"),
    ("a_1 p -> p", "ax:l-t", "rejected at line 1: not an instance of schema 'l-t'"),
    ("l_1 p -> l_1 p", "ax:taut", "accepted"),
    ("l_1 p -> p", "ax:taut", "rejected at line 1: not an instance of schema 'taut'"),
    ("l_1 p -> p", "ax:l-t phi=q",
     "rejected at line 1: stated substitution phi=q does not match"),
    ("l_1 p -> p", "ax:l-t phi=p i=2",
     "rejected at line 1: stated substitution i=2 does not match"),
], ids=["top", "top-on-p", "l-t-on-a", "taut-as-axiom", "non-taut-as-axiom",
        "phi-mismatch", "i-mismatch"])
def test_axiom_verdicts(formula, by, verdict):
    assert _verdict((formula, by)) == verdict


def test_tautologies_are_truth_tabled_up_to_sixteen_letters():
    """``p1 & ... & pn -> p1`` is a tautology of n letters: taken at 16,
    rejected past the cap, with the cap as the reason."""
    def conjunction_implies_first(n: int) -> str:
        return "(" + " & ".join(f"p{k}" for k in range(1, n + 1)) + ") -> p1"

    assert _verdict((conjunction_implies_first(16), "taut")) == "accepted"
    assert _verdict((conjunction_implies_first(17), "taut")) == \
        "rejected at line 1: 17 distinct letters exceed the 16-letter truth-table cap"


def test_category_validity_names_its_failing_world():
    from awarekit.awareness import build_category
    from awarekit.lpa import category_valid
    from awarekit.modelio import data_to_model

    model = data_to_model({
        "atoms": ["p"], "agents": ["1"], "worlds": ["w0", "w1"],
        "relations": {"1": [["w0", "w0"], ["w1", "w1"]]},
        "awareness": {"1": {"w0": ["p"], "w1": ["p"]}},
        "valuation": {"p": ["w1"]},
    })
    category = build_category(model)
    assert category_valid(category, parse("p | ~p")) == (True, None)
    assert category_valid(category, parse("p")) == (False, "p fails at world w0 of member p")
    assert category_valid(category, parse("~p")) == (False, "(~ p) fails at world w1 of member p")
