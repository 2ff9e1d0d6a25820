"""The logic of propositional awareness: axiom schemata, Hilbert-style proof
checking, and empirical soundness fuzzing.

A proof is a sequence of lines, each justified as a propositional tautology
(verified by truth-tabling the propositional skeleton), an axiom-schema
instance (verified by structural matching), modus ponens, or necessitation
for the implicit-knowledge modality.  Those two are the only inference
rules; everything else in the axiom block is a schema.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Mapping, Sequence

from .awareness import AwarenessCategory, _fh_extension
from .gen import GenCaps, gen_fh, random_formula
from .reports import Report
from .semantics import valid_in_model
from .syntax import (
    A,
    And,
    Atom,
    Formula,
    K,
    L,
    Not,
    TOP,
    Top,
    atoms as formula_atoms,
    iff,
    imp,
    render,
)


# -- schema patterns -----------------------------------------------------------


@dataclass(frozen=True)
class MetaFormula:
    name: str


@dataclass(frozen=True)
class MetaAgent:
    name: str


_PHI = MetaFormula("phi")
_PSI = MetaFormula("psi")
_I = MetaAgent("i")
_J = MetaAgent("j")

# The fourteen schemata: the two entries "top" and "taut" cover the constant
# true and the substitution instances of propositional logic; the rest are
# the structural axioms for awareness and the partitional laws of implicit
# knowledge.
SCHEMAS: dict[str, object] = {
    "top": TOP,
    "taut": None,  # handled by skeleton truth-tabling, not structural matching
    "l-dist": imp(And(L(_I, _PHI), imp(L(_I, _PHI), L(_I, _PSI))), L(_I, _PSI)),
    "k-def": iff(K(_I, _PHI), And(L(_I, _PHI), A(_I, _PHI))),
    "a-conj": iff(A(_I, And(_PHI, _PSI)), And(A(_I, _PHI), A(_I, _PSI))),
    "a-neg": iff(A(_I, Not(_PHI)), A(_I, _PHI)),
    "a-k": iff(A(_I, K(_J, _PHI)), A(_I, _PHI)),
    "a-a": iff(A(_I, A(_J, _PHI)), A(_I, _PHI)),
    "a-l": iff(A(_I, L(_J, _PHI)), A(_I, _PHI)),
    "a-pos-intro": imp(A(_I, _PHI), L(_I, A(_I, _PHI))),
    "a-neg-intro": imp(Not(A(_I, _PHI)), L(_I, Not(A(_I, _PHI)))),
    "l-t": imp(L(_I, _PHI), _PHI),
    "l-4": imp(L(_I, _PHI), L(_I, L(_I, _PHI))),
    "l-5": imp(Not(L(_I, _PHI)), L(_I, Not(L(_I, _PHI)))),
}

SCHEMA_NAMES = tuple(SCHEMAS)

# Tautology shapes used when fuzzing the "taut" schema.
TAUT_TEMPLATES: tuple[Formula, ...] = (
    imp(_PHI, _PHI),
    imp(_PHI, imp(_PSI, _PHI)),
    imp(And(_PHI, _PSI), _PHI),
    imp(And(_PHI, _PSI), _PSI),
    Not(And(_PHI, Not(_PHI))),
    iff(_PHI, Not(Not(_PHI))),
    imp(And(imp(_PHI, _PSI), _PHI), _PSI),
)


def _unify(pattern, f: Formula, env: dict) -> dict | None:
    if isinstance(pattern, MetaFormula):
        bound = env.get(pattern.name)
        if bound is None:
            env[pattern.name] = f
            return env
        return env if bound == f else None
    if isinstance(pattern, Top):
        return env if isinstance(f, Top) else None
    if isinstance(pattern, Atom):
        return env if f == pattern else None
    if isinstance(pattern, Not):
        return _unify(pattern.child, f.child, env) if isinstance(f, Not) else None
    if isinstance(pattern, And):
        if not isinstance(f, And):
            return None
        env = _unify(pattern.left, f.left, env)
        return None if env is None else _unify(pattern.right, f.right, env)
    if isinstance(pattern, (L, A, K)):
        if type(f) is not type(pattern):
            return None
        agent = pattern.agent
        if isinstance(agent, MetaAgent):
            bound = env.get(agent.name)
            if bound is None:
                env[agent.name] = f.agent
            elif bound != f.agent:
                return None
        elif agent != f.agent:
            return None
        return _unify(pattern.child, f.child, env)
    raise TypeError(f"not a pattern node: {pattern!r}")


def substitute(pattern, env: Mapping) -> Formula:
    """Instantiate a schema pattern with formulas for the formula
    metavariables and agent ids for the agent metavariables."""
    if isinstance(pattern, MetaFormula):
        return env[pattern.name]
    if isinstance(pattern, (Top, Atom)):
        return pattern
    if isinstance(pattern, Not):
        return Not(substitute(pattern.child, env))
    if isinstance(pattern, And):
        return And(substitute(pattern.left, env), substitute(pattern.right, env))
    if isinstance(pattern, (L, A, K)):
        agent = pattern.agent
        if isinstance(agent, MetaAgent):
            agent = env[agent.name]
        return type(pattern)(agent, substitute(pattern.child, env))
    raise TypeError(f"not a pattern node: {pattern!r}")


def match_schema(name: str, f: Formula) -> dict | None:
    """The metavariable assignment turning the named schema into ``f``, or
    ``None`` when none exists.  Matching is structural except for ``taut``,
    which truth-tables the propositional skeleton."""
    if name not in SCHEMAS:
        raise ValueError(f"unknown schema {name!r}; known: {', '.join(SCHEMA_NAMES)}")
    if name == "taut":
        return {} if skeleton_tautology(f) else None
    pattern = SCHEMAS[name]
    return _unify(pattern, f, {})


_SKELETON_VAR_CAP = 16


def skeleton_tautology(f: Formula) -> bool:
    """Truth-table the propositional skeleton of ``f``: maximal modal
    subformulas and atoms become opaque letters.  Sound, and complete up to
    a cap of 16 distinct letters (beyond that, reject)."""
    letters: dict[Formula, int] = {}

    def collect(node: Formula) -> None:
        if isinstance(node, Top):
            return
        if isinstance(node, (Atom, L, A, K)):
            letters.setdefault(node, len(letters))
            return
        if isinstance(node, Not):
            collect(node.child)
            return
        collect(node.left)
        collect(node.right)

    collect(f)
    if len(letters) > _SKELETON_VAR_CAP:
        return False

    def evaluate(node: Formula, row: tuple[bool, ...]) -> bool:
        if isinstance(node, Top):
            return True
        if isinstance(node, (Atom, L, A, K)):
            return row[letters[node]]
        if isinstance(node, Not):
            return not evaluate(node.child, row)
        return evaluate(node.left, row) and evaluate(node.right, row)

    return all(evaluate(f, row) for row in product((False, True), repeat=len(letters)))


# -- proof checking ---------------------------------------------------------------


@dataclass(frozen=True)
class Taut:
    pass


@dataclass(frozen=True)
class AxiomInstance:
    name: str
    hint: tuple[tuple[str, object], ...] = ()


@dataclass(frozen=True)
class ModusPonens:
    premise: int
    implication: int


@dataclass(frozen=True)
class Necessitation:
    source: int


Justification = Taut | AxiomInstance | ModusPonens | Necessitation


@dataclass(frozen=True)
class ProofLine:
    formula: Formula
    justification: Justification


@dataclass(frozen=True)
class ProofVerdict:
    accepted: bool
    failed_line: int | None = None
    reason: str | None = None

    def __str__(self) -> str:
        if self.accepted:
            return "accepted"
        return f"rejected at line {self.failed_line}: {self.reason}"


def check_proof(lines: Sequence[ProofLine]) -> ProofVerdict:
    """Accept iff every line is justified; the verdict carries the first
    failing line (1-based)."""
    for number, line in enumerate(lines, start=1):
        how = line.justification
        if isinstance(how, Taut):
            if not skeleton_tautology(line.formula):
                return ProofVerdict(False, number, "not a propositional tautology")
        elif isinstance(how, AxiomInstance):
            if how.name not in SCHEMAS:
                return ProofVerdict(False, number, f"unknown schema {how.name!r}")
            env = match_schema(how.name, line.formula)
            if env is None:
                return ProofVerdict(False, number,
                                    f"not an instance of schema {how.name!r}")
            for key, value in how.hint:
                if key not in env or env[key] != value:
                    return ProofVerdict(
                        False, number,
                        f"stated substitution {key}={_hint_str(value)} does not match")
        elif isinstance(how, ModusPonens):
            for ref in (how.premise, how.implication):
                if not 1 <= ref < number:
                    return ProofVerdict(False, number,
                                        f"reference to line {ref} out of range")
            premise = lines[how.premise - 1].formula
            implication = lines[how.implication - 1].formula
            if implication != imp(premise, line.formula):
                return ProofVerdict(
                    False, number,
                    f"line {how.implication} is not the implication from "
                    f"line {how.premise} to this line")
        elif isinstance(how, Necessitation):
            if not 1 <= how.source < number:
                return ProofVerdict(False, number,
                                    f"reference to line {how.source} out of range")
            if not (isinstance(line.formula, L)
                    and line.formula.child == lines[how.source - 1].formula):
                return ProofVerdict(False, number,
                                    "not the necessitation of the cited line")
        else:
            return ProofVerdict(False, number, f"unknown justification {how!r}")
    return ProofVerdict(True)


def _hint_str(value) -> str:
    return render(value) if isinstance(value, Formula) else str(value)


# -- soundness fuzzing ---------------------------------------------------------------


def category_valid(category: AwarenessCategory, f: Formula):
    """Validity in a category: true at every world of every member model
    whose language defines the formula."""
    need = formula_atoms(f)
    for space, model in sorted(category.models.items(), key=lambda kv: -len(kv[0])):
        if not need <= space:
            continue
        # The member's language holds the formula's atoms, as checked above.
        fails = ((1 << len(model.worlds)) - 1) & ~_fh_extension(model, f)
        if fails:
            world = model.worlds[(fails & -fails).bit_length() - 1]
            return False, f"{render(f)} fails at world {world} of member " \
                          f"{','.join(sorted(space))}"
    return True, None


def model_valid(model, f: Formula):
    ok, witness = valid_in_model(model, f)
    if ok:
        return True, None
    return False, f"{render(f)} fails at state {witness}"


def _trial_models(seed: int, trial: int, caps: GenCaps):
    """One generated awareness model's sublanguage category, and the
    implicit and complemented lattice models built from that one category."""
    from .transforms import build_category, category_to_implicit

    category = build_category(gen_fh(seed * 1_000_003 + trial, caps))
    implicit = category_to_implicit(category)
    return (
        ("category", category),
        ("complemented", implicit.derived()),
        ("implicit", implicit),
    )


def instantiate(name: str, rng: random.Random, atoms, agents, depth: int) -> Formula:
    """A random instance of the named schema."""
    pattern = SCHEMAS[name]
    if name == "taut":
        pattern = TAUT_TEMPLATES[rng.randrange(len(TAUT_TEMPLATES))]
    elif name == "top":
        return TOP
    env = {
        "phi": random_formula(rng, atoms, agents, depth),
        "psi": random_formula(rng, atoms, agents, depth),
        "i": rng.choice(sorted(agents)),
        "j": rng.choice(sorted(agents)),
    }
    return substitute(pattern, env)


def fuzz_soundness(trials: int, depth: int = 2, caps: GenCaps = GenCaps(),
                   seed: int = 0) -> Report:
    """Random axiom instances must be valid, in the definedness-relative
    sense, on a random category and on the complemented and implicit
    lattice models (the report's ``model_class``), and the two inference
    rules must preserve validity on them.

    Each trial generates one awareness model and builds one sublanguage
    category from it; the implicit lattice model is that category
    repackaged, and the complemented model is derived from the implicit
    one, so the three share one pipeline run."""
    report = Report()
    for trial in range(trials):
        models = _trial_models(seed, trial, caps)
        rng = random.Random(f"lpa:{seed}:{trial}")
        _, category = models[0]
        atoms = sorted(category.atoms)
        agents = sorted(category.agents)

        instances = []
        for name in SCHEMA_NAMES:
            instance = instantiate(name, rng, atoms, agents, depth)
            instances.append(instance)
            for kind, model in models:
                check = category_valid if kind == "category" else model_valid
                report.count()
                ok, witness = check(model, instance)
                if not ok:
                    report.add("axiom-validity", schema=name, model_class=kind,
                               trial=trial, witness=witness)

        # Rule preservation: seed both rules with the known-valid axiom
        # instances so the conditional checks are never vacuous.
        phi = instances[rng.randrange(len(instances))]
        psi = instances[rng.randrange(len(instances))]
        bridge = imp(phi, psi)
        agent = rng.choice(agents)
        for kind, model in models:
            check = category_valid if kind == "category" else model_valid
            if check(model, phi)[0] and check(model, bridge)[0]:
                report.count()
                ok, witness = check(model, psi)
                if not ok:
                    report.add("modus-ponens-preserves-validity", model_class=kind,
                               trial=trial, witness=witness)
            if check(model, phi)[0]:
                report.count()
                ok, witness = check(model, L(agent, phi))
                if not ok:
                    report.add("necessitation-preserves-validity", model_class=kind,
                               trial=trial, witness=witness)
    return report
