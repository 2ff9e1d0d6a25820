"""Validation and property-suite reports.

Validators and suites never raise on a law violation; they collect one
:class:`Violation` per failed check, each with enough witness data to
reproduce the failure by hand.  A report with no violations means every
check that ran passed.

Models, their lattices and their per-agent rows are immutable: none may
be changed after construction.  So each group of laws is checked once per
object it reads, and the report is kept on that object by
:func:`memoised`: a lattice's own laws once per lattice, Λ's laws once per
agent row, which models may share, and the rest of each validator once per
model object.  Every call returns a fresh copy of a kept report, so a
caller may merge into what it gets.

A validator checks each primitive law of its model once, and ``checked``
counts those checks.  Consequences of the laws are not re-checked on every
model; the test suite checks them as theorems.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Violation:
    """One failed law instance: which law, for which agent, with what witness."""

    law: str
    agent: str | None = None
    witness: dict = field(default_factory=dict)

    def __str__(self) -> str:
        agent = f" agent={self.agent}" if self.agent is not None else ""
        parts = ", ".join(f"{k}={v}" for k, v in self.witness.items())
        return f"[{self.law}]{agent} {parts}".rstrip()

    def to_data(self) -> dict:
        return {"law": self.law, "agent": self.agent, "witness": dict(self.witness)}

    @staticmethod
    def from_data(data: dict) -> "Violation":
        return Violation(data["law"], data.get("agent"), dict(data.get("witness", {})))


@dataclass
class Report:
    """Outcome of a validator or property suite run."""

    violations: list[Violation] = field(default_factory=list)
    checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def count(self, n: int = 1) -> None:
        self.checked += n

    def add(self, law: str, agent: str | None = None, **witness) -> None:
        self.violations.append(Violation(law, agent, {k: str(v) for k, v in witness.items()}))

    def copy(self) -> "Report":
        return Report(list(self.violations), self.checked)

    def merge(self, other: "Report") -> "Report":
        self.violations.extend(other.violations)
        self.checked += other.checked
        return self

    def to_data(self) -> dict:
        return {
            "passed": self.ok,
            "checked": self.checked,
            "violations": [v.to_data() for v in self.violations],
        }

    @staticmethod
    def from_data(data: dict) -> "Report":
        report = Report(checked=int(data.get("checked", 0)))
        report.violations = [Violation.from_data(v) for v in data.get("violations", [])]
        return report

    def text(self) -> str:
        lines = [str(v) for v in self.violations]
        verdict = "PASS" if self.ok else f"FAIL ({len(self.violations)} violation(s))"
        lines.append(f"{verdict} — {self.checked} check(s) run")
        return "\n".join(lines)


def memoised(validator):
    """``validator(obj)``, run once per object: a model, a lattice for the
    lattice's own laws, or an agent's row for Λ's laws.

    The report is kept in the object's ``_reports`` dict, keyed by the
    validator, and each call returns a copy."""

    @functools.wraps(validator)
    def run(obj):
        report = obj._reports.get(validator)
        if report is None:
            report = obj._reports[validator] = validator(obj)
        return report.copy()

    return run
