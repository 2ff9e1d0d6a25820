"""Command-line interface.

Subcommands: ``validate``, ``check``, ``transform``, ``equiv``, ``fuzz``,
``lpa check``, ``lpa fuzz``, ``gen``.  Exit codes: 0 when everything passes,
1 when a property violation or counterexample is found, 2 on input and
output errors (malformed files, bad flags, unknown states, a standard
output closed by its reader, as in ``awarekit check ... | head -1``), 3 on
an internal error: any other exception, reported as ``internal error: ...``
with its traceback on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import traceback
from pathlib import Path

from . import awareness, implicit, lpa, modelio, semantics, transforms, unawareness
from .errors import AwarekitError, ModelFormatError
from .gen import GenCaps, gen_fh, gen_hms, gen_implicit
from .reports import Report
from .syntax import parse as parse_formula
from .unawareness import StateRef

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _emit_report(report: Report, fmt: str, label: str) -> int:
    if fmt == "data":
        print(json.dumps(report.to_data(), sort_keys=True))
    else:
        print(f"{label}:")
        print(report.text())
    return EXIT_PASS if report.ok else EXIT_VIOLATION


def _validate_any(model) -> Report:
    if model.family == "awareness":
        return awareness.validate_fh(model)
    if model.family == "implicit":
        return implicit.validate_implicit(model)
    if model.family == "complemented":
        return implicit.validate_lambda(model)
    return unawareness.validate_hms(model)


def _resolve_state(model, token: str) -> StateRef:
    """Resolve a 'spaceKey:stateId' token of the model's lattice."""
    ref = modelio.parse_state_token(token)
    if not model.lattice.has_space(ref.space):
        raise ModelFormatError(f"no space for state token {token!r}")
    return model.lattice.require_state(ref)


def _caps_from(arg: str | None) -> GenCaps:
    """The caps a ``--caps`` flag names, each at most once; the others keep
    their defaults."""
    values: dict[str, int] = {}
    for piece in arg.split(",") if arg else ():
        if "=" not in piece:
            raise ModelFormatError(f"bad caps entry {piece!r}; expected name=value")
        name, _, value = piece.partition("=")
        if name not in ("atoms", "worlds", "agents"):
            raise ModelFormatError(f"unknown cap {name!r}; expected atoms/worlds/agents")
        if name in values:
            raise ModelFormatError(f"cap {name!r} is given twice")
        try:
            values[name] = int(value)
        except ValueError:
            raise ModelFormatError(f"cap {name!r} needs an integer") from None
    return GenCaps(**values)


def _at_least(low: int):
    """An argparse type: an integer no smaller than ``low``, so that a
    nonsense count is a bad flag rather than a vacuous run."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_validate(args) -> int:
    model = modelio.load_model(args.file)
    if args.dot:
        if model.family == "awareness":
            raise ModelFormatError("--dot needs a lattice model file")
        Path(args.dot).write_text(modelio.lattice_dot(model), encoding="utf-8")
    return _emit_report(_validate_any(model), args.format, f"validate {args.file}")


def _cmd_check(args) -> int:
    model = modelio.load_model(args.file)
    report = _validate_any(model)
    if not report.ok:
        raise ModelFormatError(
            f"model fails validation ({len(report.violations)} violation(s)); "
            f"run 'validate' for details")
    formula = parse_formula(args.formula, model.agents)
    if model.family == "unawareness":
        raise ModelFormatError("check needs a complemented or implicit model "
                               "(a bare 'pi' model has no implicit layer)")
    if not (args.all or args.state):
        raise ModelFormatError("check needs --state or --all")

    if model.family == "awareness":
        if args.all:
            rows = [(w, str(awareness.fh_satisfies(model, w, formula)))
                    for w in model.worlds]
        else:
            if args.state not in set(model.worlds):
                raise ModelFormatError(f"no world {args.state!r}")
            rows = [(args.state, str(awareness.fh_satisfies(model, args.state, formula)))]
    elif args.all:
        rows = [(str(ref), str(value))
                for ref, value in zip(model.states, semantics.truth_table(model, formula))]
    else:
        ref = _resolve_state(model, args.state)
        rows = [(str(ref), str(semantics.satisfies(model, ref, formula)))]

    if args.format == "data":
        print(json.dumps({"formula": args.formula, "values": dict(rows)}, sort_keys=True))
    elif args.all:
        for token, value in rows:
            print(f"{token}\t{value}")
    else:
        print(rows[0][1])
    return EXIT_PASS


def _cmd_transform(args) -> int:
    # Only the transforms to the lattice families build a category.
    for flag, given in (("--minimize", args.minimize), ("--dump-category", args.dump_category)):
        if given and args.to not in ("hms", "implicit-hms"):
            raise ModelFormatError(f"{flag} needs --to hms or --to implicit-hms")
    model = modelio.load_model(args.file)
    if args.to in ("hms", "implicit-hms"):
        if model.family != "awareness":
            raise ModelFormatError(f"--to {args.to} needs an awareness model file")
        category = awareness.build_category(model, minimize=args.minimize)
        if args.dump_category:
            directory = Path(args.dump_category)
            directory.mkdir(parents=True, exist_ok=True)
            manifest = {"atoms": sorted(model.language_atoms), "members": {}, "morphisms": {}}
            for space, member in category.models.items():
                key = unawareness.space_key(space)
                name = f"member_{key.replace(',', '_') or 'meet'}.model"
                (directory / name).write_text(modelio.dumps_model(member), encoding="utf-8")
                manifest["members"][key] = name
            for (large, small), morphism in category.morphisms.items():
                pair = f"{unawareness.space_key(large)}->{unawareness.space_key(small)}"
                manifest["morphisms"][pair] = dict(morphism)
            (directory / "category.json").write_text(
                json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        # The category built once serves both the dump and the transform.
        out = transforms.category_to_implicit(category)
        if args.to == "hms":
            out = out.derived()
    elif args.to == "fh":
        if model.family != "complemented":
            raise ModelFormatError("--to fh needs a complemented model file "
                                   "(with both 'pi' and 'lambda')")
        out = transforms.fh_transform(model)
    else:  # fh-star, the last of argparse's choices
        if model.family != "implicit":
            raise ModelFormatError("--to fh-star needs an implicit model file "
                                   "(with 'lambda_star' and 'alpha')")
        out = transforms.fh_star_transform(model)
    _write_or_print(modelio.dumps_model(out), args.out)
    return EXIT_PASS


def _cmd_equiv(args) -> int:
    source = modelio.load_model(args.a)
    produced = modelio.load_model(args.b)
    report = transforms.equivalence_check(source, produced, via=args.via, depth=args.depth)
    return _emit_report(report, args.format, f"equiv {args.a} ~ {args.b} via {args.via}")


def _cmd_fuzz(args) -> int:
    """Per trial: generate an awareness model, transform it once into the
    implicit lattice model, take the complemented model derived from that,
    and run every validator and property suite on the three.  Each model is
    validated once; the suites' own precondition checks reuse its report."""
    caps = _caps_from(args.caps)
    report = Report()
    for trial in range(args.trials):
        seed = args.seed + trial
        k = gen_fh(seed, caps)
        report.merge(awareness.validate_fh(k))
        im = transforms.hms_transform(k, truncate=True)
        comp = im.derived()
        report.merge(implicit.validate_lambda(comp))
        report.merge(unawareness.explicit_property_suite(comp))
        report.merge(implicit.implicit_property_suite(comp))
        report.merge(implicit.validate_implicit(im))
        report.merge(implicit.a_star_property_suite(im))
    return _emit_report(report, args.format, f"fuzz trials={args.trials}")


def _cmd_lpa_check(args) -> int:
    lines = modelio.load_proof(args.proof)
    verdict = lpa.check_proof(lines)
    if args.format == "data":
        print(json.dumps({"accepted": verdict.accepted, "failed_line": verdict.failed_line,
                          "reason": verdict.reason}, sort_keys=True))
    else:
        print(verdict)
    return EXIT_PASS if verdict.accepted else EXIT_VIOLATION


def _cmd_lpa_fuzz(args) -> int:
    """Soundness fuzzing: per trial, one generated awareness model's
    category, and the implicit and complemented models built from that same
    category (see ``lpa.fuzz_soundness``)."""
    caps = _caps_from(args.caps)
    report = lpa.fuzz_soundness(trials=args.trials, depth=args.depth,
                                caps=caps, seed=args.seed)
    return _emit_report(report, args.format, f"lpa fuzz trials={args.trials}")


def _cmd_gen(args) -> int:
    caps = _caps_from(args.caps)
    if args.family == "fh":
        model = gen_fh(args.seed, caps)
    elif args.family == "hms":
        model = gen_hms(args.seed, caps)
    else:  # implicit-hms, the last of argparse's choices
        model = gen_implicit(args.seed, caps)
    _write_or_print(modelio.dumps_model(model), args.out)
    return EXIT_PASS


def _add_format(parser) -> None:
    parser.add_argument("--format", choices=("text", "data"), default="text",
                        help="human-readable text or machine-readable JSON")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  Each subcommand names its
    handler, which ``main`` looks up when it runs."""
    parser = argparse.ArgumentParser(
        prog="awarekit",
        description="Validate, check, transform, and fuzz epistemic models "
                    "with unawareness.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="run every validator for the file's model family")
    p.add_argument("file")
    p.add_argument("--dot", metavar="PATH", help="also write a DOT digraph of the lattice")
    _add_format(p)
    p.set_defaults(func="_cmd_validate")

    p = sub.add_parser("check", help="evaluate a formula at a state (or all states)")
    p.add_argument("file")
    p.add_argument("--formula", required=True)
    p.add_argument("--state", help="'spaceKey:stateId' for lattice models, world id "
                                   "for awareness models")
    p.add_argument("--all", action="store_true", help="print a value per state")
    _add_format(p)
    p.set_defaults(func="_cmd_check")

    p = sub.add_parser("transform", help="transform a model into the other family")
    p.add_argument("file")
    p.add_argument("--to", required=True, choices=transforms.TRANSFORM_DIRECTIONS)
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--dump-category", metavar="DIR",
                   help="also write the sublanguage category into a directory "
                        "(--to hms or implicit-hms only)")
    p.add_argument("--minimize", action="store_true",
                   help="quotient category members by modal equivalence "
                        "(--to hms or implicit-hms only)")
    p.set_defaults(func="_cmd_transform")

    p = sub.add_parser("equiv", help="check modal equivalence of a model and its transform")
    p.add_argument("a", help="source model file")
    p.add_argument("b", help="transformed model file")
    p.add_argument("--via", required=True, choices=transforms.TRANSFORM_DIRECTIONS)
    p.add_argument("--depth", type=_at_least(0), default=2,
                   help="bound on the modal depth of the formulas compared; at most 150 "
                        "formulas of AST size 9 or less are taken, smallest first, so a "
                        "larger depth may add none (see docs/formats.md)")
    _add_format(p)
    p.set_defaults(func="_cmd_equiv")

    p = sub.add_parser("fuzz", help="generate models and run every validator and suite")
    p.add_argument("--trials", type=_at_least(1), default=20)
    p.add_argument("--caps", help="e.g. atoms=3,worlds=5,agents=2")
    p.add_argument("--seed", type=int, default=0)
    _add_format(p)
    p.set_defaults(func="_cmd_fuzz")

    p = sub.add_parser("lpa", help="proof checking and soundness fuzzing")
    lpa_sub = p.add_subparsers(dest="lpa_command", required=True)
    pc = lpa_sub.add_parser("check", help="check a proof file")
    pc.add_argument("proof")
    _add_format(pc)
    pc.set_defaults(func="_cmd_lpa_check")
    pf = lpa_sub.add_parser("fuzz", help="fuzz axiom validity on random models")
    pf.add_argument("--trials", type=_at_least(1), default=50)
    pf.add_argument("--depth", type=_at_least(0), default=2)
    pf.add_argument("--caps", help="e.g. atoms=3,worlds=5,agents=2")
    pf.add_argument("--seed", type=int, default=0)
    _add_format(pf)
    pf.set_defaults(func="_cmd_lpa_fuzz")

    p = sub.add_parser("gen", help="emit a seeded random model")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--family", choices=("fh", "hms", "implicit-hms"), default="fh")
    p.add_argument("--caps", help="e.g. atoms=3,worlds=5,agents=2")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func="_cmd_gen")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_INPUT if err.code else EXIT_PASS
    try:
        code = globals()[args.func](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed standard output.  Point it at the null device so
        # that the interpreter's final flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INPUT
    except AwarekitError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as err:
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
