"""Batch command-line front end.

Exit codes: 0 success (solutions found / oracles agree), 1 crosscheck
disagreement, 2 usage error, 3 parse error, 4 cap exceeded, 10 no
answer set or empty optimum.
"""

from __future__ import annotations

import argparse
import sys

from . import consequence, core, metaenc, optimize, semantics
from .core import Atom, CapExceededError, ContractViolationError, CriteriaSet
from .parser import ParseError, SourceSpan, parse_criteria, parse_program
from .reify import facts_to_text, reify

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_CAP = 4
EXIT_EMPTY = 10


def _read(path: str) -> str:
    """The text of a file, or of stdin for '-'; bytes that are not UTF-8
    are a parse error at their line and column."""
    if path == "-":
        if not hasattr(sys.stdin, "buffer"):  # a text stream, already decoded
            return sys.stdin.read()
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as handle:
            data = handle.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_start = data.rfind(b"\n", 0, exc.start) + 1
        span = SourceSpan(data.count(b"\n", 0, exc.start) + 1,
                          exc.start - line_start + 1)
        raise ParseError(f"not UTF-8: byte 0x{data[exc.start]:02x}",
                         span) from None


def _load_criteria(path: str | None) -> CriteriaSet:
    if path is None:
        return CriteriaSet()
    return parse_criteria(_read(path))


def _format(interpretation) -> str:
    return "{" + ",".join(sorted(a.name for a in interpretation)) + "}"


def _print_sets(sets) -> int:
    for s in sets:
        print(_format(s))
    return EXIT_OK if sets else EXIT_EMPTY


def cmd_reify(args) -> int:
    program = parse_program(_read(args.program))
    sys.stdout.write(facts_to_text(reify(program)))
    return EXIT_OK


def cmd_solve(args) -> int:
    program = parse_program(_read(args.program))
    return _print_sets(semantics.enumerate_answer_sets(
        program, limit=args.limit, cap=args.max_atoms))


def cmd_optimize(args) -> int:
    program = parse_program(_read(args.program))
    if args.mode == "default":
        if args.criteria is not None:
            print("error: --criteria is not accepted in default mode",
                  file=sys.stderr)
            return EXIT_USAGE
        return _print_sets(optimize.default_optimal(
            program, limit=args.limit, cap=args.max_atoms))
    crit = _load_criteria(args.criteria)
    return _print_sets(optimize.optimal_answer_sets(
        program, crit, limit=args.limit, cap=args.max_atoms))


def cmd_check(args) -> int:
    program = parse_program(_read(args.program))
    known = core.atoms(program)
    names = [n.strip() for n in args.interpretation.split(",") if n.strip()]
    try:
        x = frozenset(Atom(n) for n in names)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for atom in sorted(x):
        if atom not in known:
            print(f"error: unknown atom {atom}", file=sys.stderr)
            return EXIT_USAGE
    if not semantics.is_model(x, program):
        print("non-model")
    elif semantics.is_answer_set(x, program, cap=args.max_atoms):
        print("answer-set")
    elif consequence.is_supported_model(program, x):
        print("supported-model")
        decomposition = consequence.sccs(
            consequence.dependency_graph(program), program)
        for component in decomposition.nontrivial():
            waiting = consequence.wait_levels(program, x, component.label)
            if waiting.waiting_true:
                names_ = ",".join(sorted(a.name for a in waiting.waiting_true))
                print(f"component {component.label}: {names_} "
                      f"wait at step {waiting.z}")
    else:
        print("model")
    return EXIT_OK


def cmd_metaenc(args) -> int:
    program = parse_program(_read(args.program))
    crit = _load_criteria(args.criteria)
    mp = metaenc.build_meta_program(reify(program), crit)
    sys.stdout.write(mp.to_text())
    return EXIT_OK


def cmd_crosscheck(args) -> int:
    program = parse_program(_read(args.program))
    crit = _load_criteria(args.criteria)
    report = metaenc.crosscheck(program, crit, cap=args.max_atoms)
    native = " ".join(_format(s) for s in report.native)
    meta = " ".join(_format(s) for s in report.meta)
    print(f"native ({len(report.native)}): {native}")
    print(f"meta   ({len(report.meta)}): {meta}")
    print("PASS" if report.agree else "FAIL")
    return EXIT_OK if report.agree else EXIT_DISAGREE


class _Parser(argparse.ArgumentParser):
    """Reports a usage error on one line and exits 2."""

    def error(self, message: str):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _at_least(least: int):
    """Argument type: an integer no smaller than ``least``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not an integer: {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(
                f"must be at least {least}: {value}")
        return value

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="aspkit",
        description="Toolkit for ground extended logic programs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("program", help="program file ('-' for stdin)")
        p.set_defaults(func=func)
        return p

    add("reify", cmd_reify, help="print the fact representation")

    p = add("solve", cmd_solve, help="enumerate answer sets")
    p.add_argument("--limit", type=_at_least(1), default=None)
    p.add_argument("--max-atoms", type=_at_least(0),
                   default=core.DEFAULT_ATOM_CAP)

    p = add("optimize", cmd_optimize, help="select optimal answer sets")
    p.add_argument("--criteria", default=None, help="criteria fact file")
    p.add_argument("--mode", choices=("complex", "default"), default="complex")
    p.add_argument("--limit", type=_at_least(1), default=None)
    p.add_argument("--max-atoms", type=_at_least(0),
                   default=core.DEFAULT_ATOM_CAP)

    p = add("check", cmd_check, help="classify an interpretation")
    p.add_argument("--interpretation", required=True,
                   help="comma-separated atom names (may be empty)")
    p.add_argument("--max-atoms", type=_at_least(0),
                   default=core.DEFAULT_ATOM_CAP)

    p = add("metaenc", cmd_metaenc,
            help="print the saturation-based check program")
    p.add_argument("--criteria", default=None)

    p = add("crosscheck", cmd_crosscheck,
            help="compare native and check-program optima")
    p.add_argument("--criteria", default=None)
    p.add_argument("--max-atoms", type=_at_least(0),
                   default=core.DEFAULT_ATOM_CAP)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ContractViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
