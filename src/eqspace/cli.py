"""Command line front end.

Subcommands construct spaces (product, dual, hom, project), print exact
Hilbert tables (hilbert) and run verification suites (verify).  Exit
codes: 0 pass, 1 verification failure, 2 parse or usage error, 3
invariant violation, 4 resource cap exceeded.  The algebra and suite
modules are imported by the handlers that run them, not at start-up.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .fileio import (
    SpaceFormatError,
    dumps_canonical,
    read_relations,
    read_space,
    render_report_text,
    report_to_dict,
    write_space,
)
from .report import VerificationReport
from .spaces import EquippedSpace, boxtimes, dagger, hom_space

EXIT_PASS = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_CAP = 4

HILBERT_CAP = 6
SUITE_NAMES = ("bialgebra", "rigidity", "epi", "all")
GENERATOR_NOTE = "t[i][j] = w^j (x) v_i at flat index j*dim_v + i"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqspace",
        description="Exact-rational constructions and checks for equipped spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("product", help="monoidal product of two space files")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--out", required=True)

    p = sub.add_parser("dual", help="dagger dual of a space file")
    p.add_argument("a")
    p.add_argument("--out", required=True)

    p = sub.add_parser("hom", help="internal hom space of two space files")
    p.add_argument("w", help="source space")
    p.add_argument("v", help="target space")
    p.add_argument("--out", required=True)

    p = sub.add_parser("hilbert", help="graded dimensions of the quotient algebra")
    p.add_argument("space")
    p.add_argument("--max-degree", type=int, default=4)
    p.add_argument("--cap-override", action="store_true")
    p.add_argument("--out")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("v")
    p.add_argument("w")
    p.add_argument("u", nargs="?")
    p.add_argument("--suite", choices=SUITE_NAMES, default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--epi-degree", type=int, default=3)
    p.add_argument("--out")
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("project", help="structure projector from a relation basis")
    p.add_argument("relations")
    p.add_argument("--out", required=True)
    return parser


def _emit_report(report: dict, out: str | None, pretty: bool) -> None:
    text = dumps_canonical(report)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    sys.stdout.write(render_report_text(report) if pretty else text)


def _cmd_product(args: argparse.Namespace) -> int:
    write_space(args.out, boxtimes(read_space(args.a), read_space(args.b)))
    return EXIT_PASS


def _cmd_dual(args: argparse.Namespace) -> int:
    write_space(args.out, dagger(read_space(args.a)))
    return EXIT_PASS


def _cmd_hom(args: argparse.Namespace) -> int:
    W = read_space(args.w)
    V = read_space(args.v)
    write_space(args.out, hom_space(W, V), note=GENERATOR_NOTE)
    return EXIT_PASS


def _cmd_hilbert(args: argparse.Namespace) -> int:
    from .algebras import apply_U
    if args.max_degree < 0:
        raise SpaceFormatError("--max-degree must be nonnegative")
    if args.max_degree > HILBERT_CAP and not args.cap_override:
        sys.stderr.write(
            f"error: --max-degree {args.max_degree} exceeds cap {HILBERT_CAP}; "
            "pass --cap-override to accept the cost\n"
        )
        return EXIT_CAP
    V = read_space(args.space)
    series = apply_U(V).hilbert(args.max_degree)
    if args.out:
        record = VerificationReport(
            "hilbert-series",
            True,
            dimensions={str(n): dim for n, dim in enumerate(series)},
        )
        Path(args.out).write_text(
            dumps_canonical(report_to_dict(_echo(args), [record])), encoding="utf-8"
        )
    sys.stdout.write(" ".join(str(x) for x in series) + "\n")
    return EXIT_PASS


def _cmd_verify(args: argparse.Namespace) -> int:
    from .suites import randomized_checks, suite_checks
    if args.epi_degree < 2:
        raise SpaceFormatError("--epi-degree must be at least 2")
    if args.trials < 0:
        raise SpaceFormatError("--trials must be nonnegative")
    V = read_space(args.v)
    W = read_space(args.w)
    U: EquippedSpace | None = read_space(args.u) if args.u else None
    if args.suite in ("bialgebra", "all") and U is None:
        sys.stderr.write(
            "error: the bialgebra checks need a third space file (the middle object)\n"
        )
        return EXIT_PARSE
    checks = suite_checks(args.suite, V, W, U, args.epi_degree)
    if args.trials > 0:
        checks += randomized_checks(
            args.suite, V, W, U, args.seed, args.trials, args.epi_degree
        )
    report = report_to_dict(_echo(args), checks)
    _emit_report(report, args.out, args.pretty)
    return EXIT_PASS if report["pass"] else EXIT_VERIFICATION_FAILED


def _cmd_project(args: argparse.Namespace) -> int:
    from .algebras import structure_projector
    dim, degree, rel = read_relations(args.relations)
    projector = structure_projector(rel)
    write_space(args.out, EquippedSpace(dim, {degree: projector}))
    return EXIT_PASS


def _echo(args: argparse.Namespace) -> list[str]:
    return list(getattr(args, "_argv", []))


_HANDLERS = {
    "product": _cmd_product,
    "dual": _cmd_dual,
    "hom": _cmd_hom,
    "hilbert": _cmd_hilbert,
    "verify": _cmd_verify,
    "project": _cmd_project,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    args._argv = argv
    try:
        return _HANDLERS[args.command](args)
    except SpaceFormatError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except OSError as exc:
        sys.stderr.write(f"error: cannot write output: {exc}\n")
        return EXIT_PARSE
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
