"""Command line front end.

Subcommands construct spaces (product, dual, hom, project), print exact
Hilbert tables (hilbert) and run verification suites (verify).  Exit
codes: 0 pass, 1 verification failure, 2 parse or usage error, 3
invariant violation, 4 resource cap exceeded (running out of memory and
a size too large to index included).  Start-up loads only the argument
reader and the file formats; each handler imports the modules it runs,
and hilbert the report module only for --out.  The construct commands
apply the row rules of the rows module to the sparse rows of their files
and build no Matrix or EquippedSpace.  None holds its output: product
and hom read their inputs whole, hom its source space as -Rᵀ, and hand
each row of R⊠S to the writer as rows._boxtimes_structure makes it; dual
hands the reader rows._dual_columns, so it packs the rows of -Rᵀ from
the rows of R as they are read, never holds R, and writes the packed
rows.  Each reads its inputs before it opens --out, so --out may name an
input.

One table, COMMANDS, gives each subcommand's handler, positionals and
options.  arguments.parse_args reads argv by it, and the usage module
writes the usage and help text from it; only -h and a usage error load
that module.  Each module is small, as a run without cached bytecode
peaks while it compiles the largest module it loads.

main(argv) is the in-process call: it returns the exit code.  run() is
the process entry point of ``python -m eqspace`` and of the installed
``eqspace``: it calls main(), freezes the heap so that the interpreter's
shutdown collections skip it, and exits with the code.
"""

from __future__ import annotations

import errno
import gc
import sys
from itertools import repeat
from types import SimpleNamespace

from .fileio import SpaceFormatError, _kept, _read_space, _write_space, read_relations, read_space
from .fileio import write_space

EXIT_PASS = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_CAP = 4

HILBERT_CAP = 6
SUITE_NAMES = ("bialgebra", "rigidity", "epi", "all")  # suites.SUITES, kept out of start-up
GENERATOR_NOTE = "t[i][j] = w^j (x) v_i at flat index j*dim_v + i"


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _stdout():
    """sys.stdout, or, when fd 1 was closed at start, an OSError that main
    reports as it reports an unwritable --out."""
    if sys.stdout is None:
        raise OSError(errno.EBADF, "standard output is closed")
    return sys.stdout


def _emit_report(report: dict, out: str | None, pretty: bool) -> None:
    from .report import dumps_canonical, render_report_text
    text = dumps_canonical(report)
    if out:
        _write_text(out, text)
    _stdout().write(render_report_text(report) if pretty else text)


def _rows(structure: dict) -> dict:
    """Per degree, the rows of the matrix that _read_space(path, _kept) read."""
    return {n: rows for n, (rows, _) in structure.items()}


def _cmd_product(args: SimpleNamespace) -> int:
    # boxtimes(V, W), with no row of R⊠S held after it is written.
    from .rows import _boxtimes_structure
    dV, R = _read_space(args.a, _kept)
    dW, S = _read_space(args.b, _kept)
    _write_space(args.out, *_boxtimes_structure(dV, _rows(R), dW, _rows(S)))
    return EXIT_PASS


def _cmd_dual(args: SimpleNamespace) -> int:
    # dagger(read_space(a)), with no R held.
    from .rows import _dual_columns, _pairs
    dim, structure = _read_space(args.a, _dual_columns)
    _write_space(args.out, dim, {
        n: (map(_pairs, cols, repeat(entries)), h) for n, (cols, h, entries) in structure.items()
    })
    return EXIT_PASS


def _cmd_hom(args: SimpleNamespace) -> int:
    # hom_space(W, V) = dagger(W) ⊠ V, written as product writes, with no R of W held.
    from .rows import _boxtimes_structure, _dual_columns, _dual_rows
    dW, W = _read_space(args.w, _dual_columns)
    dV, R = _read_space(args.v, _kept)
    W = {n: _dual_rows(cols, entries) for n, (cols, _, entries) in W.items()}
    _write_space(args.out, *_boxtimes_structure(dW, W, dV, _rows(R)), note=GENERATOR_NOTE)
    return EXIT_PASS


def _cmd_hilbert(args: SimpleNamespace) -> int:
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
        from .report import VerificationReport, dumps_canonical, report_to_dict
        dims = {str(n): dim for n, dim in enumerate(series)}
        record = VerificationReport("hilbert-series", True, dimensions=dims)
        _write_text(args.out, dumps_canonical(report_to_dict(args.argv, [record])))
    _stdout().write(" ".join(str(x) for x in series) + "\n")
    return EXIT_PASS


def _cmd_verify(args: SimpleNamespace) -> int:
    from .report import report_to_dict
    from .suites import randomized_checks, suite_checks
    if args.epi_degree < 2:
        raise SpaceFormatError("--epi-degree must be at least 2")
    if args.trials < 0:
        raise SpaceFormatError("--trials must be nonnegative")
    V = read_space(args.v)
    W = read_space(args.w)
    U = read_space(args.u) if args.u else None
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
    report = report_to_dict(args.argv, checks)
    _emit_report(report, args.out, args.pretty)
    return EXIT_PASS if report["pass"] else EXIT_VERIFICATION_FAILED


def _cmd_project(args: SimpleNamespace) -> int:
    from .algebras import structure_projector
    from .spaces import EquippedSpace
    dim, degree, rel = read_relations(args.relations)
    projector = structure_projector(rel)
    write_space(args.out, EquippedSpace(dim, {degree: projector}))
    return EXIT_PASS


# An option is (name, type, default, help).  The type is int or str, a
# tuple of the accepted strings, or bool for a flag that takes no value;
# the default REQUIRED makes the option required.  A positional is (name,
# help), and a name ending in "?" may be left out (its value is None).
REQUIRED = object()
_OUT = ("--out", str, REQUIRED, "space file to write")
_REPORT = ("--out", str, None, "JSON report file to write")

# subcommand -> (handler, summary, positionals, options)
COMMANDS = {
    "product": (
        _cmd_product,
        "monoidal product of two space files",
        (("a", "first space file"), ("b", "second space file")),
        (_OUT,),
    ),
    "dual": (_cmd_dual, "dagger dual of a space file", (("a", "space file"),), (_OUT,)),
    "hom": (
        _cmd_hom,
        "internal hom space of two space files",
        (("w", "source space file"), ("v", "target space file")),
        (_OUT,),
    ),
    "hilbert": (
        _cmd_hilbert,
        "graded dimensions of the quotient algebra",
        (("space", "space file"),),
        (
            ("--max-degree", int, 4, "highest degree of the table"),
            ("--cap-override", bool, False, f"allow --max-degree above {HILBERT_CAP}"),
            _REPORT,
        ),
    ),
    "verify": (
        _cmd_verify,
        "run a verification suite",
        (
            ("v", "first space file"),
            ("w", "second space file"),
            ("u?", "middle space file, needed by the bialgebra checks"),
        ),
        (
            ("--suite", SUITE_NAMES, "all", "checks to run"),
            ("--seed", int, 0, "seed of the random trials"),
            ("--trials", int, 20, "number of random trials"),
            ("--epi-degree", int, 3, "highest degree of the epimorphism checks"),
            _REPORT,
            ("--pretty", bool, False, "print a PASS/FAIL table instead of JSON"),
        ),
    ),
    "project": (
        _cmd_project,
        "structure projector from a relation basis",
        (("relations", "relation-basis file"),),
        (_OUT,),
    ),
}


def main(argv: list[str] | None = None) -> int:
    from .arguments import parse_args
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parse_args(argv)
        return COMMANDS[args.command][0](args)
    except SpaceFormatError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except OSError as exc:
        sys.stderr.write(f"error: cannot write output: {exc}\n")
        return EXIT_PARSE
    except MemoryError:
        sys.stderr.write("error: out of memory (resource cap exceeded)\n")
        return EXIT_CAP
    except OverflowError:
        # A size past sys.maxsize, such as a list of 2**64 rows: nothing was allocated.
        sys.stderr.write("error: size cannot be indexed (resource cap exceeded)\n")
        return EXIT_CAP
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVARIANT


def run() -> None:
    """Run main() as the process: freeze the heap, then exit with main()'s code.

    gc.freeze() moves every object the run imported or made to the
    permanent generation, which the collections of interpreter shutdown
    skip; atexit handlers, the flush of stdout and stderr and the exit
    status still run as on a plain exit.  main() freezes nothing, as a
    long-lived caller would keep its cyclic garbage forever.
    """
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
