"""Command line front end.

Subcommands construct spaces (product, dual, hom, project), print exact
Hilbert tables (hilbert) and run verification suites (verify).  Exit
codes: 0 pass, 1 verification failure, 2 parse or usage error, 3
invariant violation, 4 resource cap exceeded (running out of memory and
a size too large to index included).  Start-up loads only the file
formats; each handler imports the modules it runs, and hilbert the
report module only for --out.  The construct commands apply the row
rules of the rows module to the sparse rows of their files and build no
Matrix or EquippedSpace.  None holds its output: product and hom read
their inputs whole, hom its source space as -Rᵀ, and hand each row of
R⊠S to the writer as rows._boxtimes_structure makes it; dual hands the
reader rows._dual_columns, so it packs the rows of -Rᵀ from the rows of
R as they are read, never holds R, and writes the packed rows.  Each
reads its inputs before it opens --out, so --out may name an input.

One table, COMMANDS, gives each subcommand's handler, positionals and
options; parse_args reads argv and writes the -h text from it.  It
accepts ``--opt value``, ``--opt=value``, unique prefixes of option names
and options on either side of the positionals, the last occurrence of an
option winning.  A run imports no argument-parsing library.
"""

from __future__ import annotations

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


def _emit_report(report: dict, out: str | None, pretty: bool) -> None:
    from .report import dumps_canonical, render_report_text
    text = dumps_canonical(report)
    if out:
        _write_text(out, text)
    sys.stdout.write(render_report_text(report) if pretty else text)


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
    sys.stdout.write(" ".join(str(x) for x in series) + "\n")
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


def _is_option(token: str) -> bool:
    """Whether token names an option; "-" and negative numbers are values."""
    return len(token) > 1 and token[0] == "-" and not (token[1].isdigit() or token[1] == ".")


def _is_help(token: str) -> bool:
    return token == "-h" or (len(token) > 2 and "--help".startswith(token))


def _label(name: str, kind: object) -> str:
    """An option with its metavar: ``--seed SEED``, ``--suite {a,b}``, or a flag's name."""
    if kind is bool:
        return name
    if isinstance(kind, tuple):
        return name + " {" + ",".join(kind) + "}"
    return f"{name} {name[2:].upper().replace('-', '_')}"


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: eqspace [-h] {" + ",".join(COMMANDS) + "} ...\n"
    _, _, positionals, options = COMMANDS[command]
    parts = [f"[{name[:-1]}]" if name.endswith("?") else name for name, _ in positionals]
    for name, kind, default, _ in options:
        label = _label(name, kind)
        parts.append(label if default is REQUIRED else f"[{label}]")
    return f"usage: eqspace {command} [-h] {' '.join(parts)}\n"


def _help(command: str | None) -> str:
    if command is None:
        summary = "Exact-rational constructions and checks for equipped spaces."
        rows = [(name, spec[1]) for name, spec in COMMANDS.items()]
        rows.append(("COMMAND -h", "the arguments of one command"))
    else:
        _, summary, positionals, options = COMMANDS[command]
        rows = [(name.rstrip("?"), text) for name, text in positionals]
        rows.append(("-h, --help", "show this help and exit"))
        for name, kind, default, text in options:
            if default is REQUIRED:
                text += " (required)"
            elif default is not None and kind is not bool:
                text += f" (default: {default})"
            rows.append((_label(name, kind), text))
    table = "".join(
        f"  {label:<22}{text}\n" if len(label) < 21 else f"  {label}\n{'':24}{text}\n"
        for label, text in rows
    )
    return f"{_usage(command)}\n{summary}\n\n{table}"


def _fail(command: str | None, message: str) -> None:
    """Print the usage and an error line to stderr and exit 2."""
    prog = "eqspace" if command is None else f"eqspace {command}"
    sys.stderr.write(f"{_usage(command)}{prog}: error: {message}\n")
    raise SystemExit(EXIT_PARSE)


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The subcommand argv[0] and its arguments, read by the COMMANDS table.

    The namespace has an attribute per positional and option (dashes in
    option names become underscores), plus ``command`` and ``argv``.  A
    help flag prints help to stdout and raises SystemExit(0); a usage error
    prints the usage and an ``error:`` line to stderr and raises
    SystemExit(2).
    """
    command = argv[0] if argv else None
    if command not in COMMANDS:
        if command is not None and _is_help(command):
            sys.stdout.write(_help(None))
            raise SystemExit(EXIT_PASS)
        if command is None:
            _fail(None, "the following arguments are required: command")
        _fail(None, f"invalid command {command!r} (choose from {', '.join(COMMANDS)})")
    _, _, positionals, options = COMMANDS[command]
    kinds = {name: kind for name, kind, _, _ in options}
    values = {name: default for name, _, default, _ in options}
    given: list[str] = []
    unknown: list[str] = []
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--":
            given.extend(tokens)
        elif not _is_option(token):
            given.append(token)
        elif _is_help(token):
            sys.stdout.write(_help(command))
            raise SystemExit(EXIT_PASS)
        else:
            name, has_value, value = token.partition("=")
            matches = [name] if name in kinds else [n for n in kinds if n.startswith(name)]
            if not matches or len(name) < 3:
                unknown.append(token)
                continue
            if len(matches) > 1:
                _fail(command, f"ambiguous option: {name} could match {', '.join(matches)}")
            name = matches[0]
            kind = kinds[name]
            if kind is bool:
                if has_value:
                    _fail(command, f"argument {name}: ignored explicit argument {value!r}")
                value = True
            elif not has_value:
                value = next(tokens, None)
                if value is None or _is_option(value):
                    _fail(command, f"argument {name}: expected one argument")
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    _fail(command, f"argument {name}: invalid int value: {value!r}")
            elif isinstance(kind, tuple) and value not in kind:
                _fail(command, f"argument {name}: invalid choice: {value!r} (choose from {', '.join(kind)})")
            values[name] = value
    names = [name.rstrip("?") for name, _ in positionals]
    least = sum(not name.endswith("?") for name, _ in positionals)
    missing = names[len(given):least] + [n for n, v in values.items() if v is REQUIRED]
    if missing:
        _fail(command, f"the following arguments are required: {', '.join(missing)}")
    unknown += given[len(names):]
    if unknown:
        _fail(command, f"unrecognized arguments: {' '.join(unknown)}")
    fields = {name[2:].replace("-", "_"): value for name, value in values.items()}
    fields.update(zip(names, given + [None] * (len(names) - len(given))))
    return SimpleNamespace(command=command, argv=argv, **fields)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = parse_args(argv)
    try:
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


if __name__ == "__main__":
    sys.exit(main())
