"""The command line read by the COMMANDS table of the cli module.

parse_args accepts ``--opt value``, ``--opt=value``, unique prefixes of
option names and options on either side of the positionals, the last
occurrence of an option winning.  A run imports no argument-parsing
library.  The usage and help text is written by the usage module, which
only -h and a usage error load.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from .cli import COMMANDS, EXIT_PARSE, EXIT_PASS, REQUIRED


def _is_option(token: str) -> bool:
    """Whether token names an option; "-" and negative numbers are values."""
    return len(token) > 1 and token[0] == "-" and not (token[1].isdigit() or token[1] == ".")


def _is_help(token: str) -> bool:
    return token == "-h" or (len(token) > 2 and "--help".startswith(token))


def _show_help(command: str | None) -> None:
    """Print the help of command, or of eqspace when it is None, and exit 0."""
    from .usage import _help
    sys.stdout.write(_help(command))
    raise SystemExit(EXIT_PASS)


def _fail(command: str | None, message: str) -> None:
    """Print the usage and an error line to stderr and exit 2."""
    from .usage import _usage
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
            _show_help(None)
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
            _show_help(command)
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
