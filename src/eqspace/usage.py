"""Usage and help text of the command line, written from the COMMANDS table.

Only -h and a usage error load this module, so a run with valid arguments
compiles none of it.
"""

from __future__ import annotations

from .cli import COMMANDS, REQUIRED


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
