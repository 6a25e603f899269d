"""Golden command-line outputs: stdout, written files and exit codes, byte for byte.

Each case runs one command through ``cli.main`` in a directory holding
copies of ``golden/inputs``, so reports echo the same relative paths on
every machine.  ``golden/expected/<case>.stdout`` is the expected standard
output and ``golden/expected/<case>.out.json`` the expected ``--out``
file, when the command writes one.  To regenerate after an intended change
of output bytes, run ``python tests/test_golden.py`` from the repository
root with ``src`` on the path, and review the diff.
"""

from __future__ import annotations

import io
import os
import shutil
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import eqspace.cli as cli
import eqspace.suites as suites
from eqspace import Matrix, check_morphism

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"
EXPECTED = GOLDEN / "expected"
OUT = "out.json"

# case name -> (argv, exit code)
CASES = {
    "product": (["product", "a.json", "b.json", "--out", OUT], 0),
    "product-ba": (["product", "b.json", "a.json", "--out", OUT], 0),
    "dual": (["dual", "a.json", "--out", OUT], 0),
    "hom": (["hom", "a.json", "b.json", "--out", OUT], 0),
    "project": (["project", "rel.json", "--out", OUT], 0),
    "hilbert": (["hilbert", "a.json", "--max-degree", "4", "--out", OUT], 0),
    "verify-all": (
        ["verify", "a.json", "b.json", "u.json", "--suite", "all", "--seed", "7",
         "--trials", "2"],
        0,
    ),
    "verify-all-pretty": (
        ["verify", "a.json", "b.json", "u.json", "--suite", "all", "--seed", "7",
         "--trials", "2", "--pretty", "--out", OUT],
        0,
    ),
    "verify-rigidity": (
        ["verify", "a.json", "b.json", "--suite", "rigidity", "--trials", "0"],
        0,
    ),
    "verify-bialgebra": (
        ["verify", "a.json", "b.json", "u.json", "--suite", "bialgebra", "--trials", "0"],
        0,
    ),
    "verify-failing": (
        ["verify", "a.json", "b.json", "--suite", "rigidity", "--trials", "0"],
        1,
    ),
    "verify-non-quadratic": (
        ["verify", "cubic.json", "cubic.json", "--suite", "epi", "--trials", "0"],
        3,
    ),
}


def _identity_is_not_a_morphism(suite, V, W, U=None, epi_degree=3):
    # A real failing check: the identity does not intertwine two different
    # structures, and its witness column holds non-integral differences.
    return [check_morphism(Matrix.identity(V.dim), V, W)]


def run_case(name: str, workdir: Path) -> tuple[int, str, bytes | None]:
    """Run one case in workdir; return (exit code, stdout, --out bytes or None)."""
    argv, _ = CASES[name]
    for src in INPUTS.iterdir():
        shutil.copy(src, workdir / src.name)
    saved = suites.suite_checks
    if name == "verify-failing":
        suites.suite_checks = _identity_is_not_a_morphism
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            code = cli.main(argv)
    finally:
        suites.suite_checks = saved
    out = workdir / OUT
    return code, buf.getvalue(), out.read_bytes() if out.exists() else None


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_case(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, stdout, written = run_case(name, tmp_path)
    capsys.readouterr()
    assert code == CASES[name][1]
    assert stdout == (EXPECTED / f"{name}.stdout").read_text(encoding="utf-8")
    expected_file = EXPECTED / f"{name}.{OUT}"
    if expected_file.exists():
        assert written == expected_file.read_bytes()
    else:
        assert written is None


def _regenerate() -> None:
    EXPECTED.mkdir(exist_ok=True)
    here = os.getcwd()
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                code, stdout, written = run_case(name, Path(tmp))
            finally:
                os.chdir(here)
        if code != CASES[name][1]:
            raise SystemExit(f"{name}: exit {code}, expected {CASES[name][1]}")
        (EXPECTED / f"{name}.stdout").write_text(stdout, encoding="utf-8")
        if written is not None:
            (EXPECTED / f"{name}.{OUT}").write_bytes(written)
        sys.stderr.write(f"{name}: exit {code}\n")


if __name__ == "__main__":
    _regenerate()
