"""Golden command-line outputs: stdout, written files and exit codes, byte for byte.

Each case runs one command through ``cli.main`` in a directory holding
copies of ``golden/inputs`` and, as ``product.json``, of the file the
``product`` case writes, so reports echo the same relative paths on every
machine.  ``golden/expected/<case>.stdout`` is the expected standard
output and ``golden/expected/<case>.out.json`` the expected ``--out``
file, when the command writes one.  Two failing cases patch the package
while they run, ``verify-failing`` its suite and
``verify-rigidity-unsigned-dual`` its dual, so only this file runs them.
The help cases exit from the argument parser (SystemExit, code 0).
To regenerate after an intended change of output bytes, run
``python tests/test_golden.py`` from the repository root with ``src`` on
the path, and review the diff.
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
from eqspace import Matrix
from oracles import check_morphism

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
    # graded.json has degrees 2 and 3 and non-integral entries; a.json has
    # degree 2 only, so the product's degree 3 has a zero factor, and the
    # diagonal of hom(graded, graded) cancels.
    "product-graded": (["product", "graded.json", "a.json", "--out", OUT], 0),
    "hom-graded": (["hom", "graded.json", "graded.json", "--out", OUT], 0),
    "dual-graded": (["dual", "graded.json", "--out", OUT], 0),
    # The dual of the product case's file, copied in as product.json.
    "dual-product": (["dual", "product.json", "--out", OUT], 0),
    # zeros.json spells zero as "-0", "+0", "00", "0/3" and an escaped "0",
    # and one half as "1/2" and "2/4".
    "dual-zeros": (["dual", "zeros.json", "--out", OUT], 0),
    "product-zeros": (["product", "zeros.json", "a.json", "--out", OUT], 0),
    "project": (["project", "rel.json", "--out", OUT], 0),
    "hilbert": (["hilbert", "a.json", "--max-degree", "4", "--out", OUT], 0),
    # Without --out the table is only printed, and no report module is loaded.
    "hilbert-stdout": (["hilbert", "a.json", "--max-degree", "4"], 0),
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
    "verify-epi": (
        ["verify", "a.json", "b.json", "--suite", "epi", "--epi-degree", "4", "--trials", "0"],
        0,
    ),
    # Two shifted Jimbo spaces at n = q = 2, shifts 1/2 and -2: no span is
    # full, so the corepresentation (source 3, target ideal 55) and the
    # comultiplication (13 and 226) test relations that could fail.
    "verify-jimbo": (
        ["verify", "jimbo-half.json", "jimbo-affine.json", "jimbo-half.json", "--suite", "all",
         "--trials", "0"],
        0,
    ),
    # Help goes to stdout and exits 0: the top level's and one command's.
    "help": (["--help"], 0),
    "verify-help": (["verify", "-h"], 0),
    "verify-failing": (
        ["verify", "a.json", "b.json", "--suite", "rigidity", "--trials", "0"],
        1,
    ),
    "verify-non-quadratic": (
        ["verify", "cubic.json", "cubic.json", "--suite", "epi", "--trials", "0"],
        3,
    ),
    # ev and coev witnesses at degree 3 (cubic.json) and at degree 2 with
    # non-integral entries (graded.json), from a dual without the sign.
    "verify-rigidity-unsigned-dual": (
        ["verify", "cubic.json", "graded.json", "--suite", "rigidity", "--trials", "0"],
        1,
    ),
}


def _identity_is_not_a_morphism(suite, V, W, U=None, epi_degree=3):
    # A real failing check: the identity does not intertwine two different
    # structures, and its witness column holds non-integral differences.
    return [check_morphism(Matrix.identity(V.dim), V, W)]


def _unsigned_dual(rows, width):
    # Rᵀ in place of -Rᵀ, the dual's structure: ev and coev are then not morphisms.
    return Matrix._trusted(rows, width).transpose()


def run_case(name: str, workdir: Path) -> tuple[int, str, bytes | None]:
    """Run one case in workdir; return (exit code, stdout, --out bytes or None)."""
    argv, _ = CASES[name]
    for src in INPUTS.iterdir():
        shutil.copy(src, workdir / src.name)
    shutil.copy(EXPECTED / f"product.{OUT}", workdir / "product.json")
    saved = suites.suite_checks, suites._dual
    if name == "verify-failing":
        suites.suite_checks = _identity_is_not_a_morphism
    elif name == "verify-rigidity-unsigned-dual":
        suites._dual = _unsigned_dual
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        suites.suite_checks, suites._dual = saved
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
