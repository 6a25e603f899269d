"""The benchmark's workloads: seeded job lists and their output checks.

A job is one ``eqspace`` command line.  Paths in it are relative to the
directory the job runs in; inputs sit in ``../in``.  Every job carries a
check that returns ``None`` for a correct result or a short reason.

Why each workload and each job exists is recorded in ``README.md``.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable

import gen

# Recorded Hilbert series of the cubic fixture T(V)/(x0x0x1 - x1x0x0) on two
# generators, degrees 0..10 (a(n) = a(n-1) + a(n-2) + 1).
CUBIC_SERIES = (1, 2, 4, 7, 12, 20, 33, 54, 88, 143, 232)


@dataclass
class Result:
    """What one run of a job produced."""

    rc: int
    stdout: bytes
    files: dict[str, bytes] = field(default_factory=dict)


@dataclass
class Job:
    name: str
    argv: list[str]
    check: Callable[[Result, Path], str | None]
    outputs: tuple[str, ...] = ()


# ---------------------------------------------------------------- checks


def check_series(expected: list[int]) -> Callable[[Result, Path], str | None]:
    want = (" ".join(map(str, expected)) + "\n").encode()

    def check(res: Result, _cwd: Path) -> str | None:
        if res.rc != 0:
            return f"exit {res.rc}"
        if res.stdout != want:
            return f"series {res.stdout[:80]!r} != {want!r}"
        return None

    return check


def check_verify(res: Result, _cwd: Path) -> str | None:
    if res.rc != 0:
        return f"exit {res.rc}"
    try:
        report = json.loads(res.stdout)
    except ValueError:
        return "report is not JSON"
    if report.get("pass") is not True or not report.get("checks"):
        return "report does not pass"
    if not all(c.get("pass") is True for c in report["checks"]):
        return "a check failed"
    return None


Structure = dict[int, dict[tuple[int, int], Fraction]]


def sparse(cells: list[list]) -> dict[tuple[int, int], Fraction]:
    return {
        (r, c): Fraction(x)
        for r, row in enumerate(cells)
        for c, x in enumerate(row)
        if x != 0
    }


def dual_structure(s: Structure) -> Structure:
    return {n: {(c, r): -x for (r, c), x in m.items()} for n, m in s.items()}


def boxtimes_structure(a: Structure, b: Structure, da: int, db: int) -> Structure:
    """Per degree n, entry (p, q) = A[a_p, a_q]·δ(b_p, b_q) + δ(a_p, a_q)·B[b_p, b_q].

    p and q are words of pair digits g = a·db + b; a_p and b_p are the words
    of their left and right digits (the shuffle (V⊗W)^n -> V^n ⊗ W^n).
    """
    out: Structure = {}
    for n in sorted(set(a) | set(b)):
        index: dict[tuple[int, int], int] = {}
        for p in range((da * db) ** n):
            ac = bc = 0
            t = p
            digits = []
            for _ in range(n):
                t, g = divmod(t, da * db)
                digits.append(g)
            for g in reversed(digits):
                ac = ac * da + g // db
                bc = bc * db + g % db
            index[ac, bc] = p
        m: dict[tuple[int, int], Fraction] = {}
        for (i, j), x in a.get(n, {}).items():
            for k in range(db**n):
                key = (index[i, k], index[j, k])
                m[key] = m.get(key, 0) + x
        for (k, l), x in b.get(n, {}).items():
            for i in range(da**n):
                key = (index[i, k], index[i, l])
                m[key] = m.get(key, 0) + x
        out[n] = {key: x for key, x in m.items() if x != 0}
    return out


def space_errors(data: bytes, dim: int, expected: Structure) -> str | None:
    """Compare a space file with the expected structure, entry by entry."""
    try:
        doc = json.loads(data)
    except ValueError:
        return "space file is not JSON"
    if doc.get("dim") != dim:
        return f"dim {doc.get('dim')} != {dim}"
    got = {e.get("degree"): e.get("matrix") for e in doc.get("structure", [])}
    if set(got) != set(expected):
        return f"degrees {sorted(got)} != {sorted(expected)}"
    for n, want in expected.items():
        size = dim**n
        rows = got[n]
        if len(rows) != size or any(len(row) != size for row in rows):
            return f"degree {n}: wrong shape"
        for r, row in enumerate(rows):
            for c, text in enumerate(row):
                x = want.get((r, c), 0)
                if text != gen.format_rational(x) and Fraction(text) != x:
                    return f"degree {n}: entry ({r}, {c}) is {text}, expected {x}"
    return None


def check_space(out: str, dim: int, expected: Callable[[], Structure]):
    """Check an output space file; bytes seen correct once are not re-parsed."""
    verified: set[bytes] = set()

    def check(res: Result, _cwd: Path) -> str | None:
        if res.rc != 0:
            return f"exit {res.rc}"
        data = res.files.get(out)
        if data is None:
            return f"{out} not written"
        if data in verified:
            return None
        err = space_errors(data, dim, expected())
        if err is None:
            verified.add(data)
        return err

    return check


def check_same_bytes(out: str, original: str) -> Callable[[Result, Path], str | None]:
    """dual applied twice must give back the bytes of the input it started from.

    The generator writes inputs in the canonical layout the program writes.
    """

    def check(res: Result, cwd: Path) -> str | None:
        if res.rc != 0:
            return f"exit {res.rc}"
        if res.files.get(out) != (cwd / original).read_bytes():
            return f"{out} differs from {original}"
        return None

    return check


# ---------------------------------------------------------------- workloads


def write_input(indir: Path, name: str, text: str) -> str:
    (indir / name).write_text(text, encoding="utf-8")
    return f"../in/{name}"


def _qcomm(rng: random.Random, qs, indir: Path, name: str, dim: int) -> tuple[str, str]:
    sparse_text, dense_text = gen.qcomm_pair(rng, qs, dim)
    return (
        write_input(indir, f"{name}_sparse.json", sparse_text),
        write_input(indir, f"{name}_dense.json", dense_text),
    )


def _hilbert(name: str, path: str, degree: int, series: list[int]) -> Job:
    argv = ["hilbert", path, "--max-degree", str(degree)]
    if degree > 6:
        argv.append("--cap-override")
    return Job(name, argv, check_series(series))


def _verify(name: str, paths: list[str], suite: str, *extra: str) -> Job:
    return Job(name, ["verify", *paths, "--suite", suite, "--trials", "0", *extra], check_verify)


def _coverage_triple(rng: random.Random, indir: Path) -> Job:
    """A small dim-2 ``verify --suite all`` run.

    It puts every layer and every named check on every workload at a few
    per cent of its time, so each per-layer metric is measured everywhere.
    """
    qs = gen.q_draw(rng)
    paths = [_qcomm(rng, qs, indir, f"cov_{k}", 2)[0] for k in "vwu"]
    return _verify("verify-all-2-coverage", paths, "all")


def hilbert_graded(rng: random.Random, indir: Path) -> list[Job]:
    def affine(dim: int, n: int) -> list[int]:
        return [comb(k + dim - 1, dim - 1) for k in range(n + 1)]

    q3s, q3d = _qcomm(rng, gen.q_draw(rng), indir, "q3", 3)
    q2s, q2d = _qcomm(rng, gen.q_draw(rng), indir, "q2", 2)
    qs = gen.q_draw(rng)
    ca, cb = gen.qcomm_matrix(qs, 2), gen.qcomm_matrix(qs, 2)
    ha = write_input(indir, "hom_a.json", gen.space_json(2, {2: ca}))
    hb = write_input(indir, "hom_b.json", gen.space_json(2, {2: cb}))
    hom = boxtimes_structure(dual_structure({2: sparse(ca)}), {2: sparse(cb)}, 2, 2)
    cubic = write_input(indir, "cubic.json", gen.space_json(2, {3: gen.cubic_matrix()}))
    return [
        _hilbert("hilbert-q3-sparse-5", q3s, 5, affine(3, 5)),
        _hilbert("hilbert-q3-dense-5", q3d, 5, affine(3, 5)),
        _hilbert("hilbert-q2-sparse-8", q2s, 8, affine(2, 8)),
        _hilbert("hilbert-q2-dense-8", q2d, 8, affine(2, 8)),
        Job("hom-q2-q2", ["hom", ha, hb, "--out", "hom.json"],
            check_space("hom.json", 4, lambda: hom), ("hom.json",)),
        _hilbert("hilbert-hom-3", "hom.json", 3, [comb(k + 3, 3) for k in range(4)]),
        _hilbert("hilbert-hom-5", "hom.json", 5, [comb(k + 3, 3) for k in range(6)]),
        _hilbert("hilbert-cubic-9", cubic, 9, list(CUBIC_SERIES[:10])),
        _coverage_triple(rng, indir),
    ]


def verify_containment(rng: random.Random, indir: Path) -> list[Job]:
    qs = gen.q_draw(rng)
    v2, w2 = (_qcomm(rng, qs, indir, f"b{k}", 2)[0] for k in "vw")
    u3 = _qcomm(rng, qs, indir, "bu", 3)[0]
    qs = gen.q_draw(rng)
    v3 = _qcomm(rng, qs, indir, "cv", 3)[1]
    w2d = _qcomm(rng, qs, indir, "cw", 2)[1]
    qs = gen.q_draw(rng)
    ev, ew = (_qcomm(rng, qs, indir, f"e{k}", 2)[0] for k in "vw")
    jobs = [
        _verify("bialgebra-2-2-3-sparse", [v2, w2, u3], "bialgebra"),
        _verify("bialgebra-3-2-2-dense", [v3, w2d, w2d], "bialgebra"),
        _verify("epi-2-degree-4", [ev, ew], "epi", "--epi-degree", "4"),
    ]
    for t in range(6):
        qs = gen.q_draw(rng)
        paths = [_qcomm(rng, qs, indir, f"all{t}_{k}", 2)[0] for k in "vwu"]
        jobs.append(_verify(f"all-2-{t}", paths, "all"))
    cells = gen.qcomm_matrix(gen.q_draw(rng), 2)
    src = write_input(indir, "dual_src.json", gen.space_json(2, {2: cells}))
    jobs.append(Job("dual-2-coverage", ["dual", src, "--out", "dual2.json"],
                    check_space("dual2.json", 2, lambda: dual_structure({2: sparse(cells)})),
                    ("dual2.json",)))
    return jobs


def construct_rigidity(rng: random.Random, indir: Path) -> list[Job]:
    def draw(name: str) -> tuple[str, Structure]:
        cells = {2: gen.random_dense(rng, 9), 3: gen.random_dense(rng, 27)}
        return write_input(indir, name, gen.space_json(3, cells)), {n: sparse(m) for n, m in cells.items()}

    (a, sa), (b, sb), (c, _), (d, _) = (draw(f"r{k}.json") for k in "abcd")

    @functools.cache
    def expected(kind: str) -> Structure:
        if kind == "product":
            return boxtimes_structure(sa, sb, 3, 3)
        if kind == "hom":
            return boxtimes_structure(dual_structure(sa), sb, 3, 3)
        return dual_structure(expected("product"))

    return [
        Job("product-3", ["product", a, b, "--out", "prod.json"],
            check_space("prod.json", 9, lambda: expected("product")), ("prod.json",)),
        Job("hom-3", ["hom", a, b, "--out", "hom.json"],
            check_space("hom.json", 9, lambda: expected("hom")),
            ("hom.json",)),
        Job("dual-3", ["dual", a, "--out", "dual.json"],
            check_space("dual.json", 3, lambda: dual_structure(sa)), ("dual.json",)),
        Job("dual-dual-3", ["dual", "dual.json", "--out", "dual_dual.json"],
            check_same_bytes("dual_dual.json", a), ("dual_dual.json",)),
        Job("dual-product", ["dual", "prod.json", "--out", "prod_dual.json"],
            check_space("prod_dual.json", 9, lambda: expected("product-dual")),
            ("prod_dual.json",)),
        _verify("rigidity-3-ab", [a, b], "rigidity"),
        _verify("rigidity-3-cd", [c, d], "rigidity"),
        _coverage_triple(rng, indir),
    ]


WORKLOADS = {
    "hilbert-graded": hilbert_graded,
    "verify-containment": verify_containment,
    "construct-rigidity": construct_rigidity,
}


def build(workload: str, seed: int, indir: Path) -> list[Job]:
    """Write the workload's inputs for this seed into indir and list its jobs."""
    indir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), indir)
