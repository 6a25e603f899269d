"""Acceptance suite: one test per criterion, zero tolerance throughout.

Every expected constant was computed first with the brute-force oracles in
oracles.py and frozen here; the cheap ones are re-derived inline on every
run.  Each criterion prints a single pass/fail line.
"""

import json
import random
import time
from contextlib import contextmanager

from eqspace import (
    EquippedSpace,
    apply_U,
    check_U_epi,
    check_comult_well_defined,
    check_manin_epi,
    coassociativity_check,
    coev_map,
    column_space,
    counit_check,
    counit_law_check,
    ev_map,
    frt_relations,
    frt_relations_conic,
    hom_space,
    manin_hom_relations,
    verify_hom_equals_frt,
)
from eqspace.cli import main
from eqspace.fileio import read_space, write_space
from eqspace.sampling import random_equipped
from eqspace.suites import coev_kron_identity

from conftest import QP_MATRIX, cubic_matrix, random_quadratic
from oracles import (
    boxtimes_conjugation,
    dense_frt_relation_generators,
    oracle_graded_dims,
    oracle_rank,
)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


def test_criterion_1_cohom_equals_frt_identification():
    with criterion("1 coHom = quantum-matrix relation span (50 random pairs)"):
        rng = random.Random(20240801)
        start = time.perf_counter()
        for _ in range(50):
            V = random_quadratic(rng, rng.choice((2, 3)))
            W = random_quadratic(rng, rng.choice((2, 3)))
            rep = verify_hom_equals_frt(V, W)
            assert rep.passed, rep.witness
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"identification suite took {elapsed:.2f}s"


def test_criterion_2_rigidity():
    with criterion("2 rigidity: ev/coev arrows and coevaluation identity"):
        rng = random.Random(20240802)
        for _ in range(50):
            d = rng.randint(1, 3)
            degrees = rng.choice([(2,), (3,), (2, 3)])
            V = random_equipped(rng, d, degrees)
            assert ev_map(V).passed
            assert coev_map(V).passed
            assert coev_kron_identity(V).passed


def test_criterion_3_bialgebra_suite(dj):
    with criterion("3 bialgebra suite: random triples and the braided instance"):
        rng = random.Random(20240803)
        for _ in range(20):
            V = random_quadratic(rng, 2)
            assert check_comult_well_defined(V, V, V).passed
            assert counit_check(V).passed
        assert coassociativity_check(2, 2, 2, 2).passed
        assert counit_law_check(2, 2).passed

        assert check_comult_well_defined(dj, dj, dj).passed
        assert counit_check(dj).passed
        rel = frt_relations(dj, dj)
        assert rel.dim == 6
        series = apply_U(hom_space(dj, dj)).hilbert(3)
        assert series == [1, 4, 10, 20]
        raw = [vec for _, vec in dense_frt_relation_generators(dj, dj)]
        assert oracle_graded_dims(4, {2: raw}, 3) == [1, 4, 10, 20]


def test_criterion_4_quantum_plane_instance(qp):
    with criterion("4 quantum plane: series, relation spans, containment"):
        assert apply_U(qp).hilbert(4) == [1, 2, 3, 4, 5]
        frt = frt_relations(qp, qp)
        assert frt.dim == 6
        raw = [vec for _, vec in dense_frt_relation_generators(qp, qp)]
        assert oracle_rank(raw) == 6
        manin = manin_hom_relations(apply_U(qp), apply_U(qp))
        assert manin.dim == 3
        assert frt.first_outside(manin.basis.cells) is None


def test_criterion_5_epimorphism_inclusions():
    with criterion("5 epimorphism inclusions: ideal and relation containments"):
        rng = random.Random(20240805)
        for _ in range(50):
            V, W = random_quadratic(rng, 2), random_quadratic(rng, 2)
            rep = check_U_epi(V, W, 3)
            assert rep.passed, rep.witness
        for _ in range(50):
            V = random_quadratic(rng, rng.choice((2, 3)))
            W = random_quadratic(rng, rng.choice((2, 3)))
            rep = check_manin_epi(V, W)
            assert rep.passed, rep.witness
            assert rep.dimensions["manin"] <= rep.dimensions["frt"]


def test_criterion_6_conic_generalization(cubic):
    with criterion("6 conic case: cubic relation span and degree-3 rigidity"):
        conic = frt_relations_conic(cubic, cubic, 3)
        R3 = cubic_matrix()
        direct = boxtimes_conjugation(-R3.transpose(), R3, 2, 2, 3)
        assert conic == column_space(direct)

        rng = random.Random(20240806)
        for _ in range(50):
            d = rng.randint(1, 3)
            V = random_equipped(rng, d, (3,))
            assert ev_map(V).passed
            assert coev_map(V).passed
            assert coev_kron_identity(V).passed


def test_criterion_7_determinism_and_roundtrip(tmp_path, capsys):
    with criterion("7 determinism: file round-trips and byte-identical reports"):
        rng = random.Random(20240807)
        for i in range(5):
            V = random_equipped(rng, rng.randint(1, 3), rng.choice([(2,), (2, 3)]))
            path = tmp_path / f"space{i}.json"
            write_space(path, V)
            assert read_space(path) == V

        qp_path = tmp_path / "qp.json"
        write_space(qp_path, EquippedSpace(2, {2: QP_MATRIX}))
        out = tmp_path / "report.json"
        argv = [
            "verify",
            str(qp_path),
            str(qp_path),
            "--suite",
            "epi",
            "--seed",
            "11",
            "--trials",
            "3",
            "--out",
            str(out),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        first = out.read_bytes()
        assert main(argv) == 0
        capsys.readouterr()
        assert out.read_bytes() == first
        assert json.loads(first)["pass"] is True

        assert main(["hilbert", str(qp_path), "--max-degree", "4"]) == 0
        first_out = capsys.readouterr().out
        assert main(["hilbert", str(qp_path), "--max-degree", "4"]) == 0
        assert capsys.readouterr().out == first_out == "1 2 3 4 5\n"
