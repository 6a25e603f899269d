"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

import gen
import run
import spans
import workloads
from spans import Span
from workloads import Result

ROOT = Path(__file__).resolve().parent.parent


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_for_a_seed(tmp_path, workload):
    a = workloads.build(workload, 7, tmp_path / "a")
    b = workloads.build(workload, 7, tmp_path / "b")
    c = workloads.build(workload, 8, tmp_path / "c")
    assert [j.argv for j in a] == [j.argv for j in b]
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_dense_form_is_an_integer_change_of_basis():
    rng = random.Random(3)
    for dim in (2, 3):
        g, g_inv = gen.change_of_basis(rng, dim)
        assert gen.matmul(g, g_inv) == [[int(i == j) for j in range(dim)] for i in range(dim)]
        assert sum(x != 0 for row in g for x in row) > dim  # not diagonal


def _span(name, start, end, parent=None):
    return Span(name, start, end, parent, "job", None)


def test_self_time_subtracts_child_coverage():
    tree = [
        _span("cli.main", 0.0, 10.0),  # 0
        _span("fileio.read_space", 1.0, 2.0, 0),  # 1
        _span("algebras.x", 3.0, 9.0, 0),  # 2
        _span("linalg.a", 4.0, 6.0, 2),  # 3
        _span("linalg.b", 5.5, 7.0, 2),  # 4: overlaps 3, union is [4, 7]
        _span("tensors.c", 8.5, 9.5, 2),  # 5: sticks out of its parent, clipped to [8.5, 9]
        _span("linalg.d", 4.5, 5.0, 3),  # 6
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 1.0, 2.5, 1.5, 1.5, 1.0, 0.5])


def test_per_layer_sums_self_time_by_layer_and_counts():
    tree = [
        _span("cli.main", 0.0, 10.0),
        Span("linalg.Subspace.from_rows", 1.0, 4.0, 0, "job",
             {"rows": 8, "cols": 16, "rank": 2, "bits": 5}),
        _span(spans.ACCOUNTING, 4.0, 4.5, 0),
        Span("linalg.kernel", 5.0, 6.0, 0, "job", {"rows": 4, "cols": 4, "rank": 2, "bits": 9}),
        Span("frt.check_x", 6.0, 8.0, 0, "job", {"check": "hom-equals-frt"}),
    ]
    m = spans.per_layer(tree, 10.0)
    assert m["linalg.from_rows.calls"] == 2
    assert m["linalg.from_rows.rows_in"] == 12
    assert m["linalg.from_rows.cells_in"] == 8 * 16 + 4 * 4
    assert m["linalg.from_rows.useful_ratio"] == pytest.approx(4 / 12)
    assert (m["linalg.ambient_max"], m["linalg.max_bits"]) == (16, 9)
    assert m["linalg.self_s"] == pytest.approx(4.0)
    assert m["cli.self_s"] == pytest.approx(3.5)
    assert m["trace.self_s"] == pytest.approx(0.5)
    assert m["check.hom-equals-frt.s"] == pytest.approx(2.0)
    assert m["trace.coverage_ratio"] == pytest.approx(1.0)


def test_checker_counts_corrupted_outputs_as_failures(tmp_path):
    series = workloads.check_series([1, 2, 3])
    assert series(Result(0, b"1 2 3\n"), tmp_path) is None
    assert series(Result(0, b"1 2 4\n"), tmp_path) is not None
    assert series(Result(1, b"1 2 3\n"), tmp_path) is not None

    report = {"pass": True, "checks": [{"name": "x", "pass": True}]}
    assert workloads.check_verify(Result(0, json.dumps(report).encode()), tmp_path) is None
    report["checks"][0]["pass"] = False
    assert workloads.check_verify(Result(0, json.dumps(report).encode()), tmp_path) is not None

    cells = gen.qcomm_matrix(gen.q_draw(random.Random(1)), 2)
    good = gen.space_json(2, {2: cells}).encode()
    check = workloads.check_space("out.json", 2, lambda: {2: workloads.sparse(cells)})
    assert check(Result(0, b"", {"out.json": good}), tmp_path) is None
    bad = good.replace(b'"-', b'"', 1)  # flip the sign of one entry
    assert check(Result(0, b"", {"out.json": bad}), tmp_path) is not None

    outcomes = [run.Outcome("ok", 1.0, None, Result(0, b"")),
                run.Outcome("bad", 1.0, check(Result(0, b"", {"out.json": bad}), tmp_path),
                            Result(0, b""))]
    summary = run.summary({"wall_s": 2.0}, outcomes)
    assert (summary["correct"], summary["attempted"], summary["failed"]) == (False, 2, 1)


def test_job_times_are_scaled_by_the_median_probe_around_them(monkeypatch):
    r, e = run.REF_PROBE_S, run.PROBE_EXPONENT

    def scaled(probes):
        sequence = [run.Outcome(f"j{i}", 1.0, None, Result(0, b"")) for i in range(len(probes) - 1)]
        run.scale_to_reference(sequence, probes)
        return [o.ref_s for o in sequence]

    # A lone slow probe does not move the jobs around it.
    assert scaled([r, r, 4 * r, r, r, r]) == pytest.approx([1.0] * 5)
    # A whole stretch at half the reference speed shortens the times.
    assert scaled([2 * r] * 6) == pytest.approx([0.5**e] * 5)
    monkeypatch.setattr(run, "PROBE_SPAN", 1)  # just the probes before and after
    assert scaled([r, 2 * r, 4 * r, r]) == pytest.approx([(1 / 1.5)**e, (1 / 3)**e, (1 / 2.5)**e])


def test_hd_median_does_not_jump_between_clusters():
    assert run.hd_median([1, 2, 3, 4, 5]) == pytest.approx(3)
    assert run.hd_median([7.0]) == 7.0
    # One sample crossing the gap between two clusters moves the plain
    # median from one cluster to the other, and this estimate a little.
    low, high = [1.0] * 10 + [2.0] * 11, [1.0] * 11 + [2.0] * 10
    assert abs(run.hd_median(low) - run.hd_median(high)) < 0.25


def test_expected_boxtimes_matches_the_library():
    sys.path.insert(0, str(ROOT / "src"))
    from eqspace import EquippedSpace, Matrix, boxtimes, dagger

    rng = random.Random(5)
    a = {2: gen.random_dense(rng, 4), 3: gen.random_dense(rng, 8)}
    b = {2: gen.random_dense(rng, 9)}
    va = EquippedSpace(2, {n: Matrix(m) for n, m in a.items()})
    vb = EquippedSpace(3, {n: Matrix(m) for n, m in b.items()})
    sa = {n: workloads.sparse(m) for n, m in a.items()}
    sb = {n: workloads.sparse(m) for n, m in b.items()}
    for lib, ours in (
        (boxtimes(va, vb), workloads.boxtimes_structure(sa, sb, 2, 3)),
        (boxtimes(dagger(va), vb), workloads.boxtimes_structure(workloads.dual_structure(sa), sb, 2, 3)),
    ):
        assert {n: workloads.sparse(m.cells) for n, m in lib.structure_items()} == ours


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = [*spans.per_layer([], 1.0), "cli.cpu_s", "trace.overhead_ratio"]
    assert [m["name"] for m in spec["per_layer"]] == reported
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"] + spec["end_to_end"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    e2e = {"setup_s", "wall_s", "job_p50_s", "peak_rss_mb", "job_ok_ratio"}
    assert {m["name"] for m in spec["end_to_end"]} == e2e


def test_recorded_cubic_series_recurrence():
    s = workloads.CUBIC_SERIES
    assert s[:2] == (1, 2)
    assert all(s[n] == s[n - 1] + s[n - 2] + 1 for n in range(2, len(s)))
