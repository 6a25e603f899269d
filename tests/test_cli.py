import ast
import json
import os
import shutil
import subprocess
from pathlib import Path

import pytest

import eqspace
from eqspace import EquippedSpace, Matrix, VerificationReport, boxtimes, hom_space
from eqspace import cli
from eqspace.cli import main
from eqspace.fileio import SpaceFormatError, parse_rational, read_space, write_space
from eqspace.report import dumps_canonical, report_to_dict
from eqspace.sampling import random_equipped
from conftest import DJ_MATRIX, QP_MATRIX
from oracles import dumps_reference, space_to_dict
from test_golden import CASES, EXPECTED, INPUTS

import random
import sys
from fractions import Fraction


def read_dict(tmp_path, data):
    """Read data, written out as a JSON space file, with read_space."""
    path = tmp_path / "from_dict.json"
    path.write_text(json.dumps(data))
    return read_space(path)


def write_qp(path):
    write_space(path, EquippedSpace(2, {2: QP_MATRIX}))
    return str(path)


def write_dj(path):
    write_space(path, EquippedSpace(2, {2: DJ_MATRIX}))
    return str(path)


class TestRationalStrings:
    def test_roundtrip(self):
        for text in ["0", "-3", "7/2", "-5/3", "+4"]:
            assert str(parse_rational(text)) == text.lstrip("+")

    def test_integer_form_when_denominator_one(self, tmp_path):
        assert str(Fraction(6, 3)) == "2"
        V = EquippedSpace(1, {2: Matrix([[Fraction(6, 3)]])})
        write_space(tmp_path / "one.json", V)
        data = json.loads((tmp_path / "one.json").read_text())
        assert data["structure"][0]["matrix"] == [["2"]]

    def test_rejects_floats_and_garbage(self):
        for bad in ["1.5", "", "3/-2", "3/0", "a", "1e3", None, 2]:
            with pytest.raises(SpaceFormatError):
                parse_rational(bad)

    def test_rejects_whitespace_and_non_ascii_digits(self):
        for bad in ["3\n", "1/2\n", "\u0663", " 3", "3 ", "1_000", "1/\u0662"]:
            with pytest.raises(SpaceFormatError):
                parse_rational(bad)

    def test_accepts_signs_zero_and_unreduced_forms(self):
        cases = {"+4": 4, "-0": 0, "4/2": 2, "0/5": 0, "-6/4": Fraction(-3, 2)}
        for text, value in cases.items():
            got = parse_rational(text)
            assert got == value and type(got) is type(value)


class TestSpaceFiles:
    def test_write_read_roundtrip(self, tmp_path):
        rng = random.Random(5)
        for i in range(5):
            V = random_equipped(rng, rng.randint(1, 3), rng.choice([(2,), (2, 3)]))
            path = tmp_path / f"space{i}.json"
            write_space(path, V)
            assert read_space(path) == V

    def test_duplicate_degrees_rejected(self, tmp_path):
        entry = {"degree": 2, "matrix": [["0"] * 4 for _ in range(4)]}
        with pytest.raises(SpaceFormatError):
            read_dict(tmp_path, {"dim": 2, "structure": [entry, dict(entry)]})

    def test_boolean_dim_and_degree_rejected(self, tmp_path):
        matrix = [["0"] * 4 for _ in range(4)]
        with pytest.raises(SpaceFormatError):
            read_dict(tmp_path, {"dim": True, "structure": []})
        with pytest.raises(SpaceFormatError):
            read_dict(
                tmp_path, {"dim": 2, "structure": [{"degree": True, "matrix": [["0", "0"]] * 2}]}
            )
        with pytest.raises(SpaceFormatError):
            read_dict(tmp_path, {"dim": 2, "structure": [{"degree": 2.0, "matrix": matrix}]})

    def test_boolean_dim_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bool_dim.json"
        path.write_text(json.dumps({"dim": True, "structure": []}))
        assert main(["dual", str(path), "--out", str(tmp_path / "out.json")]) == 2
        assert not (tmp_path / "out.json").exists()
        capsys.readouterr()

    def test_repeated_bad_entry_rejected_after_good_ones(self, tmp_path):
        good = ["1", "-2/3", "0", "1"]
        for rows in (
            [good, ["1", "-2/3", "1.5", "1.5"]] + [good] * 2,
            [good, good, good, ["0", "1", "-2/3", "x"]],
            [good, good, good, ["1", "0", "0", 1]],
        ):
            with pytest.raises(SpaceFormatError):
                read_dict(tmp_path, {"dim": 2, "structure": [{"degree": 2, "matrix": rows}]})

    def test_number_after_same_string_rejected(self, tmp_path):
        rows = [["1", "0", "0", "0"], [1, "0", "0", "0"], ["0"] * 4, ["0"] * 4]
        with pytest.raises(SpaceFormatError):
            read_dict(tmp_path, {"dim": 2, "structure": [{"degree": 2, "matrix": rows}]})

    def test_non_string_entries_exit_two(self, tmp_path, capsys):
        for bad in ([], {}, None, True, ["1"], {"1": "1"}):
            rows = [["0"] * 4, ["1", "0", bad, "0"], ["0"] * 4, ["0"] * 4]
            with pytest.raises(SpaceFormatError):
                read_dict(tmp_path, {"dim": 2, "structure": [{"degree": 2, "matrix": rows}]})
            path = tmp_path / "bad_entry.json"
            path.write_text(json.dumps({"dim": 2, "structure": [{"degree": 2, "matrix": rows}]}))
            out = tmp_path / "out.json"
            assert main(["dual", str(path), "--out", str(out)]) == 2
            assert not out.exists()
        capsys.readouterr()

    def test_equal_rationals_read_as_one_value(self, tmp_path):
        rows = [["2/4", "1/2", "4/2", "2"]] + [["0"] * 4] * 3
        V = read_dict(tmp_path, {"dim": 2, "structure": [{"degree": 2, "matrix": rows}]})
        got = V.structure_at(2).cells[0]
        assert got == (Fraction(1, 2), Fraction(1, 2), 2, 2)
        assert [type(x) for x in got] == [Fraction, Fraction, int, int]

    def test_bad_matrix_shape_rejected(self, tmp_path):
        with pytest.raises(SpaceFormatError):
            read_dict(tmp_path, {"dim": 2, "structure": [{"degree": 2, "matrix": [["1", "0"]]}]})

    def test_writer_matches_json_encoder(self, tmp_path):
        rng = random.Random(11)
        notes = [None, "t[i][j] at j*dim_v + i", 'quote " and backslash \\', "w\u2297v \u00e9"]
        path = tmp_path / "space.json"
        for support in [(), (2,), (3,), (2, 3)]:
            for dim in (1, 2, 3):
                for note in notes:
                    V = random_equipped(rng, dim, support)
                    write_space(path, V, note)
                    assert path.read_bytes() == dumps_reference(space_to_dict(V, note)).encode()
        V = EquippedSpace(1, {2: Matrix([[Fraction(-7, 3)]])})
        write_space(path, V, notes[3])
        assert '"-7/3"' in path.read_text() and "\\u2297" in path.read_text()
        assert path.read_bytes() == dumps_reference(space_to_dict(V, notes[3])).encode()
        # Zeros come from a template and every other entry from str(): Fraction(0),
        # Fraction(4, 2), negative fractions, all-zero rows and dim 1.
        f = Fraction
        cells = [[f(0), f(4, 2), 0, f(-7, 3)], [0] * 4, [f(-1, 2), 5, f(0), 0], [f(0)] * 4]
        for V in [
            EquippedSpace(2, {2: Matrix(cells)}),
            EquippedSpace(1, {2: Matrix([[f(0)]]), 3: Matrix([[f(-9, 4)]])}),
        ]:
            write_space(path, V)
            assert path.read_bytes() == dumps_reference(space_to_dict(V)).encode()

    def test_note_survives_serialization_but_not_identity(self, tmp_path):
        V = EquippedSpace(2, {2: QP_MATRIX})
        write_space(tmp_path / "noted.json", V, note="generators: g = j*dim_v + i")
        assert "generators" in json.loads((tmp_path / "noted.json").read_text())
        assert read_space(tmp_path / "noted.json") == V


class TestConstructionCommands:
    def test_product_with_unit(self, tmp_path):
        qp_path = write_qp(tmp_path / "qp.json")
        unit_path = tmp_path / "unit.json"
        write_space(unit_path, EquippedSpace(1, {}))
        out = tmp_path / "prod.json"
        assert main(["product", str(unit_path), qp_path, "--out", str(out)]) == 0
        got = read_space(out)
        assert got.dim == 2
        assert got.structure_at(2) == QP_MATRIX

    def test_double_dual_restores_file(self, tmp_path):
        qp_path = write_qp(tmp_path / "qp.json")
        once = tmp_path / "dual.json"
        twice = tmp_path / "dual2.json"
        assert main(["dual", qp_path, "--out", str(once)]) == 0
        assert main(["dual", str(once), "--out", str(twice)]) == 0
        assert (tmp_path / "qp.json").read_bytes() == twice.read_bytes()

    @pytest.mark.parametrize("command", ["product", "hom"])
    @pytest.mark.parametrize("first, second", [("graded.json", "a.json"), ("a.json", "graded.json")])
    def test_mixed_support_equals_the_library(self, tmp_path, command, first, second):
        # graded.json has degrees 2 and 3 and a.json degree 2 only, so in
        # either order degree 3 has a zero factor on one side, which the
        # commands take as zero rows and the library as Matrix.zero.
        A, B = read_space(INPUTS / first), read_space(INPUTS / second)
        if command == "product":
            write_space(tmp_path / "want.json", boxtimes(A, B))
        else:
            write_space(tmp_path / "want.json", hom_space(A, B), note=cli.GENERATOR_NOTE)
        out = tmp_path / "out.json"
        assert main([command, str(INPUTS / first), str(INPUTS / second), "--out", str(out)]) == 0
        assert out.read_bytes() == (tmp_path / "want.json").read_bytes()

    def test_hom_embeds_generator_note(self, tmp_path):
        qp_path = write_qp(tmp_path / "qp.json")
        out = tmp_path / "hom.json"
        assert main(["hom", qp_path, qp_path, "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["dim"] == 4
        assert "j*dim_v + i" in data["generators"]

    def test_project_rejects_boolean_dim_and_degree(self, tmp_path, capsys):
        for dim, degree in ((True, 2), (2, True)):
            rel = {"dim": dim, "degree": degree, "basis": [["0", "1", "-2", "0"]]}
            rel_path = tmp_path / "rel.json"
            rel_path.write_text(json.dumps(rel))
            out = tmp_path / "proj.json"
            assert main(["project", str(rel_path), "--out", str(out)]) == 2
            assert not out.exists()
        capsys.readouterr()

    def test_project_rebuilds_quantum_plane(self, tmp_path):
        rel = {
            "dim": 2,
            "degree": 2,
            "basis": [["0", "1", "-2", "0"]],
        }
        rel_path = tmp_path / "rel.json"
        rel_path.write_text(json.dumps(rel))
        out = tmp_path / "proj.json"
        assert main(["project", str(rel_path), "--out", str(out)]) == 0
        built = read_space(out)
        assert built.structure_at(2) == QP_MATRIX


class TestMonoidalCoherenceCommands:
    """Two command routes to the same space agree on the golden inputs: a
    differential test of the row path at file scale, with no oracle."""

    def run(self, tmp_path, command, *args):
        out = tmp_path / f"{command}{len(list(tmp_path.iterdir()))}.json"
        assert main([command, *map(str, args), "--out", str(out)]) == 0
        return out

    def test_product_is_associative_byte_for_byte(self, tmp_path):
        a, b, u = (INPUTS / f"{n}.json" for n in "abu")
        left = self.run(tmp_path, "product", self.run(tmp_path, "product", a, b), u)
        right = self.run(tmp_path, "product", a, self.run(tmp_path, "product", b, u))
        assert left.read_bytes() == right.read_bytes()

    def test_product_is_associative_at_file_scale(self, product_file, tmp_path):
        # product_file's dense dim-3 pair and a dim-1 factor whose degree-2
        # and degree-3 entries shift every diagonal entry: both routes read
        # and write 7.8 MB files, across hundreds of 16 KiB chunks.
        a, b = product_file.with_name("a.json"), product_file.with_name("b.json")
        c = tmp_path / "c.json"
        write_space(c, EquippedSpace(1, {2: Matrix([[Fraction(-2, 3)]]), 3: Matrix([[5]])}))
        left = self.run(tmp_path, "product", self.run(tmp_path, "product", a, b), c)
        right = self.run(tmp_path, "product", a, self.run(tmp_path, "product", b, c))
        assert left.stat().st_size > 7_000_000
        assert left.read_bytes() == right.read_bytes()

    def test_hom_routes_through_products(self, tmp_path):
        # hom writes a "generators" note that product does not, so the routes
        # are compared as spaces.
        a, b, u = (INPUTS / f"{n}.json" for n in "abu")
        ab = self.run(tmp_path, "product", a, b)
        from_product = self.run(tmp_path, "hom", ab, u)
        dual_a, hom_bu = self.run(tmp_path, "dual", a), self.run(tmp_path, "hom", b, u)
        dual_first = self.run(tmp_path, "product", dual_a, hom_bu)
        assert read_space(from_product) == read_space(dual_first)
        into_product = self.run(tmp_path, "hom", u, ab)
        hom_first = self.run(tmp_path, "product", self.run(tmp_path, "hom", u, a), b)
        assert read_space(into_product) == read_space(hom_first)


class TestHilbertCommand:
    def test_free_series(self, tmp_path, capsys):
        path = tmp_path / "free.json"
        write_space(path, EquippedSpace(2, {}))
        assert main(["hilbert", str(path), "--max-degree", "3"]) == 0
        assert capsys.readouterr().out == "1 2 4 8\n"

    def test_quantum_plane_series(self, tmp_path, capsys):
        qp_path = write_qp(tmp_path / "qp.json")
        assert main(["hilbert", qp_path, "--max-degree", "4"]) == 0
        assert capsys.readouterr().out == "1 2 3 4 5\n"

    def test_braided_hom_series(self, tmp_path, capsys):
        dj_path = write_dj(tmp_path / "dj.json")
        hom_path = tmp_path / "hom.json"
        main(["hom", dj_path, dj_path, "--out", str(hom_path)])
        assert main(["hilbert", str(hom_path), "--max-degree", "3"]) == 0
        assert capsys.readouterr().out == "1 4 10 20\n"

    def test_cap_exceeded(self, tmp_path, capsys):
        qp_path = write_qp(tmp_path / "qp.json")
        assert main(["hilbert", qp_path, "--max-degree", "7"]) == 4
        capsys.readouterr()
        assert main(["hilbert", qp_path, "--max-degree", "7", "--cap-override"]) == 0
        assert capsys.readouterr().out == "1 2 3 4 5 6 7 8\n"

    def test_report_file(self, tmp_path, capsys):
        qp_path = write_qp(tmp_path / "qp.json")
        out = tmp_path / "report.json"
        main(["hilbert", qp_path, "--max-degree", "2", "--out", str(out)])
        capsys.readouterr()
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert report["checks"][0]["dimensions"] == {"0": 1, "1": 2, "2": 3}


class TestVerifyCommand:
    def test_epi_suite_on_quantum_plane(self, tmp_path, capsys):
        qp_path = write_qp(tmp_path / "qp.json")
        code = main(
            ["verify", qp_path, qp_path, "--suite", "epi", "--trials", "0"]
        )
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["manin-relations-in-frt"]["dimensions"] == {
            "frt": 6,
            "manin": 3,
        }

    def test_rigidity_suite(self, tmp_path, capsys):
        qp_path = write_qp(tmp_path / "qp.json")
        dj_path = write_dj(tmp_path / "dj.json")
        assert (
            main(
                ["verify", qp_path, dj_path, "--suite", "rigidity", "--trials", "2"]
            )
            == 0
        )
        capsys.readouterr()

    def test_bialgebra_suite_with_zero_structures(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        write_space(path, EquippedSpace(2, {2: Matrix.zero(4, 4)}))
        code = main(
            [
                "verify",
                str(path),
                str(path),
                str(path),
                "--suite",
                "bialgebra",
                "--trials",
                "1",
            ]
        )
        assert code == 0
        capsys.readouterr()

    def test_trials_with_degree_one_support(self, tmp_path, capsys):
        # Degree-1 entries are zero by invariant; random redraws must not
        # try to generate nonzero ones.
        path = tmp_path / "deg1.json"
        write_space(
            path, EquippedSpace(2, {1: Matrix.zero(2, 2), 2: Matrix.zero(4, 4)})
        )
        code = main(
            ["verify", str(path), str(path), "--suite", "rigidity", "--trials", "2"]
        )
        assert code == 0
        capsys.readouterr()

    def test_bialgebra_requires_middle_space(self, tmp_path, capsys):
        qp_path = write_qp(tmp_path / "qp.json")
        assert main(["verify", qp_path, qp_path, "--suite", "bialgebra"]) == 2
        capsys.readouterr()

    def test_pretty_output(self, tmp_path, capsys):
        qp_path = write_qp(tmp_path / "qp.json")
        main(
            [
                "verify",
                qp_path,
                qp_path,
                "--suite",
                "epi",
                "--trials",
                "0",
                "--pretty",
            ]
        )
        out = capsys.readouterr().out
        assert "PASS  manin-relations-in-frt" in out
        assert out.strip().endswith("overall: PASS")

    def test_pretty_prints_a_failing_witness(self, tmp_path, monkeypatch, capsys):
        # A negation that keeps the sign breaks only coev-kron-identity; each
        # failing check is followed by its witness line.
        for name in ("a.json", "b.json"):
            shutil.copy(INPUTS / name, tmp_path / name)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(Matrix, "__neg__", lambda self: self)
        argv = ["verify", "a.json", "b.json", "--suite", "rigidity", "--trials", "0", "--pretty"]
        assert main(argv) == 1
        assert capsys.readouterr().out == (
            "FAIL  coev-kron-identity[v]\n"
            '      witness: {"degree": 2, "image": [0, 0, 0, 0, 0, 1, -2, 0, 0, "-3/2", 3, 0, 0, 0, 0, 0]}\n'
            "FAIL  coev-kron-identity[w]\n"
            '      witness: {"degree": 2, "image": [1, 0, 0, 0, 0, 1, 0, 0, 0, -2, 0, 0, 0, 0, 0, 0]}\n'
            "PASS  coev-morphism[v]\n"
            "PASS  coev-morphism[w]\n"
            "PASS  ev-morphism[v]\n"
            "PASS  ev-morphism[w]\n"
            "PASS  snake-identity[v]\n"
            "PASS  snake-identity[w]\n"
            "overall: FAIL\n"
        )

    def test_reports_are_byte_identical_for_fixed_seed(self, tmp_path, capsys):
        qp_path = write_qp(tmp_path / "qp.json")
        out = tmp_path / "report.json"
        argv = [
            "verify",
            qp_path,
            qp_path,
            "--suite",
            "epi",
            "--seed",
            "7",
            "--trials",
            "2",
            "--out",
            str(out),
        ]
        main(argv)
        capsys.readouterr()
        first = out.read_bytes()
        main(argv)
        capsys.readouterr()
        assert out.read_bytes() == first

    def test_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        import eqspace.suites as suites_mod

        qp_path = write_qp(tmp_path / "qp.json")
        failing = VerificationReport(
            "synthetic", False, witness={"degree": 2, "vector": [1, 0]}
        )
        monkeypatch.setattr(suites_mod, "suite_checks", lambda *a, **kw: [failing])
        code = main(
            ["verify", qp_path, qp_path, "--suite", "epi", "--trials", "0"]
        )
        out = capsys.readouterr().out
        assert code == 1
        report = json.loads(out)
        assert report["pass"] is False
        assert report["checks"][0]["witness"] == {"degree": 2, "vector": [1, 0]}


# A construct command, the position of the bad file among its inputs and
# their number; a.json fills the other position.
EITHER_INPUT = [("dual", 0, 1), ("product", 0, 2), ("product", 1, 2), ("hom", 0, 2), ("hom", 1, 2)]
EITHER_IDS = ["dual", "product-first", "product-second", "hom-first", "hom-second"]


def construct_argv(command, bad_at, count, bad, out):
    inputs = [str(INPUTS / "a.json")] * count
    inputs[bad_at] = str(bad)
    return [command, *inputs, "--out", str(out)]


class TestExitCodes:
    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["hilbert", str(bad)]) == 2
        capsys.readouterr()

    def test_missing_file(self, tmp_path, capsys):
        assert main(["hilbert", str(tmp_path / "absent.json")]) == 2
        capsys.readouterr()

    def test_invariant_violation(self, capsys):
        # The epi suite needs quadratic structures; cubic.json has degree 3.
        cubic = str(INPUTS / "cubic.json")
        assert main(["verify", cubic, cubic, "--suite", "epi", "--trials", "0"]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("command, bad_at, count", EITHER_INPUT, ids=EITHER_IDS)
    def test_nonzero_degree_one_exits_two(self, tmp_path, capsys, command, bad_at, count):
        # A space file cannot hold one: it is malformed input, not an invariant break.
        data = {"dim": 2, "structure": [{"degree": 1, "matrix": [["0", "1"], ["-1", "0"]]}]}
        path = tmp_path / "degree1.json"
        path.write_text(json.dumps(data))
        assert main(construct_argv(command, bad_at, count, path, tmp_path / "out.json")) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: degree-1 structure must be the zero matrix\n"
        assert not (tmp_path / "out.json").exists()

    def test_epi_degree_below_two_exits_two(self, tmp_path, capsys):
        qp_path = write_qp(tmp_path / "qp.json")
        argv = ["verify", qp_path, qp_path, "--suite", "epi", "--trials", "0"]
        assert main(argv + ["--epi-degree", "1"]) == 2
        assert capsys.readouterr().out == ""

    def test_negative_trials_exits_two(self, tmp_path, capsys):
        qp_path = write_qp(tmp_path / "qp.json")
        argv = ["verify", qp_path, qp_path, "--suite", "rigidity", "--trials", "-5"]
        assert main(argv) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"),
        reason="interpreter has no int-string conversion limit",
    )
    def test_huge_numerator_exits_two(self, tmp_path, capsys):
        huge = "1" + "0" * 5000
        matrix = [[huge, "0", "0", "0"]] + [["0"] * 4] * 3
        data = {"dim": 2, "structure": [{"degree": 2, "matrix": matrix}]}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out.json"
        assert main(["dual", str(path), "--out", str(out)]) == 2
        assert not out.exists()
        assert "too many digits" in capsys.readouterr().err

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"),
        reason="interpreter has no int-string conversion limit",
    )
    def test_huge_fraction_exits_two(self, tmp_path, capsys):
        huge = "1" + "0" * 5000 + "/3"
        matrix = [[huge, "0", "0", "0"]] + [["0"] * 4] * 3
        data = {"dim": 2, "structure": [{"degree": 2, "matrix": matrix}]}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out.json"
        assert main(["dual", str(path), "--out", str(out)]) == 2
        assert not out.exists()
        assert "too many digits" in capsys.readouterr().err

    def test_out_of_memory_exits_four(self, tmp_path):
        # The projector of a 2^40-dimensional relation space needs a list of
        # 2^40 rows: the allocation fails at once.  The child runs under a
        # 1 GiB address-space limit where there is one, so that it fails
        # whatever the machine's overcommit policy.
        try:
            import resource
        except ImportError:
            limit = None
        else:
            def limit():
                resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        (tmp_path / "rel.json").write_text(json.dumps({"dim": 2, "degree": 40, "basis": []}))
        script = (
            "import sys, time\n"
            "from eqspace.cli import main\n"
            "start = time.perf_counter()\n"
            "code = main(sys.argv[1:])\n"
            "print(time.perf_counter() - start)\n"
            "sys.exit(code)\n"
        )
        argv = ["project", "rel.json", "--out", "out.json"]
        proc = run_python(script, argv, tmp_path, preexec_fn=limit)
        assert proc.returncode == 4, proc.stderr
        assert float(proc.stdout) < 0.5
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert not (tmp_path / "out.json").exists()

    def test_index_overflow_exits_four(self, tmp_path, capsys):
        # 2**64 rows do not fit an index-sized integer: the projector's row
        # list raises OverflowError before anything is allocated.
        path = tmp_path / "rel.json"
        path.write_text(json.dumps({"dim": 2, "degree": 64, "basis": []}))
        out = tmp_path / "out.json"
        assert main(["project", str(path), "--out", str(out)]) == 4
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == "error: size cannot be indexed (resource cap exceeded)\n"
        assert "out of memory" not in err

    def test_huge_degree_exits_four_at_once(self, tmp_path):
        # 3^(10^8) has about 48 million digits: the power past the largest
        # index is refused before it is taken, so the run ends in seconds.
        (tmp_path / "rel.json").write_text(json.dumps({"dim": 3, "degree": 10**8, "basis": []}))
        script = "import sys\nfrom eqspace.cli import main\nsys.exit(main(sys.argv[1:]))\n"
        argv = ["project", "rel.json", "--out", "out.json"]
        proc = run_python(script, argv, tmp_path, timeout=10)
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr == "error: size cannot be indexed (resource cap exceeded)\n"
        assert not (tmp_path / "out.json").exists()

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "content", [b"\xff\xfe", b"[" * 200000], ids=["not-utf8", "nested-too-deep"]
    )
    @pytest.mark.parametrize("command, bad_at, count", EITHER_INPUT, ids=EITHER_IDS)
    def test_undecodable_input_exits_two(self, tmp_path, capsys, command, bad_at, count, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        out = tmp_path / "out.json"
        assert main(construct_argv(command, bad_at, count, path, out)) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "command, data",
        [
            ("dual", {"dim": 2, "structure": [{"degree": 4000000000, "matrix": []}]}),
            ("project", {"dim": 2, "degree": 4000000000, "basis": [["1", "0"]]}),
        ],
    )
    def test_degree_too_large_for_rows_exits_two(self, tmp_path, capsys, command, data):
        # 2**4000000000 has half a gigabyte of digits: the readers must
        # reject the degree without taking the power.
        path = tmp_path / "huge_degree.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out.json"
        assert main([command, str(path), "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["product", "a.json", "b.json"],
            ["dual", "a.json"],
            ["hom", "a.json", "b.json"],
            ["project", "rel.json"],
            ["hilbert", "a.json"],
            ["verify", "a.json", "b.json", "--suite", "rigidity", "--trials", "0"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_unwritable_out_exits_two(self, tmp_path, capsys, monkeypatch, argv):
        for name in ("a.json", "b.json", "rel.json"):
            shutil.copy(INPUTS / name, tmp_path / name)
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--out", "missing/x.json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestSuiteNames:
    def test_accepted_names_are_the_cli_choices(self):
        from eqspace import suites

        V = EquippedSpace(1, {2: Matrix.zero(1, 1)})
        assert suites.SUITES == cli.SUITE_NAMES
        for name in cli.SUITE_NAMES:
            assert suites.suite_checks(name, V, V, V)
            assert suites.randomized_checks(name, V, V, V, 0, 1)

    def test_unknown_name_raises(self):
        from eqspace import suites

        V = EquippedSpace(1, {2: Matrix.zero(1, 1)})
        names = "bialgebra, rigidity, epi, all"
        with pytest.raises(ValueError, match=f"unknown suite 'rigidty' \\(choose from {names}\\)"):
            suites.suite_checks("rigidty", V, V)
        for trials in (0, 1):
            with pytest.raises(ValueError, match="unknown suite 'rigidty'"):
                suites.randomized_checks("rigidty", V, V, None, 0, trials)


def test_report_serialization_is_canonical():
    reports = [
        VerificationReport("b-check", True, dimensions={"frt": 6}),
        VerificationReport("a-check", False, witness={"vector": [Fraction(1, 2)]}),
    ]
    data = report_to_dict(["verify", "x"], reports)
    assert [c["name"] for c in data["checks"]] == ["a-check", "b-check"]
    assert data["pass"] is False
    assert data["checks"][0]["witness"]["vector"] == ["1/2"]
    assert dumps_canonical(data) == dumps_canonical(json.loads(dumps_canonical(data)))


def test_witness_value_is_spelled_by_what_it_is():
    # An integral Fraction and an int are the same number and get the same
    # spelling; a non-integral rational stays a "p/q" string.
    rep = VerificationReport(
        "a-check", False, witness={"vector": [Fraction(2), 2, Fraction(-3, 2)]}
    )
    data = report_to_dict(["verify"], [rep])
    assert data["checks"][0]["witness"]["vector"] == [2, 2, "-3/2"]


def run_python(script, argv=(), cwd=None, flags=(), timeout=300, **kwargs):
    """script run by a fresh interpreter on this eqspace, with interpreter flags."""
    src_dir = str(Path(eqspace.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *flags, "-c", script, *argv],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=timeout,
        **kwargs,
    )


def modules_after(script, argv=(), cwd=None, flags=()):
    """Last stdout line of script run by a fresh interpreter on this eqspace, split."""
    proc = run_python(script, argv, cwd, flags)
    return proc.returncode, set(proc.stdout.splitlines()[-1].split()), proc.stderr


class TestImportBudget:
    """Each subcommand loads only the modules it runs.

    The runs use ``python -S``, so no site hook preloads anything, and no
    subcommand may load an argument-parsing library, typing, pathlib or
    dataclasses.
    """

    SCRIPT = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from eqspace import cli\n"
        "try:\n"
        "    code = cli.main(sys.argv[1:])\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print()\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
        "sys.exit(code)\n"
    )
    HEAVY = {
        "eqspace.algebras", "eqspace.coalgebra", "eqspace.epi", "eqspace.frt", "eqspace.suites",
        "eqspace.sampling",
    }
    FORBIDDEN = {"argparse", "gettext", "locale", "typing", "pathlib", "dataclasses"}
    # The eqspace.* modules each subcommand loads, and no others.
    START = {"eqspace.cli", "eqspace.arguments", "eqspace.fileio", "eqspace.reader"}
    DUAL = START | {"eqspace.rows"}
    ALGEBRA = START | {"eqspace.matrix", "eqspace.spaces", "eqspace.linalg", "eqspace.algebras"}
    LOADS = {
        "product": DUAL | {"eqspace.tensors"},
        "hom": DUAL | {"eqspace.tensors"},
        "dual": DUAL,
        "hilbert": ALGEBRA,
        "project": ALGEBRA,
    }

    def loaded_by(self, case, tmp_path, argv=None, code=None):
        """Modules that a fresh interpreter loads to run one golden case, or argv exiting code."""
        golden_argv, golden_code = CASES[case]
        argv = golden_argv if argv is None else argv
        code = golden_code if code is None else code
        for src in INPUTS.iterdir():
            shutil.copy(src, tmp_path / src.name)
        returncode, loaded, stderr = modules_after(self.SCRIPT, argv, tmp_path, ["-S"])
        assert returncode == code, stderr
        assert "eqspace.cli" in loaded
        assert not loaded & self.FORBIDDEN
        # Only help and usage errors load the usage writer.
        assert ("eqspace.usage" in loaded) == (code == 2 or bool({"-h", "--help"} & set(argv)))
        return loaded

    def package_modules(self, loaded):
        return {m for m in loaded if m.startswith("eqspace.")}

    @pytest.mark.parametrize("case", ["product", "dual", "hom"])
    def test_constructions_load_no_algebra_or_suite(self, case, tmp_path):
        # No elimination, report or algebra module: a construction compiles
        # none, and it runs the row rules on the rows a file holds, so it
        # compiles neither Matrix nor EquippedSpace.
        loaded = self.loaded_by(case, tmp_path)
        assert not loaded & self.HEAVY
        assert not loaded & {"eqspace.matrix", "eqspace.spaces"}
        assert self.package_modules(loaded) == self.LOADS[case]

    @pytest.mark.parametrize("case", ["hilbert-stdout", "project"], ids=["hilbert", "project"])
    def test_algebra_commands_load_no_frt_or_suite(self, case, tmp_path):
        # The matrices, spaces, elimination and the algebra module; neither
        # the row rules, the tensor index tables, the report nor the
        # rigidity checks.
        loaded = self.loaded_by(case, tmp_path)
        assert "eqspace.report" not in loaded
        assert self.package_modules(loaded) == self.LOADS[CASES[case][0][0]]

    def test_only_hilbert_out_loads_the_report(self, tmp_path):
        # The golden hilbert case writes its table as a report with --out.
        loaded = self.loaded_by("hilbert", tmp_path)
        assert self.package_modules(loaded) == self.LOADS["hilbert"] | {"eqspace.report"}

    def test_verify_loads_no_dataclasses(self, tmp_path):
        loaded = self.loaded_by("verify-all", tmp_path)
        assert self.HEAVY <= loaded

    def test_rigidity_suite_loads_no_algebra_frt_or_sampling(self, tmp_path):
        loaded = self.loaded_by("verify-rigidity", tmp_path)
        assert "eqspace.suites" in loaded
        assert not loaded & (self.HEAVY - {"eqspace.suites"})
        assert "eqspace.linalg" not in loaded

    def test_only_the_epi_suite_loads_epi(self, tmp_path):
        # The bialgebra suite runs frt and not the epimorphism checks.
        loaded = self.loaded_by("verify-bialgebra", tmp_path)
        assert self.HEAVY - {"eqspace.epi", "eqspace.sampling"} <= loaded
        assert "eqspace.epi" not in loaded
        assert "eqspace.epi" in self.loaded_by("verify-epi", tmp_path)

    def test_the_bialgebra_and_epi_suites_load_the_coalgebra_checks(self, tmp_path):
        # The corepresentation check is the comultiplication out of the
        # unit, so the epi suite compiles coalgebra too; the bialgebra
        # suite compiles no epimorphism check.
        loaded = self.loaded_by("verify-bialgebra", tmp_path)
        assert "eqspace.coalgebra" in loaded
        assert "eqspace.epi" not in loaded
        assert self.HEAVY - {"eqspace.sampling"} <= self.loaded_by("verify-epi", tmp_path)

    @pytest.mark.parametrize("case", ["help", "verify-help"])
    def test_help_loads_the_usage_writer(self, case, tmp_path):
        # Help reads no file: the reader is not loaded either.
        loaded = self.loaded_by(case, tmp_path)
        assert self.package_modules(loaded) == self.START - {"eqspace.reader"} | {"eqspace.usage"}

    def test_a_usage_error_loads_the_usage_writer(self, tmp_path):
        argv = ["verify", "a.json", "b.json", "--suite", "nope"]
        loaded = self.loaded_by("verify-all", tmp_path, argv, code=2)
        assert self.package_modules(loaded) == self.START - {"eqspace.reader"} | {"eqspace.usage"}

    def test_verify_without_trials_loads_no_sampling(self, tmp_path):
        argv = ["verify", "a.json", "b.json", "u.json", "--suite", "all", "--trials", "0"]
        loaded = self.loaded_by("verify-all", tmp_path, argv)
        assert self.HEAVY - {"eqspace.sampling"} <= loaded
        assert "eqspace.sampling" not in loaded


class TestArgumentForms:
    """The argument table's parser, run as a program on the golden inputs:
    exit code, output and no traceback."""

    CLI = "import sys\nfrom eqspace.cli import main\nsys.exit(main())\n"

    def run(self, argv, tmp_path):
        for src in INPUTS.iterdir():
            shutil.copy(src, tmp_path / src.name)
        proc = run_python(self.CLI, argv, tmp_path)
        assert "Traceback" not in proc.stderr
        return proc

    @pytest.mark.parametrize(
        "argv, case",
        [
            (["dual", "a.json", "--out=out.json"], "dual"),
            (["product", "a.json", "b.json", "--o", "out.json"], "product"),
            (["hom", "--out", "out.json", "a.json", "b.json"], "hom"),
        ],
        ids=["opt=value", "prefix", "options-first"],
    )
    def test_construction_forms(self, tmp_path, argv, case):
        proc = self.run(argv, tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out.json").read_bytes() == (EXPECTED / f"{case}.out.json").read_bytes()

    def test_last_occurrence_wins(self, tmp_path):
        # --max-degree 9 alone would exit 4 (over the cap).
        proc = self.run(["hilbert", "--max-deg=9", "a.json", "--max-degree", "4"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (EXPECTED / "hilbert.stdout").read_text(encoding="utf-8")

    def test_positionals_between_options(self, tmp_path):
        proc = self.run(["verify", "--suite=rigidity", "a.json", "--tri", "0", "b.json"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        expected = json.loads((EXPECTED / "verify-rigidity.stdout").read_text(encoding="utf-8"))
        assert json.loads(proc.stdout)["checks"] == expected["checks"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["dual", "a.json"], "the following arguments are required: --out"),
            (["verify", "a.json", "b.json", "--trials", "x"], "invalid int value: 'x'"),
            (["verify", "a.json", "b.json", "--suite", "nope"], "invalid choice: 'nope'"),
            (["dual", "a.json", "b.json", "--out", "out.json"], "unrecognized arguments: b.json"),
            (["dual", "a.json", "--bogus", "--out", "out.json"], "unrecognized arguments: --bogus"),
            (["verify", "a.json", "b.json", "--s", "1"], "ambiguous option: --s"),
            (["dual", "a.json", "--out"], "argument --out: expected one argument"),
            (["verify", "a.json", "b.json", "--pretty=1"], "ignored explicit argument '1'"),
            (["frobnicate"], "invalid command 'frobnicate'"),
            ([], "the following arguments are required: command"),
        ],
        ids=[
            "missing-out", "bad-int", "bad-choice", "extra-positional", "unknown-option",
            "ambiguous-prefix", "missing-value", "flag-with-value", "unknown-command",
            "no-command",
        ],
    )
    def test_usage_errors_exit_two(self, tmp_path, argv, message):
        proc = self.run(argv, tmp_path)
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert lines[0].startswith("usage: eqspace")
        assert ": error: " in lines[-1] and message in lines[-1]
        assert not (tmp_path / "out.json").exists()

    def test_usage_error_bytes(self, tmp_path):
        proc = self.run(["verify", "a.json", "b.json", "--suite", "nope"], tmp_path)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            "usage: eqspace verify [-h] v w [u] [--suite {bialgebra,rigidity,epi,all}]"
            " [--seed SEED] [--trials TRIALS] [--epi-degree EPI_DEGREE] [--out OUT] [--pretty]\n"
            "eqspace verify: error: argument --suite: invalid choice: 'nope'"
            " (choose from bialgebra, rigidity, epi, all)\n"
        )

    def test_top_level_help(self, tmp_path):
        proc = self.run(["-h"], tmp_path)
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout.startswith("usage: eqspace [-h]")
        assert all(f"\n  {name} " in proc.stdout for name in cli.COMMANDS)

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_command_help(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, "a.json", flag, "--bogus"])
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.startswith(f"usage: eqspace {command} [-h]")
        for name, *_ in cli.COMMANDS[command][3]:
            assert f"\n  {name}" in out


class TestCompileBudget:
    """No module of the package exceeds 1,450 AST nodes.

    A run without cached bytecode (PYTHONDONTWRITEBYTECODE=1) compiles each
    module it imports, and the parser's peak memory grows with the module
    it compiles: on Python 3.11, compiling a module of 2,518 nodes on top
    of ``import json, fractions`` raised the peak RSS by 1.25 MB, about
    500 bytes per node, and one of 1,222 nodes by 0.73 MB (3.10 and 3.12:
    1.52 and about 1.0 MB).  So a run's peak RSS carries the largest
    module it loads.  The count is the same on 3.10, 3.11 and 3.12.
    """

    BUDGET = 1450

    def test_every_module_within_budget(self):
        sizes = {
            path.name: sum(1 for _ in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
            for path in Path(eqspace.__file__).parent.glob("*.py")
        }
        assert len(sizes) > 10
        assert {name: n for name, n in sizes.items() if n > self.BUDGET} == {}


class TestLazyPackageRoot:
    def test_a_name_loads_only_its_module(self):
        show = "\nprint(*(m for m in sys.modules if m.startswith('eqspace')))\n"
        _, loaded, stderr = modules_after("import sys, eqspace" + show)
        assert loaded == {"eqspace"}, stderr
        _, loaded, stderr = modules_after("import sys, eqspace\neqspace.Matrix" + show)
        assert loaded == {"eqspace", "eqspace.matrix"}, stderr

    def test_every_exported_name_resolves(self):
        for name in eqspace.__all__:
            assert getattr(eqspace, name).__name__ == name

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from eqspace import *", namespace)
        assert set(eqspace.__all__) <= set(namespace)
        assert all(namespace[n] is getattr(eqspace, n) for n in eqspace.__all__)

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            eqspace.no_such_name
        assert not hasattr(eqspace, "kron_apply")


def test_every_annotation_resolves():
    # Modules that import a name only inside a function must not name it in
    # an annotation, or typing.get_type_hints raises NameError on it.
    import importlib
    import inspect
    import pkgutil
    import typing

    checked = 0
    for info in pkgutil.iter_modules(eqspace.__path__):
        module = importlib.import_module(f"eqspace.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [obj]
            if inspect.isclass(obj):
                members = [
                    getattr(m, "__func__", getattr(m, "fget", m))
                    for m in vars(obj).values()
                    if isinstance(m, (staticmethod, classmethod, property)) or inspect.isfunction(m)
                ]
            for member in members:
                if inspect.isfunction(member):
                    typing.get_type_hints(member)
                    checked += 1
    assert checked > 100
