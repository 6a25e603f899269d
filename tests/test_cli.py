import json
import os
import shutil
import subprocess
from pathlib import Path

import pytest

import eqspace
from eqspace import EquippedSpace, Matrix, VerificationReport
from eqspace.cli import main
from eqspace.fileio import (
    SpaceFormatError,
    dumps_canonical,
    parse_rational,
    read_space,
    report_to_dict,
    space_from_dict,
    write_space,
)
from eqspace.sampling import random_equipped
from conftest import DJ_MATRIX, QP_MATRIX
from oracles import dumps_reference, space_to_dict
from test_golden import CASES, INPUTS

import random
import sys
from fractions import Fraction


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

    def test_duplicate_degrees_rejected(self):
        entry = {"degree": 2, "matrix": [["0"] * 4 for _ in range(4)]}
        with pytest.raises(SpaceFormatError):
            space_from_dict({"dim": 2, "structure": [entry, dict(entry)]})

    def test_boolean_dim_and_degree_rejected(self):
        matrix = [["0"] * 4 for _ in range(4)]
        with pytest.raises(SpaceFormatError):
            space_from_dict({"dim": True, "structure": []})
        with pytest.raises(SpaceFormatError):
            space_from_dict(
                {"dim": 2, "structure": [{"degree": True, "matrix": [["0", "0"]] * 2}]}
            )
        with pytest.raises(SpaceFormatError):
            space_from_dict({"dim": 2, "structure": [{"degree": 2.0, "matrix": matrix}]})

    def test_boolean_dim_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bool_dim.json"
        path.write_text(json.dumps({"dim": True, "structure": []}))
        assert main(["dual", str(path), "--out", str(tmp_path / "out.json")]) == 2
        assert not (tmp_path / "out.json").exists()
        capsys.readouterr()

    def test_repeated_bad_entry_rejected_after_good_ones(self):
        good = ["1", "-2/3", "0", "1"]
        for rows in (
            [good, ["1", "-2/3", "1.5", "1.5"]] + [good] * 2,
            [good, good, good, ["0", "1", "-2/3", "x"]],
            [good, good, good, ["1", "0", "0", 1]],
        ):
            with pytest.raises(SpaceFormatError):
                space_from_dict({"dim": 2, "structure": [{"degree": 2, "matrix": rows}]})

    def test_number_after_same_string_rejected(self):
        rows = [["1", "0", "0", "0"], [1, "0", "0", "0"], ["0"] * 4, ["0"] * 4]
        with pytest.raises(SpaceFormatError):
            space_from_dict({"dim": 2, "structure": [{"degree": 2, "matrix": rows}]})

    def test_non_string_entries_exit_two(self, tmp_path, capsys):
        for bad in ([], {}, None, True, ["1"], {"1": "1"}):
            rows = [["0"] * 4, ["1", "0", bad, "0"], ["0"] * 4, ["0"] * 4]
            with pytest.raises(SpaceFormatError):
                space_from_dict({"dim": 2, "structure": [{"degree": 2, "matrix": rows}]})
            path = tmp_path / "bad_entry.json"
            path.write_text(json.dumps({"dim": 2, "structure": [{"degree": 2, "matrix": rows}]}))
            out = tmp_path / "out.json"
            assert main(["dual", str(path), "--out", str(out)]) == 2
            assert not out.exists()
        capsys.readouterr()

    def test_equal_rationals_read_as_one_value(self):
        rows = [["2/4", "1/2", "4/2", "2"]] + [["0"] * 4] * 3
        V = space_from_dict({"dim": 2, "structure": [{"degree": 2, "matrix": rows}]})
        got = V.structure_at(2).cells[0]
        assert got == (Fraction(1, 2), Fraction(1, 2), 2, 2)
        assert [type(x) for x in got] == [Fraction, Fraction, int, int]

    def test_bad_matrix_shape_rejected(self):
        with pytest.raises(SpaceFormatError):
            space_from_dict(
                {"dim": 2, "structure": [{"degree": 2, "matrix": [["1", "0"]]}]}
            )

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


class TestExitCodes:
    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["hilbert", str(bad)]) == 2
        capsys.readouterr()

    def test_missing_file(self, tmp_path, capsys):
        assert main(["hilbert", str(tmp_path / "absent.json")]) == 2
        capsys.readouterr()

    def test_invariant_violation(self, tmp_path, capsys):
        data = {
            "dim": 2,
            "structure": [{"degree": 1, "matrix": [["1", "0"], ["0", "1"]]}],
        }
        path = tmp_path / "bad_degree1.json"
        path.write_text(json.dumps(data))
        assert main(["hilbert", str(path)]) == 3
        capsys.readouterr()

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

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


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


def modules_after(script, argv=(), cwd=None):
    """Last stdout line of script run by a fresh interpreter on this eqspace, split."""
    src_dir = str(Path(eqspace.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc.returncode, set(proc.stdout.splitlines()[-1].split()), proc.stderr


class TestImportBudget:
    """Each subcommand loads only the modules it runs, and no dataclasses."""

    SCRIPT = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from eqspace import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "print()\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
        "sys.exit(code)\n"
    )
    HEAVY = {"eqspace.algebras", "eqspace.frt", "eqspace.suites", "eqspace.sampling"}

    def loaded_by(self, case, tmp_path, argv=None):
        """Modules that a fresh interpreter loads to run one golden case, or argv."""
        golden_argv, code = CASES[case]
        argv = golden_argv if argv is None else argv
        for src in INPUTS.iterdir():
            shutil.copy(src, tmp_path / src.name)
        returncode, loaded, stderr = modules_after(self.SCRIPT, argv, tmp_path)
        assert returncode == code, stderr
        assert "eqspace.cli" in loaded
        return loaded

    @pytest.mark.parametrize("case", ["product", "dual", "hom"])
    def test_constructions_load_no_algebra_or_suite(self, case, tmp_path):
        loaded = self.loaded_by(case, tmp_path)
        assert not loaded & self.HEAVY
        assert "dataclasses" not in loaded

    @pytest.mark.parametrize("case", ["hilbert", "project"])
    def test_algebra_commands_load_no_frt_or_suite(self, case, tmp_path):
        loaded = self.loaded_by(case, tmp_path)
        assert "eqspace.algebras" in loaded
        assert not loaded & (self.HEAVY - {"eqspace.algebras"})
        assert "dataclasses" not in loaded

    def test_verify_loads_no_dataclasses(self, tmp_path):
        loaded = self.loaded_by("verify-all", tmp_path)
        assert self.HEAVY <= loaded
        assert "dataclasses" not in loaded

    def test_rigidity_suite_loads_no_algebra_frt_or_sampling(self, tmp_path):
        loaded = self.loaded_by("verify-rigidity", tmp_path)
        assert "eqspace.suites" in loaded
        assert not loaded & (self.HEAVY - {"eqspace.suites"})

    def test_verify_without_trials_loads_no_sampling(self, tmp_path):
        argv = ["verify", "a.json", "b.json", "u.json", "--suite", "all", "--trials", "0"]
        loaded = self.loaded_by("verify-all", tmp_path, argv)
        assert self.HEAVY - {"eqspace.sampling"} <= loaded
        assert "eqspace.sampling" not in loaded


class TestLazyPackageRoot:
    def test_a_name_loads_only_its_module(self):
        show = "\nprint(*(m for m in sys.modules if m.startswith('eqspace')))\n"
        _, loaded, stderr = modules_after("import sys, eqspace" + show)
        assert loaded == {"eqspace"}, stderr
        _, loaded, stderr = modules_after("import sys, eqspace\neqspace.Matrix" + show)
        assert loaded == {"eqspace", "eqspace.linalg", "eqspace.report"}, stderr

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
