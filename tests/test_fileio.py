"""The streaming space and relation readers against the whole-file reference.

read_space and read_relations walk a file reader._CHUNK characters at a time;
read_space_reference and read_relations_reference in oracles.py decode it
whole with json.loads and validate the decoded object.  On every input here
the two must accept the same files and build the same values, with the same
entry types; they may word a rejection differently.  The dual command,
which builds -Rᵀ from the rows of R as they are read, must write the bytes
of dagger(read_space(path)) and reject what read_space rejects, with the
same exit code and error line.  The product and hom commands, which write
each row of R⊠S as it is made, must write the bytes of
write_space(boxtimes(...)) and write_space(hom_space(...)).
"""

import io
import json
import random
import tempfile
import tracemalloc
from contextlib import nullcontext, redirect_stderr
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from eqspace import EquippedSpace, Matrix, cli, reader
from eqspace.cli import main
from eqspace.fileio import SpaceFormatError, read_relations, read_space, write_space
from eqspace.sampling import random_equipped
from eqspace.spaces import boxtimes, dagger, hom_space
from oracles import read_relations_reference, read_space_reference
from test_golden import EXPECTED, INPUTS

GOLDEN_FILES = sorted(INPUTS.glob("*.json")) + sorted(EXPECTED.glob("*.json"))
SPACE_INPUTS = [path for path in sorted(INPUTS.glob("*.json")) if path.name != "rel.json"]


def _typed(mat):
    return [sorted((j, type(x).__name__, x) for j, x in row.items()) for row in mat.nonzeros]


def outcome(read, path):
    """What the reading function read makes of path, with entry types spelled out, or "rejected".

    Both readers reject a file whose structure breaks an invariant of
    EquippedSpace, as a nonzero degree-1 matrix does, as malformed.
    """
    try:
        got = read(path)
    except SpaceFormatError:
        return "rejected"
    if isinstance(got, EquippedSpace):
        return got.dim, [(n, mat.rows, _typed(mat)) for n, mat in got.structure_items()]
    dim, degree, rel = got
    return dim, degree, rel.ambient_dim, _typed(rel.basis)


def dual_outcome(path, whole):
    """Exit code, stderr and the bytes written of the dual command on path.

    whole runs the command as write_space(out, dagger(read_space(path))),
    which holds R and then -Rᵀ; otherwise it runs as it is.
    """
    def whole_dual(args):
        write_space(args.out, dagger(read_space(args.a)))
        return 0

    read_whole = mock.patch.dict(cli.COMMANDS, dual=(whole_dual, *cli.COMMANDS["dual"][1:]))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.json"
        err = io.StringIO()
        with redirect_stderr(err), read_whole if whole else nullcontext():
            code = main(["dual", str(path), "--out", str(out)])
        return code, err.getvalue(), out.read_bytes() if out.exists() else None


def assert_agree(path):
    """Both readers agree on path as a space file and as a relation file; the space outcome.

    The dual command agrees with dagger(read_space(path)) on path too.
    """
    space = outcome(read_space, path)
    assert space == outcome(read_space_reference, path)
    assert outcome(read_relations, path) == outcome(read_relations_reference, path)
    assert dual_outcome(path, whole=False) == dual_outcome(path, whole=True)
    return space


def write_text(tmp_path, text, name="case.json"):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8") if isinstance(text, str) else text)
    return path


def space_dict(**extra):
    return {"dim": 2, "structure": [{"degree": 2, "matrix": MATRIX}], **extra}


MATRIX = [["0", "1/2", "-1", "0"], ["0"] * 4, ["3", "0", "0", "-7/3"], ["0"] * 4]
ROWS = json.dumps(MATRIX)
BAD_ROWS = json.dumps([["x", "0", "0", "0"]] + MATRIX[1:])


@pytest.mark.parametrize("path", GOLDEN_FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_golden_files(path):
    assert_agree(path)


def test_golden_inputs_read_as_before():
    for name in ("a.json", "b.json", "graded.json", "cubic.json", "u.json"):
        assert assert_agree(INPUTS / name) != "rejected"
    assert outcome(read_relations, INPUTS / "rel.json") != "rejected"


@pytest.mark.parametrize("chunk", [1, 2, 7, 64])
def test_chunk_edges(tmp_path, monkeypatch, chunk):
    # Rows, strings, keys and numbers straddle chunk edges; multi-digit and
    # signed numbers sit in dim, degree and an unknown key.
    monkeypatch.setattr(reader, "_CHUNK", chunk)
    names = ("a.json", "graded.json", "cubic.json", "rel.json", "u.json")
    texts = [
        json.dumps({"dim": 12, "degree": 2, "basis": [], "x": [-1.5e3, 10, 2.25e-2]}),
        json.dumps({"dim": 1, "degree": 10, "basis": [["1"], ["-22/7"]]}),
        json.dumps(space_dict(note=-123456789, generators="t \u2297 \u00e9"), ensure_ascii=False),
        json.dumps(space_dict()) + " \n\t",
        json.dumps(space_dict()) + "7",
        '{"dim": 2, "x": 1.5e',
        '{"dim": 2, "x": 1.',
        '{"dim": 2, "x": -',
    ]
    cases = [INPUTS / name for name in names]
    cases += [write_text(tmp_path, text, f"t{k}.json") for k, text in enumerate(texts)]
    results = [assert_agree(path) for path in cases]
    assert results[0] != "rejected" and results[-1] == "rejected"


def test_key_orders(tmp_path):
    texts = [
        '{"structure": [{"matrix": %s, "degree": 2}], "dim": 2}' % ROWS,
        '{"structure": [{"matrix": [["1","0","0","0"],["0"],["0"],["0"]], "degree": 2}], "dim": 2}',
        '{"structure": [], "dim": 3}',
        '{"structure": [{"matrix": [["0","0"],["-0","0/3"]], "degree": 1}], "dim": 2}',
        '{"structure": [{"matrix": [["0","1"],["-1","0"]], "degree": 1}], "dim": 2}',
        '{"basis": [["0","1","-1","0"]], "degree": 2, "dim": 2}',
        '{"degree": 3, "basis": [["0","1","-1","0","0","0","0","0"]], "dim": 2}',
    ]
    results = [assert_agree(write_text(tmp_path, text)) for text in texts]
    in_order = write_text(tmp_path, json.dumps(space_dict()), "in_order.json")
    assert results[0] == outcome(read_space, in_order) != "rejected"
    assert results[4] == "rejected"


def test_duplicate_keys_last_wins(tmp_path):
    good = json.dumps(space_dict()["structure"])
    bad = '[{"degree": 2, "matrix": %s}]' % BAD_ROWS
    texts = [
        '{"dim": 5, "structure": %s, "dim": 2}' % good,
        '{"dim": 2, "structure": %s, "dim": 5}' % good,
        '{"dim": 2, "structure": %s, "structure": %s}' % (bad, good),
        '{"dim": 2, "structure": %s, "structure": %s}' % (good, bad),
        '{"dim": 2, "structure": 7, "structure": %s}' % good,
        '{"dim": 2, "structure": [{"degree": 2, "matrix": [["1"]], "matrix": %s}]}' % ROWS,
        '{"dim": 2, "structure": [{"degree": 9, "matrix": %s, "degree": 2}]}' % ROWS,
        '{"dim": 2, "basis": [["x"]], "basis": [["0","1","-1","0"]]}',
        '{"dim": 2, "basis": [["0","1","-1","0"]], "basis": {}}',
    ]
    results = [assert_agree(write_text(tmp_path, text)) for text in texts]
    assert results[0] != "rejected" and results[2] != "rejected" and results[3] == "rejected"


def test_unknown_keys_and_odd_values(tmp_path):
    texts = [
        json.dumps(space_dict(generators="t[i][j] = w^j (x) v_i", extra={"a": [1, None, True]})),
        '{"dim": 2, "structure": [{"degree": 2, "matrix": %s, "note": [[]]}]}' % ROWS,
        json.dumps(space_dict(x=float("nan"))),
        '{"dim": 2, "structure": [7]}',
        '{"dim": 2, "structure": {"degree": 2}}',
        '{"dim": 2, "structure": [{"degree": 2, "matrix": "no"}]}',
        '{"dim": 2, "structure": [{"degree": 2, "matrix": []}]}',
        '{"dim": 2, "structure": [{"degree": 2, "matrix": [[], [], [], []]}]}',
        '{"dim": 2, "structure": [{"degree": 2, "matrix": [["0","1","0","0"],["0","0","0","0"]]}]}',
        '{"dim": 2, "structure": [{"degree": 2, "matrix": [7, ["0"], ["0"], ["0"]]}]}',
        '{"dim": 2, "structure": [{"degree": 2}]}',
        '{"dim": 2, "basis": []}',
        '{"dim": 2, "degree": 2}',
        '{"dim": 2, "basis": [[]]}',
        '{"dim": 2, "basis": [["0","1","-1","0"], ["0","1"]]}',
        '{"dim": 2, "basis": [["0","1","-1","0"], 5]}',
        '{"dim": 2, "degree": 1, "basis": []}',
        '{"dim": NaN, "basis": []}',
        "{}",
        "[]",
        '"text"',
        "",
        "   ",
    ]
    results = [assert_agree(write_text(tmp_path, text)) for text in texts]
    assert results[0] != "rejected" and results[1] != "rejected"


def test_layouts(tmp_path):
    rng = random.Random(3)
    shapes = ((1, (2,)), (2, (2, 3)), (3, (2,)))
    spaces = [random_equipped(rng, d, support) for d, support in shapes]
    cells = [[Fraction(-7, 3), 0, 0, 5], [0] * 4, [0] * 4, [1, 0, 0, 0]]
    spaces.append(EquippedSpace(2, {2: Matrix(cells)}))
    for k, V in enumerate(spaces):
        path = tmp_path / f"s{k}.json"
        write_space(path, V, note="g")
        data = json.loads(path.read_text())
        expected = outcome(read_space, path)
        assert expected != "rejected"
        for text in (
            json.dumps(data, separators=(",", ":")),
            json.dumps(data, indent=0),
            path.read_text().replace("\n", "\r\n"),
            json.dumps(data, indent="\t").replace("\n", "\r"),
        ):
            assert assert_agree(write_text(tmp_path, text)) == expected


def test_every_truncation_of_a_json_rejected(tmp_path):
    data = (INPUTS / "a.json").read_bytes()
    close = data.rindex(b"}")
    for end in range(len(data)):
        path = write_text(tmp_path, data[:end])
        got = assert_agree(path)
        assert (got == "rejected") == (end <= close), end


def test_trailing_data_and_bom(tmp_path):
    data = (INPUTS / "a.json").read_bytes()
    for text in (
        data + b"x",
        data + b"{}",
        data + b"\n\n0",
        data + b"\x00",
        b"\xef\xbb\xbf" + data,
        b"\xef\xbb\xbf" + (INPUTS / "rel.json").read_bytes(),
        data.replace(b"\n", b"\n\x0c", 1),
    ):
        assert assert_agree(write_text(tmp_path, text)) == "rejected"


def test_non_utf8_after_first_chunk(tmp_path, capsys):
    data = (EXPECTED / "product-graded.out.json").read_bytes()
    assert len(data) > reader._CHUNK
    cut = data.index(b'"0"', reader._CHUNK)
    path = write_text(tmp_path, data[:cut] + b'"\xff"' + data[cut + 3 :])
    assert assert_agree(path) == "rejected"
    assert main(["dual", str(path), "--out", str(tmp_path / "out.json")]) == 2
    assert not (tmp_path / "out.json").exists()
    assert capsys.readouterr().err.startswith("error: ")


def test_deep_nesting(tmp_path):
    rows = space_dict()["structure"][0]["matrix"]
    cell = json.dumps(rows)[1:-1]
    for depth in (50, 100000):
        nested = "[" * depth + "]" * depth
        texts = [
            '{"dim": 2, "structure": [{"degree": 2, "matrix": [["0", %s, "0", "0"], %s]}]}'
            % (nested, ", ".join(json.dumps(r) for r in rows[1:])),
            '{"dim": 2, "x": %s, "structure": [{"degree": 2, "matrix": [%s]}]}' % (nested, cell),
            '{"dim": 2, "degree": 2, "basis": [["0", "1", "-1", "0"]], "x": %s}' % nested,
            nested,
        ]
        results = [assert_agree(write_text(tmp_path, text)) for text in texts]
        assert results[0] == "rejected"
        assert (results[1] == "rejected") == (depth > 50)


def test_rejections_exit_two(tmp_path, capsys):
    # A literal past the interpreter's int-string limit is a parse error too.
    data = (INPUTS / "a.json").read_bytes()
    for k, text in enumerate([
        data[: len(data) // 2],
        data + b"x",
        b"\xef\xbb\xbf" + data,
        b'{"dim": ' + b"1" * 5000 + b', "structure": []}',
    ]):
        path = write_text(tmp_path, text, f"bad{k}.json")
        out = tmp_path / "out.json"
        assert main(["dual", str(path), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_dual_in_place(tmp_path):
    # The file is read whole before it is written.
    for src in sorted(INPUTS.glob("*.json")):
        path = tmp_path / src.name
        path.write_bytes(src.read_bytes())
        write_space(tmp_path / "want.json", dagger(read_space(src)))
        assert main(["dual", str(path), "--out", str(path)]) == 0
        assert path.read_bytes() == (tmp_path / "want.json").read_bytes()


@pytest.mark.parametrize("command", ["product", "hom"])
@pytest.mark.parametrize("out", ["a.json", "b.json"])
def test_product_and_hom_in_place(tmp_path, command, out):
    # Both inputs are read whole before --out is opened.
    for name in ("a.json", "b.json"):
        (tmp_path / name).write_bytes((INPUTS / name).read_bytes())
    a, b, path = tmp_path / "a.json", tmp_path / "b.json", tmp_path / out
    assert main([command, str(a), str(b), "--out", str(path)]) == 0
    assert path.read_bytes() == (EXPECTED / f"{command}.out.json").read_bytes()


def assert_streamed_as_built(a, b, tmp_path):
    """product a b and hom a b write the bytes of the built product and hom space."""
    V, W = read_space(a), read_space(b)
    built = {"product": (boxtimes(V, W), None), "hom": (hom_space(V, W), cli.GENERATOR_NOTE)}
    for command, (space, note) in built.items():
        want, got = tmp_path / f"{command}.want.json", tmp_path / f"{command}.json"
        write_space(want, space, note)
        assert main([command, str(a), str(b), "--out", str(got)]) == 0
        assert got.read_bytes() == want.read_bytes(), (command, a.name, b.name)


@pytest.mark.parametrize("b", SPACE_INPUTS, ids=lambda p: p.name)
@pytest.mark.parametrize("a", SPACE_INPUTS, ids=lambda p: p.name)
def test_product_and_hom_write_the_built_bytes(a, b, tmp_path):
    assert_streamed_as_built(a, b, tmp_path)


def test_dense_product_and_hom_write_the_built_bytes(product_file, tmp_path):
    a, b = product_file.with_name("a.json"), product_file.with_name("b.json")
    assert_streamed_as_built(a, b, tmp_path)


def test_reading_holds_rows_not_the_file(product_file):
    # Decoding the whole file held about twice its size.
    path = product_file
    size = path.stat().st_size
    tracemalloc.start()
    try:
        got = read_space(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.dim == 9 and got.support == (2, 3)
    assert peak < size / 2, (peak, size)


def test_rows_decoded_once(product_file, monkeypatch):
    # The reader reads on to a row's "]" before it decodes the row, so no
    # row is cut short at the end of a chunk and decoded again.
    real_scan, scans, failed = reader._scan, [], []

    def scan(text, pos):
        try:
            value, end = real_scan(text, pos)
        except ValueError:
            failed.append(text[pos : pos + 1])
            raise
        scans.append(isinstance(value, list))
        return value, end

    monkeypatch.setattr(reader, "_scan", scan)
    got = read_space(product_file)
    assert "[" not in failed
    assert sum(scans) == sum(mat.rows for _, mat in got.structure_items()) == 81 + 729


def traced_peak(argv):
    """The exit code of main(argv) and the peak of the memory it traced."""
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return code, peak


def test_dual_holds_the_dual_not_the_structure(product_file, tmp_path):
    # dual builds -Rᵀ from the rows of R as they are read, as one bytearray
    # per column of 8 bytes a nonzero, and negates each distinct entry once:
    # about 0.064 of the file at its peak, writing included.  A flat list
    # per column, two slots a nonzero, held about 0.13, a dict per column
    # about 0.26, and reading R whole and then building -Rᵀ about 0.60.
    size = product_file.stat().st_size
    out = tmp_path / "dual.json"
    code, peak = traced_peak(["dual", str(product_file), "--out", str(out)])
    assert code == 0 and out.exists()
    assert peak < size / 10, (peak, size)


@pytest.mark.parametrize("command", ["product", "hom"])
def test_product_and_hom_hold_a_row_not_the_product(product_file, tmp_path, command):
    # Each row of R⊠S is written as it is made: about 0.03 of the file at
    # the peak, reading the two inputs included.  Building every row before
    # writing held about 0.23.
    size = product_file.stat().st_size
    a, b = product_file.with_name("a.json"), product_file.with_name("b.json")
    out = tmp_path / "out.json"
    code, peak = traced_peak([command, str(a), str(b), "--out", str(out)])
    assert code == 0 and out.stat().st_size > 7_000_000
    assert peak < size / 10, (peak, size)
