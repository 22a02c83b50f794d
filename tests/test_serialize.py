import enum
import errno
import json
import os
import stat
import threading
from pathlib import Path

import numpy as np
import pytest

from conftest import haar
from optiq import serialize
from optiq.circuit import decompose, reconstruct
from optiq.cli import main
from optiq.errors import OptiqError, ShapeError
from optiq.lie import distance


class TestMatrixFormat:
    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(50)
        A = haar(rng, 4)
        obj = serialize.matrix_to_obj(A)
        again = serialize.matrix_from_obj(json.loads(json.dumps(obj)))
        assert np.array_equal(again, A)  # repr round-trip keeps every bit

    def test_entries_are_the_per_entry_floats(self):
        A = haar(np.random.default_rng(52), 4)
        A[0, 0], A[1, 2] = complex(-0.0, 0.5), complex(0.25, -0.0)
        entries = serialize.matrix_to_obj(A)["entries"]
        loop = [[[float(z.real), float(z.imag)] for z in row] for row in A]
        assert repr(entries) == repr(loop)  # -0.0 included
        assert {type(x) for row in entries for pair in row for x in pair} == {float}

    def test_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(51)
        A = haar(rng, 3)
        path = tmp_path / "matrix.json"
        serialize.save_matrix(path, A)
        assert np.array_equal(serialize.load_matrix(path), A)

    def test_dim_mismatch_rejected(self):
        obj = {"dim": 3, "entries": [[[1.0, 0.0]]]}
        with pytest.raises(ShapeError):
            serialize.matrix_from_obj(obj)

    def test_malformed_rejected(self):
        with pytest.raises(OptiqError):
            serialize.matrix_from_obj({"entries": [[["x", 0]]]})
        with pytest.raises(OptiqError):
            serialize.matrix_from_obj([1, 2, 3])

    def test_rectangular_rejected(self):
        with pytest.raises(ShapeError):
            serialize.matrix_to_obj(np.ones((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(OptiqError, match="finite"):
            serialize.matrix_from_obj({"entries": [[[1.0, float("nan")]]]})
        with pytest.raises(OptiqError, match="finite"):
            serialize.parse_text_matrix("1 0\n0 -inf\n")


class TestTextFormat:
    def test_complex_literal_forms(self, tmp_path):
        path = tmp_path / "matrix.txt"
        path.write_text("1 0.5i\n-0.25-0.75i 2e-1+1i\n")
        got = serialize.load_matrix(path)
        want = np.array([[1, 0.5j], [-0.25 - 0.75j, 0.2 + 1j]])
        assert np.allclose(got, want, atol=0)

    def test_j_suffix_also_accepted(self):
        got = serialize.parse_text_matrix("1j 0\n0 -1j\n")
        assert np.array_equal(got, np.array([[1j, 0], [0, -1j]]))

    def test_bad_literal(self):
        with pytest.raises(OptiqError):
            serialize.parse_text_matrix("1 apple\n2 3\n")

    def test_blank_lines_skipped(self):
        got = serialize.parse_text_matrix("\n1 0\n   \n0 1i\n\n")
        assert np.array_equal(got, np.array([[1, 0], [0, 1j]]))

    def test_ragged_rejected(self):
        with pytest.raises(ShapeError):
            serialize.parse_text_matrix("1 2\n3\n")


class TestPlanFormat:
    def test_round_trip(self):
        rng = np.random.default_rng(52)
        plan = decompose(haar(rng, 4))
        obj = json.loads(serialize.dumps_canonical(serialize.plan_to_obj(plan)))
        again = serialize.plan_from_obj(obj)
        assert again == plan
        assert distance(reconstruct(again), reconstruct(plan)) == 0.0

    def test_malformed(self):
        good = serialize.plan_to_obj(decompose(haar(np.random.default_rng(52), 3)))
        element = good["elements"][0]
        for bad in [{"m": 2, "elements": [{"kind": "beam_splitter"}], "residual_phases": [0, 0]},
                    {**good, "format_version": 2}, {**good, "format_version": True},
                    {**good, "m": 3.0}, {**good, "residual_phases": ["0.5", 0.0, 0.0]},
                    {**good, "elements": [{**element, "theta": "0.5"}]},
                    {**good, "elements": [{**element, "modes": [0.0, 1]}]}, [good]]:
            with pytest.raises(OptiqError, match="^malformed plan object: "):
                serialize.plan_from_obj(bad)


class Oracle(json.JSONEncoder):
    """json's own encoder, reading a zero-argument callable as the tree it returns."""

    def default(self, o):
        return o() if callable(o) else super().default(o)


ORACLE = Oracle(indent=2, sort_keys=True)
NAN, INF = float("nan"), float("inf")


class Real(float):
    """A float subclass with its own repr, which json does not use."""

    def __repr__(self):
        return "Real()"


class Text(str):
    """A str subclass with its own repr, which json does not use."""

    def __repr__(self):
        return "Text()"


class Mode(enum.IntEnum):
    ONE = 1


ORACLE_CORPUS = [
    NAN, INF, -INF, -0.0, 5e-324, 1e300, [NAN, INF, -INF, -0.0, 5e-324, 1e300, 0.1],
    10 ** 400, -(10 ** 30), [10 ** 400, -(10 ** 30), 0], [True, 1, 1.0, False, 0, 0.0],
    None, [None, None], True,
    'say "hi" \\ \u2028 ünïcødé 光 😀', ["a\"b", "c\\d", "\u2028", "é", "%s", ""],
    [], {}, (), [[]], [{}], [()], {"a": []}, {"a": {}}, [[], []], [{}, {}], ([], ()), [[[]]],
    np.float64(0.1), [np.float64(0.1), np.float64(NAN), np.float64(-INF)],
    Real(2.5), [Real(2.5), 1.0], [[Real(2.5), 1.0], [Real(-0.0), NAN]],
    {2: "a", 0.5: "b", False: "c", 10: "d"}, {None: 1}, {NAN: 1, INF: 2, -INF: 3},
    {"a\"b": 1, "é": 2, "\u2028": 3, "%s": 4, "50%": 5},
    [1, "a", None, 2.5, [1, 2], {"k": "v"}, True, (3, 4)],
    [{"a": 1, "b": [1, 2]}, {"a": 2, "b": [3]}],
    [{"a": 1, "b": 2.5}, {"b": NAN, "a": 3}], [{"a": 1}, {"b": 1}],
    [{"a": 1}, {"a": 1, "b": 2}],
    [{"%s": 1, "b%": "x%sy"}, {"%s": True, "b%": None}], [{2: 1, 0.5: 2}, {0.5: 3, 2: 4}],
    [{None: 1}, {None: -0.0}],
    [[1.0, NAN], [-0.0, 2.0]], [[1, 2], [3]], [[1, 2], (3, 4)], ((1, 2), (3, 4)),
    [[1, [2]], [3, [4]]], [[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, -INF]]],
    {"deep": [[[[[[[[1, {"x": [2, 3]}]]]]]]]]},
    lambda: [1, 2], [lambda: {"z": None, "a": [lambda: 1.5]}, lambda: [], 3],
    {"b": lambda: lambda: {"q": [[1, 2], [3, lambda: 4]]}, "a": [lambda: {"x": 1}] * 3},
    Text("t\u00e9"), [Text("a"), "b"], {Text("k"): Text("v")},
    Mode.ONE, [Mode.ONE, 2], {Mode.ONE: Mode.ONE, 0: "zero"}, [{Mode.ONE: 1.5}, {Mode.ONE: 2}],
    ["a", True, None, "", False], [None, "%s", True],
]
ORACLE_ERRORS = [
    1j, np.int64(1), {1, 2}, object(), [1.0, 2j], [[1, 2], [3, 4j]], [{"a": 1}, {"a": {2}}],
    {(1, 2): 3}, [{(1, 2): 3}], lambda: [1j], {"a": 1, 2: "b"}, [{"a": 1, 2: "b"}],
    b"x",
]


class TestCanonicalWriter:
    OBJ = {"b": [1.5, {"z": None, "a": True}], "a": "text", "c": []}

    def test_stream_writes_the_canonical_bytes(self, tmp_path):
        path = tmp_path / "obj.json"
        with open(path, "w", encoding="utf-8") as f:
            serialize.dump_canonical(self.OBJ, f)
        text = json.dumps(self.OBJ, indent=2, sort_keys=True) + "\n"
        assert serialize.dumps_canonical(self.OBJ) == text
        assert path.read_text(encoding="utf-8") == text

    def test_builders_stand_for_their_trees(self):
        deferred = {"b": [1.5, lambda: {"z": None, "a": True}], "a": "text", "c": lambda: []}
        assert serialize.dumps_canonical(deferred) == serialize.dumps_canonical(self.OBJ)
        with pytest.raises(TypeError, match="Object of type complex is not JSON serializable"):
            serialize.dumps_canonical([1j])

    @pytest.mark.parametrize("value", ORACLE_CORPUS, ids=map(str, range(len(ORACLE_CORPUS))))
    def test_json_is_the_oracle(self, value):
        assert serialize.dumps_canonical(value) == ORACLE.encode(value) + "\n"

    @pytest.mark.parametrize("value", ORACLE_ERRORS, ids=map(str, range(len(ORACLE_ERRORS))))
    def test_json_is_the_oracle_of_type_errors(self, value):
        with pytest.raises(TypeError) as theirs:
            ORACLE.encode(value)
        with pytest.raises(TypeError) as ours:
            serialize.dumps_canonical(value)
        assert str(ours.value) == str(theirs.value)

    def test_cycles_recurse_without_end(self):
        # json raises ValueError; no caller builds a cycle
        loop = []
        loop.append(loop)
        with pytest.raises(RecursionError):
            serialize.dumps_canonical(loop)

    def test_save_replaces_whole_files_only(self, tmp_path):
        path = tmp_path / "obj.json"
        serialize.save_json(path, [1])
        serialize.save_json(path, self.OBJ)
        assert path.read_text(encoding="utf-8") == serialize.dumps_canonical(self.OBJ)
        with pytest.raises(TypeError):
            serialize.save_json(path, [1, object()])
        assert path.read_text(encoding="utf-8") == serialize.dumps_canonical(self.OBJ)
        assert list(tmp_path.iterdir()) == [path]

    def test_errors_name_the_destination(self, tmp_path, monkeypatch):
        missing = tmp_path / "missing" / "obj.json"
        with pytest.raises(FileNotFoundError) as exc:
            serialize.save_json(missing, [1])
        assert exc.value.filename == str(missing)
        with pytest.raises(IsADirectoryError) as exc:
            serialize.save_json(tmp_path, [1])
        assert exc.value.filename == str(tmp_path)
        assert list(tmp_path.iterdir()) == []
        # a failed rename names the destination, not the temporary file,
        # and leaves the earlier bytes and no temporary file behind
        path = tmp_path / "obj.json"
        path.write_bytes(b"earlier\n")

        def failing(src, dst):
            raise OSError(errno.EXDEV, os.strerror(errno.EXDEV), str(src), None, str(dst))

        monkeypatch.setattr(serialize.os, "replace", failing)
        with pytest.raises(OSError) as exc:
            serialize.save_json(path, [1])
        assert (exc.value.errno, exc.value.filename) == (errno.EXDEV, str(path))
        assert path.read_bytes() == b"earlier\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_other_destinations_fail_as_a_plain_write_does(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "dir").mkdir()
        (tmp_path / "f").write_bytes(b"earlier\n")
        # "f/x": lstat fails with an error other than a missing name
        for dest in ["dir", "dir/", ".", "", "missing/obj.json", "f/x"]:
            with pytest.raises(OSError) as plain:
                Path(dest).write_text("[1]\n", encoding="utf-8")
            with pytest.raises(OSError) as ours:
                serialize.save_json(dest, [1])
            assert (type(ours.value), str(ours.value)) == (type(plain.value), str(plain.value))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "f"]
        assert list((tmp_path / "dir").iterdir()) == []
        assert (tmp_path / "f").read_bytes() == b"earlier\n"

    def test_trailing_separator_fails_as_a_plain_open_does(self, tmp_path, monkeypatch,
                                                           capsys):
        # pathlib drops the separator; a plain open refuses the name unless it
        # is a directory, whether it is free or names a regular file
        monkeypatch.chdir(tmp_path)
        (tmp_path / "f").write_bytes(b"earlier\n")
        for dest in ["out/", "f/", "missing/x/", "f/x/"]:
            with pytest.raises(OSError) as plain:
                open(dest, "w", encoding="utf-8")
            with pytest.raises(OSError) as ours:
                serialize.save_json(dest, [1])
            assert (type(ours.value), str(ours.value)) == (type(plain.value), str(plain.value))
            assert main(["sample", "-m", "2", "-o", dest]) == 1
            assert capsys.readouterr().err == f"error: {plain.value}\n"
        assert str(plain.value) == "[Errno 20] Not a directory: 'f/x/'"
        with pytest.raises(IsADirectoryError, match=r"\[Errno 21\] Is a directory: 'out/'"):
            serialize.save_json("out/", [1])
        assert [p.name for p in tmp_path.iterdir()] == ["f"]
        assert (tmp_path / "f").read_bytes() == b"earlier\n"

    def test_devices_fifos_and_symlinks_are_written_in_place(self, tmp_path):
        serialize.save_json(os.devnull, self.OBJ)
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
        fifo, received = tmp_path / "fifo", []
        os.mkfifo(fifo)
        reader = threading.Thread(target=lambda: received.append(fifo.read_text(encoding="utf-8")))
        reader.start()
        serialize.save_json(fifo, self.OBJ)
        reader.join()
        assert received == [serialize.dumps_canonical(self.OBJ)]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        link.symlink_to(target.name)
        serialize.save_json(link, self.OBJ)
        assert link.is_symlink()
        assert target.read_text(encoding="utf-8") == serialize.dumps_canonical(self.OBJ)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "link.json", "target.json"]

    def test_replacement_keeps_permission_bits(self, tmp_path):
        new, old = tmp_path / "new.json", tmp_path / "old.json"
        with open(tmp_path / "plain.json", "w"):
            pass
        serialize.save_json(new, [1])
        assert new.stat().st_mode == (tmp_path / "plain.json").stat().st_mode
        old.write_bytes(b"earlier\n")
        old.chmod(0o640)
        serialize.save_json(old, [1])
        assert stat.S_IMODE(old.stat().st_mode) == 0o640
        assert old.read_text(encoding="utf-8") == serialize.dumps_canonical([1])

    def test_failed_chmod_keeps_earlier_file(self, tmp_path, monkeypatch):
        path = tmp_path / "obj.json"
        path.write_bytes(b"earlier\n")

        def failing(fd, mode):
            raise PermissionError(errno.EPERM, os.strerror(errno.EPERM))

        monkeypatch.setattr(serialize.os, "fchmod", failing)
        with pytest.raises(PermissionError):
            serialize.save_json(path, self.OBJ)
        assert path.read_bytes() == b"earlier\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_no_sibling_file_falls_back_to_writing_in_place(self, tmp_path, monkeypatch):
        path = tmp_path / "obj.json"
        path.write_bytes(b"earlier\n")
        taken = tmp_path / f".obj.json.{bytes(4).hex()}.tmp"
        taken.write_bytes(b"")
        monkeypatch.setattr(serialize.os, "urandom", bytes)
        serialize.save_json(path, self.OBJ)
        assert path.read_text(encoding="utf-8") == serialize.dumps_canonical(self.OBJ)
        assert taken.read_bytes() == b""
