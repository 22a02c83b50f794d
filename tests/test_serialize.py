import json

import numpy as np
import pytest

from conftest import haar
from optiq import serialize
from optiq.circuit import decompose, reconstruct
from optiq.errors import OptiqError, ShapeError
from optiq.lie import distance
from test_cli import plan_from_obj


class TestMatrixFormat:
    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(50)
        A = haar(rng, 4)
        obj = serialize.matrix_to_obj(A)
        again = serialize.matrix_from_obj(json.loads(json.dumps(obj)))
        assert np.array_equal(again, A)  # repr round-trip keeps every bit

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

    def test_ragged_rejected(self):
        with pytest.raises(ShapeError):
            serialize.parse_text_matrix("1 2\n3\n")


class TestPlanFormat:
    def test_round_trip(self):
        rng = np.random.default_rng(52)
        plan = decompose(haar(rng, 4))
        obj = json.loads(serialize.dumps_canonical(serialize.plan_to_obj(plan)))
        again = plan_from_obj(obj)
        assert again == plan
        assert distance(reconstruct(again), reconstruct(plan)) == 0.0

    def test_malformed(self):
        with pytest.raises(OptiqError):
            plan_from_obj({"m": 2, "elements": [{"kind": "beam_splitter"}],
                                     "residual_phases": [0, 0]})
