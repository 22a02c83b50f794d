import numpy as np
import pytest

import golden
from conftest import haar
from optiq import circuit
from optiq.circuit import CircuitPlan, OpticalElement, decompose, reconstruct
from optiq.errors import InternalConsistencyError, ShapeError, UnitarityError
from optiq.lie import distance


def dense_product(plan):
    """The plan multiplied out as dense m x m matrices in light order: each
    element embedded in the identity, then the output phases as a diagonal."""
    U = np.eye(plan.m, dtype=complex)
    for el in plan.elements:
        E = np.eye(plan.m, dtype=complex)
        E[np.ix_(el.modes, el.modes)] = circuit._splitter_block(el.theta, el.phi)
        U = E @ U
    return np.diag(np.exp(1j * np.array(plan.residual_phases, dtype=float))) @ U


class TestReconstruct:
    def test_empty_plan(self):
        plan = CircuitPlan(3, (), (0.0, 0.0, 0.0))
        assert np.array_equal(reconstruct(plan), np.eye(3))

    def test_matches_the_dense_product(self):
        # random plans, repeated pairs and the last pair included; the empty
        # plan gives the identity exactly at every m
        rng = np.random.default_rng(11)
        for m in range(1, 11):
            assert np.array_equal(reconstruct(CircuitPlan(m, (), (0.0,) * m)), np.eye(m))
            for _ in range(5):
                pairs = [*rng.integers(0, m - 1, size=3 * m), m - 2, m - 2] if m > 1 else []
                elements = tuple(
                    OpticalElement("beam_splitter", (int(j), int(j) + 1),
                                   rng.uniform(0, np.pi / 2), rng.uniform(-np.pi, np.pi))
                    for j in pairs)
                plan = CircuitPlan(m, elements, tuple(rng.uniform(-np.pi, np.pi, m)))
                assert np.abs(reconstruct(plan) - dense_product(plan)).max() < 1e-13

    def test_single_splitter_block(self):
        theta, phi = 0.3, -1.1
        plan = CircuitPlan(2, (OpticalElement("beam_splitter", (0, 1), theta, phi),),
                           (0.0, 0.0))
        want = np.array([
            [np.exp(1j * phi) * np.cos(theta), -np.sin(theta)],
            [np.exp(1j * phi) * np.sin(theta), np.cos(theta)],
        ])
        assert np.allclose(reconstruct(plan), want, atol=1e-15)

    def test_balanced_splitter_with_phases_gives_symmetric_coupler(self):
        # theta = pi/4 with a quarter-turn input phase and matched output
        # phases reproduces the symmetric 50:50 convention
        plan = CircuitPlan(
            2,
            (OpticalElement("beam_splitter", (0, 1), np.pi / 4, np.pi / 2),),
            (-np.pi / 2, 0.0))
        assert np.allclose(reconstruct(plan), golden.S_BS, atol=1e-12)

    def test_malformed_plans_rejected(self):
        with pytest.raises(ShapeError):
            reconstruct(CircuitPlan(3, (OpticalElement("beam_splitter", (0, 2)),),
                                    (0.0, 0.0, 0.0)))
        with pytest.raises(ShapeError):
            reconstruct(CircuitPlan(2, (OpticalElement("beam_splitter", (1, 2)),),
                                    (0.0, 0.0)))
        with pytest.raises(ShapeError):
            reconstruct(CircuitPlan(2, (OpticalElement("laser", (0,)),), (0.0, 0.0)))
        with pytest.raises(ShapeError, match="unknown element kind"):
            reconstruct(CircuitPlan(2, (OpticalElement("phase_shifter", (0,), phi=0.7),),
                                    (0.0, 0.0)))
        with pytest.raises(ShapeError):
            reconstruct(CircuitPlan(2, (), (0.0,)))
        with pytest.raises(ShapeError, match="mode count"):
            reconstruct(CircuitPlan(0, (), ()))


class TestDecompose:
    def test_identity_gives_empty_plan(self):
        for m in (1, 2, 4):
            plan = decompose(np.eye(m))
            assert plan.elements == ()
            assert np.allclose(plan.residual_phases, 0.0)

    def test_round_trip_haar(self):
        rng = np.random.default_rng(40)
        for m in range(2, 7):
            for _ in range(10):
                S = haar(rng, m)
                plan = decompose(S)
                assert len(plan.elements) <= m * (m - 1) // 2
                assert distance(reconstruct(plan), S) < 1e-9

    def test_reference_scattering_matrix(self):
        plan = decompose(golden.SA3)
        assert distance(reconstruct(plan), golden.SA3) < 1e-4
        # physically a single balanced splitter plus phases
        assert len(plan.elements) == 1
        assert plan.elements[0].theta == pytest.approx(np.pi / 4, abs=1e-4)

    def test_symmetric_coupler_decomposes_to_one_balanced_element(self):
        plan = decompose(golden.S_BS)
        assert len(plan.elements) == 1
        el = plan.elements[0]
        assert el.theta == pytest.approx(np.pi / 4, abs=1e-12)
        assert distance(reconstruct(plan), golden.S_BS) < 1e-12

    def test_global_phase_changes_only_residual_phases(self):
        rng = np.random.default_rng(41)
        S = haar(rng, 4)
        p1 = decompose(S)
        p2 = decompose(np.exp(0.9j) * S)
        assert len(p1.elements) == len(p2.elements)
        for a, b in zip(p1.elements, p2.elements):
            assert a.modes == b.modes
            assert a.theta == pytest.approx(b.theta, abs=1e-9)
            assert a.phi == pytest.approx(b.phi, abs=1e-9)
        assert not np.allclose(p1.residual_phases, p2.residual_phases)

    def test_angles_stay_in_range(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            plan = decompose(haar(rng, 5))
            for el in plan.elements:
                assert -np.pi < el.phi <= np.pi
                assert 0 <= el.theta <= np.pi / 2
            for p in plan.residual_phases:
                assert -np.pi < p <= np.pi

    def test_rejects_non_unitary(self):
        with pytest.raises(UnitarityError):
            decompose(np.eye(3) * 1.2)

    def test_unfinished_sweep_raises(self, monkeypatch):
        # a skip threshold above every entry leaves the input undiagonalized
        monkeypatch.setattr(circuit, "NULL_SKIP_TOL", 10)
        with pytest.raises(InternalConsistencyError, match="off-diagonal residual"):
            decompose(haar(np.random.default_rng(43), 4))

    def test_single_mode(self):
        plan = decompose(np.array([[np.exp(0.4j)]]))
        assert plan.elements == ()
        assert plan.residual_phases[0] == pytest.approx(0.4)
