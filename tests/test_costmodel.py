"""Tests for the observed-coefficient cost model and time prediction."""

import pytest

from repro.costmodel import ObservedCoefficients, predict_times
from repro.costmodel.flops import atomic_units
from repro.kernels import LaplaceKernel, RegularizedStokesletKernel
from repro.util.timing import TimerRegistry


class TestFlops:
    def test_atomic_units_positive(self):
        u = atomic_units(4)
        assert all(v > 0 for v in u.values())

    def test_m2l_grows_with_order(self):
        assert atomic_units(6)["M2L"] > atomic_units(4)["M2L"] > atomic_units(2)["M2L"]

    def test_stokeslet_m2l_4x(self):
        lap = atomic_units(4, LaplaceKernel())
        sto = atomic_units(4, RegularizedStokesletKernel())
        assert sto["M2L"] == pytest.approx(4.0 * lap["M2L"])

    def test_p2p_uses_kernel_flops(self):
        sto = atomic_units(4, RegularizedStokesletKernel())
        # 60 flops per pair x the 3-component profile weight
        assert sto["P2P"] == pytest.approx(60.0 * 3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            atomic_units(-1)


class TestObservedCoefficients:
    def _registry(self, times_counts):
        reg = TimerRegistry()
        for op, (t, c) in times_counts.items():
            reg.add(op, t, c)
        return reg

    def test_update_and_query(self):
        coeffs = ObservedCoefficients()
        reg = self._registry({"P2M": (1.0, 100), "M2L": (2.0, 50)})
        coeffs.update_from_registry(reg, gpu_p2p_coefficient=1e-9)
        assert coeffs.cpu_coefficient("P2M") == pytest.approx(0.01)
        assert coeffs.cpu_coefficient("M2L") == pytest.approx(0.04)
        assert coeffs.gpu_p2p == pytest.approx(1e-9)

    def test_smoothing_replaces_by_default(self):
        coeffs = ObservedCoefficients()  # a new observation replaces the old
        coeffs.update_from_registry(self._registry({"P2M": (1.0, 10)}), 0.0)
        coeffs.update_from_registry(self._registry({"P2M": (3.0, 10)}), 0.0)
        assert coeffs.cpu_coefficient("P2M") == pytest.approx(0.3)

    def test_zero_count_ops_ignored(self):
        coeffs = ObservedCoefficients()
        coeffs.update_from_registry(self._registry({"M2M": (0.0, 0)}), 0.0)
        assert coeffs.cpu_coefficient("M2M") == 0.0

    def test_ready_requires_core_ops(self):
        coeffs = ObservedCoefficients()
        assert not coeffs.ready
        coeffs.update_from_registry(
            self._registry({"P2M": (1, 1), "M2L": (1, 1), "L2P": (1, 1)}), 1e-9
        )
        assert coeffs.ready

    def test_as_dict(self):
        coeffs = ObservedCoefficients()
        coeffs.update_from_registry(self._registry({"P2M": (1.0, 10)}), 2e-9)
        d = coeffs.as_dict()
        assert d["P2M"] == pytest.approx(0.1)
        assert d["P2P"] == pytest.approx(2e-9)


class TestPrediction:
    def test_formula(self):
        coeffs = ObservedCoefficients()
        reg = TimerRegistry()
        reg.add("P2M", 1.0, 100)  # 0.01 each
        reg.add("M2L", 1.0, 10)  # 0.1 each
        coeffs.update_from_registry(reg, gpu_p2p_coefficient=1e-6)
        pred = predict_times({"P2M": 200, "M2L": 5, "P2P": 1_000_000}, coeffs)
        assert pred.cpu_time == pytest.approx(200 * 0.01 + 5 * 0.1)
        assert pred.gpu_time == pytest.approx(1.0)
        assert pred.compute_time == pytest.approx(2.5)
        assert pred.imbalance == pytest.approx(1.5)

    def test_missing_ops_contribute_zero(self):
        pred = predict_times({"P2P": 100}, ObservedCoefficients())
        assert pred.cpu_time == 0.0
        assert pred.gpu_time == 0.0
