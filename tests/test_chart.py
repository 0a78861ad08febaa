import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdyn.chart import (
    ChartPoint,
    ZeroPivotError,
    from_chart,
    fubini_study_metric,
    kahler_potential,
    normalization,
    select_pivot,
    symplectic_form,
    symplectic_inverse,
    to_chart,
    transition,
)
from cpdyn.observables import populations_quantum

from conftest import random_coords, random_state
from oracles import fd_kahler_hessian


class TestSelectPivot:
    def test_single_nonzero_amplitude(self):
        assert select_pivot(np.array([0, 0, 0, 1.0])) == 3

    def test_figure_initial_state_ties_break_low(self):
        psi = np.array([np.sqrt(0.4), np.sqrt(0.4), 0.0, np.sqrt(0.2)])
        assert select_pivot(psi) == 0

    def test_four_way_tie(self):
        assert select_pivot(np.array([0.5, 0.5, 0.5, 0.5])) == 0


class TestToFromChart:
    def test_uniform_state_pivot_last(self):
        point = to_chart(np.array([0.5, 0.5, 0.5, 0.5]), pivot=3)
        np.testing.assert_allclose(point.coords, [1, 1, 1])
        assert normalization(point) == pytest.approx(4.0)

    def test_basis_state(self):
        point = to_chart(np.array([0, 0, 0, 1.0]), pivot=3)
        np.testing.assert_array_equal(point.coords, [0, 0, 0])
        assert normalization(point) == pytest.approx(1.0)

    def test_bell_state_ratio(self):
        point = to_chart(np.array([1, 0, 0, 1.0]) / np.sqrt(2), pivot=3)
        np.testing.assert_allclose(point.coords, [1, 0, 0])
        assert normalization(point) == pytest.approx(2.0)

    def test_zero_pivot_rejected(self):
        with pytest.raises(ZeroPivotError):
            to_chart(np.array([1.0, 0, 0, 0]), pivot=2)

    def test_pivot_floor_is_1e_12(self):
        # `PIVOT_FLOOR`: a divisor half a decade above it is taken, one half
        # a decade below it refused
        assert to_chart(np.array([1.0, 5e-12]), pivot=1).coords[0] == 1.0 / 5e-12
        with pytest.raises(ZeroPivotError, match="below floor 1e-12"):
            to_chart(np.array([1.0, 5e-13]), pivot=1)

    def test_out_of_range_pivot_rejected(self):
        psi = np.array([0.5, 0.5, 0.5, 0.5])
        for pivot in (4, -1):
            with pytest.raises(ValueError, match="out of range"):
                to_chart(psi, pivot)

    @pytest.mark.parametrize(
        "psi, pivot, rule",
        [
            (np.eye(2) / np.sqrt(2), 0, r"state must be 1-D, got shape \(2, 2\)"),
            ([0.6, 0.8], 1.0, "pivot must be an integer, got 1.0"),
            ([0.6, 0.8], False, "pivot must be an integer, got False"),
            ([0.6, 0.8], np.int32(2), "pivot 2 out of range for dimension 2"),
        ],
    )
    def test_to_chart_refused_at_entry(self, psi, pivot, rule):
        with pytest.raises(ValueError, match=rule):
            to_chart(psi, pivot)
        point = to_chart([0.6, 0.8], np.int32(1))  # a NumPy integer passes
        assert point.pivot == 1 and point.coords[0] == 0.75

    def test_from_chart_examples(self):
        np.testing.assert_allclose(
            from_chart(ChartPoint(3, np.zeros(3))), [0, 0, 0, 1]
        )
        np.testing.assert_allclose(
            from_chart(ChartPoint(3, np.array([1.0, 0, 0]))),
            np.array([1, 0, 0, 1]) / np.sqrt(2),
        )

    def test_round_trip_fidelity_up_to_phase(self, rng):
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            psi = random_state(rng, n)
            point = to_chart(psi, select_pivot(psi))
            fidelity = abs(np.vdot(psi, from_chart(point)))
            assert fidelity > 1 - 1e-12

    def test_chart_round_trip_is_exact(self, rng):
        point = ChartPoint(2, random_coords(rng, 4))
        back = to_chart(from_chart(point), point.pivot)
        np.testing.assert_allclose(back.coords, point.coords, atol=1e-12)

    @given(st.floats(min_value=-10, max_value=10))
    @settings(max_examples=100)
    def test_gauge_invariance(self, theta):
        rng = np.random.default_rng(42)
        psi = random_state(rng, 4)
        pivot = select_pivot(psi)
        a = to_chart(psi, pivot)
        b = to_chart(np.exp(1j * theta) * psi, pivot)
        np.testing.assert_allclose(b.coords, a.coords, rtol=1e-12, atol=1e-15)


class TestChartPoint:
    def test_rejects_non_finite_coords(self):
        with pytest.raises(ValueError, match="finite"):
            ChartPoint(0, np.array([np.inf, 0]))

    def test_rejects_out_of_range_pivot(self):
        with pytest.raises(ValueError, match="pivot"):
            ChartPoint(5, np.zeros(3))

    @pytest.mark.parametrize(
        "pivot, coords, rule",
        [
            (0, [[1, 2], [3, 4]], r"chart coordinates must be 1-D, got shape \(2, 2\)"),
            (0, 1.0, r"chart coordinates must be 1-D, got shape \(\)"),
            (1.5, [1, 2], "pivot must be an integer, got 1.5"),
            (True, [1, 2], "pivot must be an integer, got True"),
            (np.int64(3), [1, 2], "pivot 3 out of range for dimension 3"),
            # an integer beyond the float range (numpy raised OverflowError)
            (0, [10**400], "chart coordinates must be finite"),
            (0, [], "a chart point needs at least one coordinate"),
        ],
    )
    def test_refused_at_entry(self, pivot, coords, rule):
        with pytest.raises(ValueError, match=rule):
            ChartPoint(pivot, coords)
        point = ChartPoint(np.int64(1), [1, 2])  # a NumPy integer passes
        assert point.pivot == 1 and type(point.pivot) is int

    def test_coords_read_only(self):
        point = ChartPoint(0, np.zeros(3))
        with pytest.raises(ValueError):
            point.coords[0] = 1.0

    def test_homogeneous_inserts_one_at_pivot(self):
        u = ChartPoint(1, np.array([2.0, 3.0])).homogeneous()
        np.testing.assert_array_equal(u, [2, 1, 3])


class TestPotentialAndNormalization:
    @pytest.mark.parametrize(
        "coords,nfac",
        [(np.zeros(3), 1.0), (np.ones(3), 4.0), (np.array([1.0, 0, 0]), 2.0)],
    )
    def test_normalization_values(self, coords, nfac):
        point = ChartPoint(3, coords)
        assert normalization(point) == pytest.approx(nfac)
        assert kahler_potential(point) == pytest.approx(np.log(nfac))


class TestMetricAndSymplectic:
    def test_metric_at_origin(self):
        np.testing.assert_allclose(
            fubini_study_metric(ChartPoint(3, np.zeros(3))), 2 * np.eye(3)
        )

    def test_metric_single_coordinate_closed_form(self):
        # second Wirtinger derivative of log(1 + |x|^2) at x = 0.3 + 0.4i
        x = 0.3 + 0.4j
        point = ChartPoint(1, np.array([x]))
        g = fubini_study_metric(point)
        assert g.shape == (1, 1)
        assert g[0, 0] == pytest.approx(2.0 / (1 + abs(x) ** 2) ** 2)
        fd = 2.0 * fd_kahler_hessian(point)
        np.testing.assert_allclose(g, fd, atol=1e-6)

    def test_metric_matches_finite_difference_hessian(self, rng):
        for _ in range(100):
            point = ChartPoint(3, random_coords(rng, 3, radius=0.5))
            analytic = fubini_study_metric(point)
            fd = 2.0 * fd_kahler_hessian(point)
            np.testing.assert_allclose(analytic, fd, atol=1e-6)

    def test_metric_hermitian_positive_definite(self, rng):
        for _ in range(200):
            m = int(rng.integers(1, 6))
            point = ChartPoint(0, random_coords(rng, m, radius=3.0))
            g = fubini_study_metric(point)
            assert np.max(np.abs(g - g.conj().T)) < 1e-12
            nfac = normalization(point)
            eigs = np.linalg.eigvalsh(g)
            assert eigs.min() > 1e-12
            # smallest eigenvalue is 2/nfac^2 (the radial direction)
            assert eigs.min() == pytest.approx(2.0 / nfac**2, rel=1e-9)

    def test_symplectic_form_is_half_i_metric(self, rng):
        point = ChartPoint(0, random_coords(rng, 3))
        np.testing.assert_allclose(
            symplectic_form(point), 0.5j * fubini_study_metric(point), atol=0
        )

    def test_symplectic_inverse_at_origin(self):
        np.testing.assert_allclose(
            symplectic_inverse(ChartPoint(3, np.zeros(3))), -1j * np.eye(3)
        )

    def test_symplectic_inverse_bell_point(self):
        w = symplectic_inverse(ChartPoint(3, np.array([1.0, 0, 0])))
        np.testing.assert_allclose(np.diag(w), [-4j, -2j, -2j])

    def test_inverse_identity(self, rng):
        for _ in range(1000):
            m = int(rng.integers(1, 6))
            point = ChartPoint(0, random_coords(rng, m))
            prod = symplectic_inverse(point) @ symplectic_form(point)
            assert np.max(np.abs(prod - np.eye(m))) < 1e-10


class TestTransition:
    def test_ratio_arithmetic(self):
        point = transition(ChartPoint(3, np.array([1.0, 0, 0])), 0)
        assert point.pivot == 0
        np.testing.assert_allclose(point.coords, [0, 0, 1])

    def test_same_pivot_is_identity(self):
        point = ChartPoint(2, np.array([1.0, 2.0]))
        assert transition(point, 2) is point
        # the same pivot as a float or a bool is refused, as `to_chart` does
        for pivot in (2.0, True):
            with pytest.raises(ValueError, match="pivot must be an integer"):
                transition(ChartPoint(int(pivot), [1.0, 2.0]), pivot)

    def test_double_transition_round_trip(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 7))
            psi = random_state(rng, n)
            point = to_chart(psi, select_pivot(psi))
            moduli = np.abs(point.homogeneous())
            other = int(np.argsort(moduli)[-2])  # second-best divisor
            if moduli[other] < 0.1:
                continue
            back = transition(transition(point, other), point.pivot)
            np.testing.assert_allclose(back.coords, point.coords, atol=1e-12)

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroPivotError):
            transition(ChartPoint(3, np.array([0.0, 1.0, 0.0])), 0)

    def test_represents_same_ray(self, rng):
        psi = random_state(rng, 5)
        point = to_chart(psi, select_pivot(psi))
        for new_pivot in range(5):
            if abs(psi[new_pivot]) < 0.2:
                continue
            moved = transition(point, new_pivot)
            fidelity = abs(np.vdot(from_chart(moved), from_chart(point)))
            assert fidelity > 1 - 1e-12


def test_chart_consistency_observables_every_pivot(rng):
    # populations computed after a chart round trip match the original state
    for _ in range(50):
        psi = random_state(rng, 4)
        pops = populations_quantum(psi)
        for pivot in range(4):
            if abs(psi[pivot]) <= 0.2:
                continue
            rebuilt = from_chart(to_chart(psi, pivot))
            np.testing.assert_allclose(
                populations_quantum(rebuilt), pops, atol=1e-10
            )
