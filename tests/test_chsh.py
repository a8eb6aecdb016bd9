"""CHSH evaluation routes, the violation surface, the optimizer, and
the maximally entangled free-angle maxima."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hardylab import chsh
from hardylab.chsh import (
    DELTA_MAX,
    GOLDEN_MEAN,
    MAX_SCAN_CELLS,
    OPTIMAL_BETA0_DEG,
    OPTIMAL_C1_SQUARED,
    ChshResult,
    delta_closed_form,
    delta_from_correlations,
    delta_from_probabilities,
    evaluate,
    maximal_free_angle_delta,
    optimize_delta,
    scan_surface,
)
from hardylab.correlations import CorrelationSet
from hardylab.hardy import DegenerateBeta0, NotPartiallyEntangled, _hardy_domain, solve_hardy
from hardylab.qstate import (
    DomainError,
    ExperimentConfig,
    MeasurementSetting,
    make_state,
)
from oracles import optimum_decimal, oracle_probabilities

# Frozen goldens at the rational sample point (c1^2, beta0) = (1/4, 30 deg).
GOLDEN_SAMPLE_DELTA = 2.3
GOLDEN_SAMPLE_P_HARDY = 0.075

SQRT2 = math.sqrt(2.0)

partial_c1sq = st.floats(min_value=0.01, max_value=0.99).filter(
    lambda x: abs(x - 0.5) > 1e-3
)
beta0_values = st.floats(min_value=0.05, max_value=math.pi / 2.0 - 0.05)
angles = st.floats(min_value=-2.0 * math.pi, max_value=2.0 * math.pi)


def _solved_config(c1_squared, beta0):
    return solve_hardy(make_state(c1_squared), beta0).config()


def _oracle_optimum():
    """(c1^2, beta0 in degrees) of the Decimal oracle's mirror maximizer."""
    c1_squared, cos_sq_beta0, _ = optimum_decimal()
    return float(c1_squared), math.degrees(math.acos(math.sqrt(float(cos_sq_beta0))))


class TestConstants:
    def test_golden_mean_fixed_point(self):
        assert GOLDEN_MEAN**2 == pytest.approx(GOLDEN_MEAN + 1.0, abs=1e-15)

    def test_delta_max_closed_forms(self):
        assert DELTA_MAX == pytest.approx(10.0 * math.sqrt(5.0) - 20.0, abs=5e-15)
        assert DELTA_MAX == pytest.approx(2.3606797749978966, abs=1e-15)

    def test_quoted_maximizer_nearly_stationary(self):
        peak = delta_closed_form(
            OPTIMAL_C1_SQUARED, math.radians(OPTIMAL_BETA0_DEG)
        )
        assert peak == pytest.approx(DELTA_MAX, abs=1e-15)

    def test_maximizer_is_the_mirror_of_the_oracle_point(self):
        oracle_x, oracle_beta0_deg = _oracle_optimum()
        assert abs(OPTIMAL_C1_SQUARED - (1.0 - oracle_x)) <= 1e-12
        assert abs(OPTIMAL_BETA0_DEG - (90.0 - oracle_beta0_deg)) <= 1e-10


class TestGoldenSample:
    def test_closed_form(self):
        delta = delta_closed_form(0.25, math.radians(30.0))
        assert delta == pytest.approx(GOLDEN_SAMPLE_DELTA, abs=1e-12)

    def test_hardy_probability_identity(self):
        solution = solve_hardy(make_state(0.25), math.radians(30.0))
        p = solution.hardy_probability()
        assert p == pytest.approx(GOLDEN_SAMPLE_P_HARDY, abs=1e-12)
        assert delta_closed_form(0.25, math.radians(30.0)) == pytest.approx(
            2.0 + 4.0 * p, abs=1e-12
        )

    def test_evaluate_verdict(self):
        result = evaluate(_solved_config(0.25, math.radians(30.0)))
        assert isinstance(result, ChshResult)
        assert result.delta == pytest.approx(GOLDEN_SAMPLE_DELTA, abs=1e-12)
        assert result.violated

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-9, "x"])
    def test_evaluate_rejects_bad_tolerance(self, tol):
        with pytest.raises(DomainError, match="tol must be"):
            evaluate(_solved_config(0.25, math.radians(30.0)), tol=tol)


class TestRouteAgreement:
    @given(c1_squared=partial_c1sq, beta0=beta0_values)
    @settings(max_examples=200, deadline=None)
    def test_three_routes_on_solved_family(self, c1_squared, beta0):
        config = _solved_config(c1_squared, beta0)
        from_correlations = evaluate(config).delta
        from_probabilities = delta_from_probabilities(config)
        from_closed_form = delta_closed_form(c1_squared, beta0)
        assert from_correlations == pytest.approx(from_probabilities, abs=1e-12)
        assert from_correlations == pytest.approx(from_closed_form, abs=1e-10)

    @given(
        c1_squared=st.floats(min_value=0.0, max_value=1.0),
        b11=angles, b12=angles, b21=angles, b22=angles,
        d11=angles, d12=angles, d21=angles, d22=angles,
    )
    @settings(max_examples=200, deadline=None)
    def test_two_routes_unconstrained(
        self, c1_squared, b11, b12, b21, b22, d11, d12, d21, d22
    ):
        config = ExperimentConfig(
            state=make_state(c1_squared),
            d11=MeasurementSetting(b11, d11),
            d12=MeasurementSetting(b12, d12),
            d21=MeasurementSetting(b21, d21),
            d22=MeasurementSetting(b22, d22),
        )
        assert evaluate(config).delta == pytest.approx(
            delta_from_probabilities(config), abs=1e-12
        )

    def test_delta_from_correlations_sign_structure(self):
        assert delta_from_correlations(
            CorrelationSet(e11=1.0, e12=1.0, e21=1.0, e22=-1.0)
        ) == pytest.approx(4.0, abs=0)
        assert delta_from_correlations(
            CorrelationSet(e11=0.5, e12=0.5, e21=0.5, e22=0.5)
        ) == pytest.approx(1.0, abs=1e-15)


# c1^2 values around the two edges of the Hardy domain: near-product
# states, and states within and just outside the classification
# tolerance of maximal entanglement.
domain_edge_c1sq = st.one_of(
    st.floats(min_value=5e-324, max_value=1e-16),
    st.floats(min_value=0.5 - 2e-9, max_value=0.5 + 2e-9),
)


NON_FINITE = (math.nan, math.inf, -math.inf)
NON_NUMERIC = ("x", None)

# c1^2 at and just beyond the ends of [0, 1]: within make_state's
# rounding allowance (clamped, a product state) and outside it (refused).
OFF_RANGE_C1SQ = (0.0, 1.0, -5e-13, 1.0 + 5e-13, -2e-12, 1.0 + 2e-12, -0.1, 1.1)

# c1^2 in [0, 1] and beta0, weighted toward the edges of the Hardy
# domain: c1^2 = 0, 1 exactly and within 1e-8 of c1^2 = 0, 1/2, 1, and
# beta0 within 1e-8 of 0, pi/2.
edge_c1sq = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.floats(min_value=0.0, max_value=1e-8),
    st.floats(min_value=0.5 - 1e-8, max_value=0.5 + 1e-8),
    st.floats(min_value=1.0 - 1e-8, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
edge_beta0 = st.one_of(
    st.floats(min_value=-1e-8, max_value=1e-8),
    st.floats(min_value=math.pi / 2.0 - 1e-8, max_value=math.pi / 2.0 + 1e-8),
    st.floats(min_value=-10.0, max_value=10.0),
    st.sampled_from(NON_FINITE),
)


def _refusal(function, *args):
    """The DomainError function raises on args, or None if it returns."""
    try:
        function(*args)
    except DomainError as exc:
        return exc
    return None


def _solve(c1_squared, beta0):
    return solve_hardy(make_state(c1_squared), beta0)


class TestClosedFormDomain:
    @given(
        c1_squared=st.one_of(domain_edge_c1sq, st.sampled_from(OFF_RANGE_C1SQ + NON_NUMERIC)),
        beta0=st.sampled_from([0.3, *NON_FINITE, *NON_NUMERIC]),
    )
    @example(c1_squared="x", beta0=0.3)
    @example(c1_squared=0.3, beta0="x")
    @example(c1_squared=0.3, beta0=None)
    @example(c1_squared=None, beta0=None)
    @example(c1_squared=0.5, beta0=0.3)
    @example(c1_squared=0.5 + 1e-11, beta0=0.3)
    @example(c1_squared=1e-19, beta0=0.3)
    @example(c1_squared=0.3, beta0=math.nan)
    @example(c1_squared=0.3, beta0=math.inf)
    @example(c1_squared=0.3, beta0=-math.inf)
    @settings(max_examples=200, deadline=None)
    def test_rejects_what_solve_hardy_rejects(self, c1_squared, beta0):
        refusal = _refusal(_solve, c1_squared, beta0)
        if refusal is None:
            assert math.isfinite(delta_closed_form(c1_squared, beta0))
        else:
            with pytest.raises(DomainError) as info:
                delta_closed_form(c1_squared, beta0)
            assert type(info.value) is type(refusal)
            assert str(info.value) == str(refusal)

    @given(
        xs=st.lists(st.one_of(edge_c1sq, st.sampled_from(NON_FINITE)), min_size=1, max_size=6),
        betas=st.lists(edge_beta0, min_size=1, max_size=6),
    )
    @example(xs=[0.5 - 5e-10, 0.5 + 5e-10, 1e-19, 0.3], betas=[1e-10, 5e-10, math.nan, 0.3])
    @example(xs=[0.0, 1.0, 0.3], betas=[0.3, 0.0])
    @settings(max_examples=300, deadline=None)
    def test_scalar_and_array_domains_agree(self, xs, betas):
        inside = [x for x in xs if 0.0 <= x <= 1.0]
        x = np.array(inside)[:, None]
        b = np.array(betas)[None, :]
        with np.errstate(invalid="ignore"):
            sin_2b = np.sin(2.0 * b)
        product, maximal, degenerate = _hardy_domain(np.sqrt(x), np.sqrt(1.0 - x), sin_2b)
        off_domain = product | maximal | degenerate
        for c1_squared in xs:
            for j, beta0 in enumerate(betas):
                refusal = _refusal(_solve, c1_squared, beta0)
                closed = _refusal(delta_closed_form, c1_squared, beta0)
                assert type(closed) is type(refusal)
                assert str(closed) == str(refusal)
                if c1_squared in inside:
                    assert off_domain[inside.index(c1_squared), j] == (refusal is not None)

    @pytest.mark.parametrize("c1_squared", [0.0, 1.0, -0.1, 1.1])
    def test_rejects_boundary_states(self, c1_squared):
        # The ends are product states; beyond them c1^2 is out of range.
        expected = NotPartiallyEntangled if c1_squared in (0.0, 1.0) else DomainError
        with pytest.raises(DomainError) as info:
            delta_closed_form(c1_squared, 0.3)
        assert type(info.value) is expected

    @pytest.mark.parametrize("beta0", [0.0, math.pi / 2.0, math.pi, -math.pi])
    def test_rejects_degenerate_beta0(self, beta0):
        with pytest.raises(DegenerateBeta0):
            delta_closed_form(0.3, beta0)

    @given(c1_squared=partial_c1sq, beta0=beta0_values)
    @settings(max_examples=200, deadline=None)
    def test_mirror_symmetry(self, c1_squared, beta0):
        direct = delta_closed_form(c1_squared, beta0)
        mirrored = delta_closed_form(1.0 - c1_squared, math.pi / 2.0 - beta0)
        assert direct == pytest.approx(mirrored, abs=1e-10)

    @given(c1_squared=partial_c1sq, beta0=beta0_values)
    @settings(max_examples=200, deadline=None)
    def test_bounded_between_two_and_max(self, c1_squared, beta0):
        delta = delta_closed_form(c1_squared, beta0)
        assert 2.0 - 1e-12 <= delta <= DELTA_MAX + 1e-12


class TestScanSurface:
    def test_small_grid_layout(self):
        grid = scan_surface(5, 4)
        assert grid.shape == (5, 4)
        np.testing.assert_allclose(grid.c1_squared, [0.0, 0.25, 0.5, 0.75, 1.0])
        np.testing.assert_allclose(grid.beta0_deg, [0.0, 30.0, 60.0, 90.0])
        expected_degenerate = np.ones((5, 4), dtype=bool)
        expected_degenerate[np.ix_([1, 3], [1, 2])] = False
        np.testing.assert_array_equal(grid.degenerate, expected_degenerate)
        assert np.all(grid.delta[expected_degenerate] == 2.0)
        assert np.all(grid.p_hardy[expected_degenerate] == 0.0)

    def test_cells_match_pointwise_routes(self):
        grid = scan_surface(5, 4)
        for i, j in ((1, 1), (1, 2), (3, 1), (3, 2)):
            x = float(grid.c1_squared[i])
            beta0 = math.radians(float(grid.beta0_deg[j]))
            assert grid.delta[i, j] == pytest.approx(
                delta_closed_form(x, beta0), abs=1e-12
            )
            solution = solve_hardy(make_state(x), beta0)
            assert grid.p_hardy[i, j] == pytest.approx(
                solution.hardy_probability(), abs=1e-12
            )
            assert grid.delta[i, j] == pytest.approx(
                2.0 + 4.0 * grid.p_hardy[i, j], abs=1e-12
            )

    def test_rows_row_major(self):
        grid = scan_surface(5, 4)
        rows = list(grid.rows())
        assert len(rows) == 20
        assert rows[0][:2] == (0.0, 0.0)
        assert rows[3][:2] == (0.0, 90.0)
        assert rows[4][:2] == (0.25, 0.0)
        assert rows[5][2] == pytest.approx(GOLDEN_SAMPLE_P_HARDY, abs=1e-12)
        assert rows[5][3] == pytest.approx(GOLDEN_SAMPLE_DELTA, abs=1e-12)
        assert rows[5][4] is False
        assert rows[-1][:2] == (1.0, 90.0)

    def test_max_cell(self):
        grid = scan_surface(5, 4)
        assert grid.max_cell() == (
            0.25,
            30.0,
            pytest.approx(GOLDEN_SAMPLE_DELTA, abs=1e-12),
        )

    @pytest.mark.parametrize("shape", [(241, 201), (225, 193)])
    def test_degenerate_mask_is_where_solve_hardy_refuses(self, shape):
        grid = scan_surface(*shape)
        refused = np.array([
            [_refusal(_solve, x, math.radians(b)) is not None for b in grid.beta0_deg.tolist()]
            for x in grid.c1_squared.tolist()
        ])
        assert refused.any() and not refused.all()
        np.testing.assert_array_equal(grid.degenerate, refused)

    @pytest.mark.parametrize(
        "steps",
        [(1, 4), (4, 1), (0, 0), (2.5, 3), (3, 2.5), (5.0, 5), (math.nan, 3), (3, math.inf),
         ("5", 5), (None, 5), (True, 5)],
    )
    def test_rejects_tiny_axes(self, steps):
        with pytest.raises(DomainError, match="at least 2 steps"):
            scan_surface(*steps)

    @pytest.mark.parametrize("steps", [(10001, 1001), (2, 10**12), (10**6, 10**6)])
    def test_rejects_oversized_grid(self, steps):
        assert steps[0] * steps[1] > MAX_SCAN_CELLS
        with pytest.raises(DomainError, match="exceeds the limit"):
            scan_surface(*steps)

    def test_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(chsh, "MAX_SCAN_CELLS", 20)
        assert scan_surface(5, 4).shape == (5, 4)
        with pytest.raises(DomainError, match="7x3 grid exceeds the limit of 20 cells"):
            scan_surface(7, 3)

    def test_point_symmetry(self):
        grid = scan_surface(11, 11)
        flipped = grid.delta[::-1, ::-1]
        np.testing.assert_allclose(grid.delta, flipped, atol=1e-10)


class TestOptimizer:
    def test_finds_global_maximum(self):
        x, beta0, delta = optimize_delta()
        assert delta == DELTA_MAX
        oracle_x, oracle_beta0_deg = _oracle_optimum()
        assert abs(x - oracle_x) <= 1e-12
        assert abs(math.degrees(beta0) - oracle_beta0_deg) <= 1e-10

    def test_is_closed_form(self, monkeypatch):
        assert not inspect.signature(optimize_delta).parameters
        calls = []

        def no_scan(*args):
            raise AssertionError("optimize_delta scanned the surface")

        def counted(*args):
            calls.append(args)
            return delta_closed_form(*args)

        monkeypatch.setattr(chsh, "scan_surface", no_scan)
        monkeypatch.setattr(chsh, "delta_closed_form", counted)
        assert optimize_delta()[2] == DELTA_MAX
        assert len(calls) == 1

    def test_is_stationary(self):
        x, beta0, _ = optimize_delta()
        h = 1e-5
        d_x = (delta_closed_form(x + h, beta0) - delta_closed_form(x - h, beta0)) / (2 * h)
        d_beta0 = (delta_closed_form(x, beta0 + h) - delta_closed_form(x, beta0 - h)) / (2 * h)
        assert abs(d_x) <= 5e-9 and abs(d_beta0) <= 5e-9

    def test_no_scan_cell_exceeds_the_maximum(self):
        peak = optimize_delta()[2]
        assert float(np.max(scan_surface(1001, 901).delta)) <= peak

    def test_fixed_state_maximum_matches_fine_search(self):
        # Hardy's fixed-state maximum P* = [c1 c2 (c1 - c2)/(1 - c1 c2)]^2
        # at tan^2(beta0) = (c1/c2)^3, against a 20 001-point beta0 grid
        # of the state-vector oracle.
        rng = np.random.default_rng(1993)
        states = np.concatenate([rng.uniform(0.02, 0.48, 10), rng.uniform(0.52, 0.98, 10)])
        beta0 = np.linspace(0.0, math.pi / 2.0, 20001)[1:-1]
        for x in states.tolist():
            c1, c2 = math.sqrt(x), math.sqrt(1.0 - x)
            p_star = (c1 * c2 * (c1 - c2) / (1.0 - c1 * c2)) ** 2
            beta22 = np.arctan(-((c1 / c2) ** 3) / np.tan(beta0))
            searched = float(np.max(oracle_probabilities(c1, c2, beta0, 0.0, beta22, 0.0)[(1, 1)]))
            assert p_star - 1e-9 <= searched <= p_star + 1e-15
            at_argmax = delta_closed_form(x, math.atan((c1 / c2) ** 1.5))
            assert at_argmax == pytest.approx(2.0 + 4.0 * p_star, abs=1e-12)

    def test_maximum_matches_hardy_probability(self):
        x, beta0, delta = optimize_delta()
        p = solve_hardy(make_state(x), beta0).hardy_probability()
        assert delta == pytest.approx(2.0 + 4.0 * p, abs=1e-9)
        assert p == pytest.approx(GOLDEN_MEAN**-5, abs=1e-9)


class TestMaximalFreeAngle:
    def test_beta_mode_peak(self):
        diffs = (-math.pi / 8.0, math.pi / 8.0, math.pi / 8.0, 3.0 * math.pi / 8.0)
        assert maximal_free_angle_delta(beta_diffs=diffs) == pytest.approx(
            2.0 * SQRT2, abs=1e-12
        )

    def test_delta_mode_peak(self):
        diffs = (-math.pi / 4.0, math.pi / 4.0, math.pi / 4.0, 3.0 * math.pi / 4.0)
        assert maximal_free_angle_delta(delta_diffs=diffs) == pytest.approx(
            2.0 * SQRT2, abs=1e-12
        )

    def test_hardy_constrained_differences_stay_local(self):
        diffs = (-math.pi / 2.0, math.pi / 2.0, math.pi / 2.0, 3.0 * math.pi / 2.0)
        assert maximal_free_angle_delta(beta_diffs=diffs) == pytest.approx(
            2.0, abs=1e-12
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"beta_diffs": (0.1,) * 4, "delta_diffs": (0.1,) * 4},
            {"beta_diffs": (0.1, 0.2, 0.3)},
            {"delta_diffs": (0.1,) * 5},
            {"beta_diffs": [1, 2, "x", 4]},
            {"beta_diffs": 5},
            {"beta_diffs": [1, 2, float("nan"), 4]},
            {"delta_diffs": [1, 2, float("inf"), 4]},
        ],
    )
    def test_rejects_bad_arguments(self, kwargs):
        with pytest.raises(DomainError):
            maximal_free_angle_delta(**kwargs)

    @given(a1=angles, a2=angles, b1=angles, b2=angles)
    @settings(max_examples=300, deadline=None)
    def test_setting_derived_differences_respect_tsirelson(self, a1, a2, b1, b2):
        diffs = (a1 - b1, a1 - b2, a2 - b1, a2 - b2)
        assert maximal_free_angle_delta(beta_diffs=diffs) <= 2.0 * SQRT2 + 1e-9
        assert maximal_free_angle_delta(delta_diffs=diffs) <= 2.0 * SQRT2 + 1e-9

    @given(a1=angles, a2=angles, b1=angles, b2=angles)
    @settings(max_examples=200, deadline=None)
    def test_beta_mode_matches_full_evaluation(self, a1, a2, b1, b2):
        config = ExperimentConfig(
            state=make_state(0.5),
            d11=MeasurementSetting(a1),
            d12=MeasurementSetting(a2),
            d21=MeasurementSetting(b1),
            d22=MeasurementSetting(b2),
        )
        diffs = (a1 - b1, a1 - b2, a2 - b1, a2 - b2)
        assert evaluate(config).delta == pytest.approx(
            maximal_free_angle_delta(beta_diffs=diffs), abs=1e-12
        )

    @given(a1=angles, a2=angles, b1=angles, b2=angles)
    @settings(max_examples=200, deadline=None)
    def test_delta_mode_matches_full_evaluation(self, a1, a2, b1, b2):
        quarter = math.pi / 4.0
        config = ExperimentConfig(
            state=make_state(0.5),
            d11=MeasurementSetting(quarter, a1),
            d12=MeasurementSetting(quarter, a2),
            d21=MeasurementSetting(quarter, b1),
            d22=MeasurementSetting(quarter, b2),
        )
        diffs = (a1 - b1, a1 - b2, a2 - b1, a2 - b2)
        assert evaluate(config).delta == pytest.approx(
            maximal_free_angle_delta(delta_diffs=diffs), abs=1e-12
        )
