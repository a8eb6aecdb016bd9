"""Hardy zero conditions: solving, checking, variants, and the
maximal-entanglement obstruction."""

import dataclasses
import math
from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hardylab.correlations import correlation, joint_distribution, pair_distributions
from hardylab.hardy import (
    DegenerateBeta0,
    HardyVariant,
    NotPartiallyEntangled,
    check_hardy,
    hardy_inequality_lhs_rhs,
    maximal_entanglement_forcing,
    solve_hardy,
    solve_vanishing_condition,
)
from hardylab.qstate import ZERO_TOL, DomainError, MeasurementSetting, make_state

# Frozen golden solution for c1^2 = 0.3, beta0 = 40 deg.
GOLDEN_BETA11_DEG = 62.944256871428834
GOLDEN_BETA21_DEG = -37.960851281300684
GOLDEN_BETA22_DEG = -18.48815056064918
GOLDEN_P_HARDY = 0.05170426184374023

partial_c1sq = st.floats(min_value=0.01, max_value=0.99).filter(
    lambda x: abs(x - 0.5) > 1e-3
)
beta0_values = st.floats(min_value=0.05, max_value=math.pi / 2.0 - 0.05)
signs = st.sampled_from((1, -1))
variants = st.sampled_from(list(HardyVariant))


def _solution(c1_squared=0.3, beta0_deg=40.0, variant=HardyVariant.CANONICAL, **kwargs):
    return solve_hardy(make_state(c1_squared, **kwargs), math.radians(beta0_deg), variant)


class TestSolveGolden:
    def test_angles(self):
        solution = _solution()
        assert math.degrees(solution.beta11) == pytest.approx(GOLDEN_BETA11_DEG, abs=1e-11)
        assert math.degrees(solution.beta12) == pytest.approx(40.0, abs=0)
        assert math.degrees(solution.beta21) == pytest.approx(GOLDEN_BETA21_DEG, abs=1e-11)
        assert math.degrees(solution.beta22) == pytest.approx(GOLDEN_BETA22_DEG, abs=1e-11)
        assert solution.deltas == (0.0, 0.0, 0.0, 0.0)

    def test_probability(self):
        assert _solution().hardy_probability() == pytest.approx(GOLDEN_P_HARDY, abs=1e-15)

    def test_check_satisfied(self):
        check = check_hardy(_solution().config())
        assert check.satisfied
        assert max(check.p_a, check.p_b, check.p_c) <= ZERO_TOL
        assert check.p_d == pytest.approx(GOLDEN_P_HARDY, abs=1e-15)


class TestSolveErrors:
    def test_maximally_entangled(self):
        with pytest.raises(NotPartiallyEntangled, match="maximally entangled state"):
            solve_hardy(make_state(0.5), 0.3)

    @pytest.mark.parametrize("c1_squared", [0.0, 1.0])
    def test_product(self, c1_squared):
        with pytest.raises(NotPartiallyEntangled, match="product state"):
            solve_hardy(make_state(c1_squared), 0.3)

    @pytest.mark.parametrize("beta0", [0.0, math.pi / 2.0, math.pi, -math.pi / 2.0, 4e-10])
    def test_degenerate_beta0(self, beta0):
        with pytest.raises(DegenerateBeta0):
            solve_hardy(make_state(0.3), beta0)

    def test_non_finite_beta0(self):
        with pytest.raises(DomainError):
            solve_hardy(make_state(0.3), float("nan"))

    @pytest.mark.parametrize("beta0", ["x", None, 1j, "40", b"1", Decimal("40")])
    def test_non_numeric_beta0(self, beta0):
        with pytest.raises(DomainError, match="beta0 must be a real number"):
            solve_hardy(make_state(0.3), beta0)


class TestVanishingCondition:
    def test_returns_negated_ratio(self):
        assert solve_vanishing_condition(0.75) == -0.75
        assert solve_vanishing_condition(-2.0) == 2.0

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            solve_vanishing_condition(float("inf"))

    @pytest.mark.parametrize("ratio", ["2", b"2", Decimal("2")], ids=["str", "bytes", "decimal"])
    def test_rejects_non_real(self, ratio):
        with pytest.raises(DomainError, match="ratio must be a real number"):
            solve_vanishing_condition(ratio)

    @given(
        c1_squared=partial_c1sq, s1=signs, s2=signs,
        beta1=st.floats(min_value=0.1, max_value=1.47),
        flip=signs,
    )
    @settings(max_examples=200, deadline=None)
    def test_root_kills_probability(self, c1_squared, s1, s2, beta1, flip):
        state = make_state(c1_squared, sign_c1=s1, sign_c2=s2)
        beta1 = flip * beta1
        product = solve_vanishing_condition(state.c1 / state.c2)
        beta2 = math.atan(product / math.tan(beta1))
        dist = joint_distribution(
            state, MeasurementSetting(beta1), MeasurementSetting(beta2)
        )
        assert dist.probability(1, 1) <= 1e-12


def _tangent_residual(beta, num, den):
    """How far tan(beta) = num / den is from holding, in the cross-multiplied
    form sin(beta) den - num cos(beta), relative to |num| + |den|.

    Comparing tan(beta) itself is ill-conditioned near pi/2, where tan
    magnifies the angle's round-off by about |tan(beta)|.
    """
    return abs(math.sin(beta) * den - num * math.cos(beta)) / (abs(num) + abs(den))


class TestChainIdentities:
    @given(c1_squared=partial_c1sq, beta0=beta0_values, s1=signs, s2=signs)
    @example(c1_squared=0.9899999999999999, beta0=0.0625, s1=1, s2=1)  # tan(beta22) ~ -1.57e4
    @settings(max_examples=300, deadline=None)
    def test_tangent_relations(self, c1_squared, beta0, s1, s2):
        state = make_state(c1_squared, sign_c1=s1, sign_c2=s2)
        solution = solve_hardy(state, beta0)
        ratio = state.c1 / state.c2
        tan0 = math.tan(beta0)
        assert _tangent_residual(solution.beta11, tan0, ratio**2) <= 1e-12
        assert _tangent_residual(solution.beta21, -ratio, tan0) <= 1e-12
        assert _tangent_residual(solution.beta22, -(ratio**3), tan0) <= 1e-12
        assert solution.beta12 == beta0

    @given(c1_squared=partial_c1sq, beta0=beta0_values, s1=signs, s2=signs)
    @settings(max_examples=300, deadline=None)
    def test_zero_conditions_hold(self, c1_squared, beta0, s1, s2):
        solution = solve_hardy(make_state(c1_squared, sign_c1=s1, sign_c2=s2), beta0)
        check = check_hardy(solution.config())
        assert max(check.p_a, check.p_b, check.p_c) <= ZERO_TOL
        assert check.p_d > ZERO_TOL
        assert check.satisfied


class TestVariants:
    @given(c1_squared=partial_c1sq, beta0=beta0_values, variant=variants)
    @settings(max_examples=200, deadline=None)
    def test_each_variant_satisfies_its_own_check(self, c1_squared, beta0, variant):
        solution = solve_hardy(make_state(c1_squared), beta0, variant)
        assert check_hardy(solution.config(), variant).satisfied

    def test_sign_factors(self):
        assert HardyVariant.CANONICAL.sign_factors == (1, 1)
        assert HardyVariant.ALL_FLIPPED.sign_factors == (-1, -1)
        assert HardyVariant.PARTICLE1_FLIPPED.sign_factors == (-1, 1)
        assert HardyVariant.PARTICLE2_FLIPPED.sign_factors == (1, -1)

    def test_particle1_flipped_conditions_verbatim(self):
        # relabeled conditions: P(D11=+1, D21=-1) = 0, P(D11=-1, D22=+1) = 0,
        # P(D12=-1, D21=+1) = 0, P(D12=-1, D22=+1) > 0
        solution = _solution(variant=HardyVariant.PARTICLE1_FLIPPED)
        config = solution.config()
        state = config.state
        assert joint_distribution(state, config.d11, config.d21).probability(1, -1) <= 1e-12
        assert joint_distribution(state, config.d11, config.d22).probability(-1, 1) <= 1e-12
        assert joint_distribution(state, config.d12, config.d21).probability(-1, 1) <= 1e-12
        assert joint_distribution(state, config.d12, config.d22).probability(-1, 1) > 1e-3

    def test_flipped_config_fails_canonical_check(self):
        solution = _solution(variant=HardyVariant.PARTICLE1_FLIPPED)
        assert not check_hardy(solution.config(), HardyVariant.CANONICAL).satisfied

    @pytest.mark.parametrize("variant", list(HardyVariant))
    def test_accepts_the_variant_value(self, variant):
        by_value = solve_hardy(make_state(0.3), 0.7, variant.value)
        assert by_value.variant is variant
        assert dataclasses.replace(by_value, variant=variant.value).variant is variant
        config = by_value.config()
        assert config == solve_hardy(make_state(0.3), 0.7, variant).config()
        assert check_hardy(config, variant.value) == check_hardy(config, variant)

    @pytest.mark.parametrize("variant", ["bogus", "CANONICAL", None, 1, [1]])
    def test_rejects_unknown_variant(self, variant):
        with pytest.raises(DomainError, match="unknown Hardy variant"):
            solve_hardy(make_state(0.3), 0.7, variant)
        with pytest.raises(DomainError, match="unknown Hardy variant"):
            check_hardy(_solution().config(), variant)
        with pytest.raises(DomainError, match="unknown Hardy variant"):
            dataclasses.replace(_solution(), variant=variant)

    def test_variant_probability_equals_canonical(self):
        canonical = _solution().hardy_probability()
        for variant in HardyVariant:
            assert _solution(variant=variant).hardy_probability() == pytest.approx(
                canonical, abs=1e-12
            )


class TestCheckHardy:
    def test_rejects_bad_tolerance(self):
        for zero_tol in (0.0, float("nan"), float("inf")):
            with pytest.raises(DomainError, match="zero_tol"):
                check_hardy(_solution().config(), zero_tol=zero_tol)

    @pytest.mark.parametrize("variant", list(HardyVariant))
    def test_reads_documented_pair_entries(self, variant):
        config = _solution(variant=variant).config()
        f1, f2 = variant.sign_factors
        first, second, third, fourth = pair_distributions(config)
        check = check_hardy(config, variant)
        assert (check.p_a, check.p_b, check.p_c, check.p_d) == (
            first.probability(-f1, -f2),
            second.probability(f1, f2),
            third.probability(f1, f2),
            fourth.probability(f1, f2),
        )

    def test_unsatisfied_config(self):
        config = _solution().config()
        nudged = type(config)(
            state=config.state,
            d11=MeasurementSetting(config.d11.beta + 0.2),
            d12=config.d12,
            d21=config.d21,
            d22=config.d22,
        )
        assert not check_hardy(nudged).satisfied


class TestMaximalEntanglementForcing:
    @staticmethod
    def _angles(beta11):
        beta21 = math.atan(-1.0 / math.tan(beta11))
        return beta11, beta11, beta21, beta21  # beta12 = beta11, beta22 = beta21

    def test_forced_to_minus_one(self):
        beta11, beta12, beta21, beta22 = self._angles(0.6)
        forced = maximal_entanglement_forcing(make_state(0.5), beta11, beta12, beta21, beta22)
        assert forced == pytest.approx(-1.0, abs=1e-12)

    def test_fourth_probability_dies(self):
        beta11, beta12, beta21, beta22 = self._angles(0.6)
        state = make_state(0.5)
        dist = joint_distribution(
            state, MeasurementSetting(beta12), MeasurementSetting(beta22)
        )
        assert dist.probability(1, 1) <= 1e-12
        assert correlation(
            state, MeasurementSetting(beta12), MeasurementSetting(beta22)
        ) == pytest.approx(-1.0, abs=1e-12)

    def test_rejects_partial_state(self):
        beta11, beta12, beta21, beta22 = self._angles(0.6)
        with pytest.raises(DomainError, match="not maximally entangled"):
            maximal_entanglement_forcing(make_state(0.3), beta11, beta12, beta21, beta22)

    def test_rejects_mixed_signs(self):
        beta11, beta12, beta21, beta22 = self._angles(0.6)
        with pytest.raises(DomainError, match="same sign"):
            maximal_entanglement_forcing(
                make_state(0.5, sign_c1=-1), beta11, beta12, beta21, beta22
            )

    def test_rejects_broken_precondition(self):
        with pytest.raises(DomainError, match="precondition failed"):
            maximal_entanglement_forcing(make_state(0.5), 0.6, 0.6, 0.7, 0.7)

    @pytest.mark.parametrize(
        "angles,tol,message",
        [
            ((math.nan,) * 4, 1e-9, "beta11 must be finite"),
            ((0.6, math.inf, 0.6, 0.6), 1e-9, "beta12 must be finite"),
            ((0.6, 0.6, -math.inf, 0.6), 1e-9, "beta21 must be finite"),
            ((0.6, 0.6, 0.6, math.nan), 1e-9, "beta22 must be finite"),
            (None, math.nan, "tol must be finite"),
            (None, math.inf, "tol must be finite"),
            (None, 0.0, "tol must be positive"),
            (None, -1.0, "tol must be positive"),
        ],
    )
    def test_rejects_non_finite_input(self, angles, tol, message):
        angles = angles or self._angles(0.6)
        with pytest.raises(DomainError, match=message):
            maximal_entanglement_forcing(make_state(0.5), *angles, tol=tol)


class TestInequalityDecomposition:
    def test_solved_config_violates(self):
        config = _solution().config()
        lhs, rhs = hardy_inequality_lhs_rhs(config)
        assert lhs == pytest.approx(GOLDEN_P_HARDY, abs=1e-15)
        assert rhs <= 3.0 * ZERO_TOL
        assert lhs > rhs

    def test_matches_check_probabilities(self):
        config = _solution().config()
        check = check_hardy(config)
        lhs, rhs = hardy_inequality_lhs_rhs(config)
        assert lhs == check.p_d
        assert rhs == check.p_a + check.p_b + check.p_c

    def test_forced_maximal_config_respects_bound(self):
        beta11, beta12, beta21, beta22 = TestMaximalEntanglementForcing._angles(0.6)
        config = type(_solution().config())(
            state=make_state(0.5),
            d11=MeasurementSetting(beta11),
            d12=MeasurementSetting(beta12),
            d21=MeasurementSetting(beta21),
            d22=MeasurementSetting(beta22),
        )
        lhs, rhs = hardy_inequality_lhs_rhs(config)
        assert lhs <= rhs + 1e-12
