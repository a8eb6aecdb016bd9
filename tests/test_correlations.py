"""Joint probabilities and correlations against the state-vector oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab.correlations import (
    CorrelationSet,
    JointDistribution,
    PerfectCorrelation,
    ROUNDING_TOL,
    batch_correlation,
    batch_probabilities,
    correlation,
    correlation_set,
    is_perfectly_correlated,
    joint_distribution,
    pair_distributions,
)
from hardylab.qstate import (
    OUTCOME_ORDER,
    DomainError,
    ExperimentConfig,
    MeasurementSetting,
    make_state,
)

from oracles import oracle_correlation, oracle_probabilities

# Frozen golden values for c1^2 = 0.3, beta1 = 0.2, delta1 = 0.4,
# beta2 = 1.1, delta2 = 0.
GOLDEN_STATE = make_state(0.3)
GOLDEN_S1 = MeasurementSetting(0.2, 0.4)
GOLDEN_S2 = MeasurementSetting(1.1, 0.0)
GOLDEN_P = {
    (1, 1): 0.14767769195631159,
    (1, -1): 0.1681101092431114,
    (-1, 1): 0.4700225314947576,
    (-1, -1): 0.21418966730581945,
}
GOLDEN_E = -0.276265281475738

angles = st.floats(min_value=-2.0 * math.pi, max_value=2.0 * math.pi)
weights = st.floats(min_value=0.0, max_value=1.0)
signs = st.sampled_from((1, -1))


class TestGoldenValues:
    def test_joint_distribution(self):
        dist = joint_distribution(GOLDEN_STATE, GOLDEN_S1, GOLDEN_S2)
        for outcome, want in GOLDEN_P.items():
            assert dist.probability(*outcome) == pytest.approx(want, abs=1e-15)

    def test_correlation(self):
        value = correlation(GOLDEN_STATE, GOLDEN_S1, GOLDEN_S2)
        assert value == pytest.approx(GOLDEN_E, abs=1e-15)

    def test_expectation_property_matches(self):
        dist = joint_distribution(GOLDEN_STATE, GOLDEN_S1, GOLDEN_S2)
        assert dist.expectation == pytest.approx(GOLDEN_E, abs=1e-14)

    def test_correlation_set(self):
        config = ExperimentConfig(
            state=GOLDEN_STATE,
            d11=GOLDEN_S1,
            d12=MeasurementSetting(0.9),
            d21=GOLDEN_S2,
            d22=MeasurementSetting(-0.3),
        )
        correlations = correlation_set(config)
        assert correlations.e11 == pytest.approx(GOLDEN_E, abs=1e-15)
        assert correlations.e21 == pytest.approx(
            correlation(GOLDEN_STATE, config.d12, GOLDEN_S2), abs=0
        )


class TestOracleAgreement:
    @given(
        c1_squared=weights, s1=signs, s2=signs,
        beta1=angles, delta1=angles, beta2=angles, delta2=angles,
    )
    @settings(max_examples=300, deadline=None)
    def test_probabilities_match_amplitudes(
        self, c1_squared, s1, s2, beta1, delta1, beta2, delta2
    ):
        state = make_state(c1_squared, sign_c1=s1, sign_c2=s2)
        dist = joint_distribution(
            state, MeasurementSetting(beta1, delta1), MeasurementSetting(beta2, delta2)
        )
        reference = oracle_probabilities(state.c1, state.c2, beta1, delta1, beta2, delta2)
        for outcome in GOLDEN_P:
            assert dist.probability(*outcome) == pytest.approx(
                float(reference[outcome]), abs=1e-12
            )

    @given(
        c1_squared=weights, s1=signs, s2=signs,
        beta1=angles, delta1=angles, beta2=angles, delta2=angles,
    )
    @settings(max_examples=300, deadline=None)
    def test_correlation_matches_amplitudes(
        self, c1_squared, s1, s2, beta1, delta1, beta2, delta2
    ):
        state = make_state(c1_squared, sign_c1=s1, sign_c2=s2)
        value = correlation(
            state, MeasurementSetting(beta1, delta1), MeasurementSetting(beta2, delta2)
        )
        want = float(oracle_correlation(state.c1, state.c2, beta1, delta1, beta2, delta2))
        assert value == pytest.approx(want, abs=1e-12)


class TestInvariants:
    @given(c1_squared=weights, beta1=angles, beta2=angles, delta12=angles)
    @settings(max_examples=300, deadline=None)
    def test_probabilities_sum_to_one(self, c1_squared, beta1, beta2, delta12):
        state = make_state(c1_squared)
        p = batch_probabilities(state.c1, state.c2, beta1, beta2, delta12)
        assert abs(float(sum(p)) - 1.0) <= 1e-12
        assert all(-1e-12 <= float(v) <= 1.0 + 1e-12 for v in p)

    @given(c1_squared=weights, beta1=angles, beta2=angles, delta12=angles)
    @settings(max_examples=200, deadline=None)
    def test_beta_shift_by_pi(self, c1_squared, beta1, beta2, delta12):
        # both eigenvectors flip sign under beta -> beta + pi
        state = make_state(c1_squared)
        base = batch_probabilities(state.c1, state.c2, beta1, beta2, delta12)
        shifted = batch_probabilities(state.c1, state.c2, beta1 + math.pi, beta2, delta12)
        for a, b in zip(base, shifted):
            assert float(a) == pytest.approx(float(b), abs=1e-12)

    @given(
        c1_squared=weights, beta1=angles, beta2=angles,
        delta1=angles, delta2=angles, shift=angles,
    )
    @settings(max_examples=200, deadline=None)
    def test_only_phase_difference_matters(
        self, c1_squared, beta1, beta2, delta1, delta2, shift
    ):
        state = make_state(c1_squared)
        base = joint_distribution(
            state, MeasurementSetting(beta1, delta1), MeasurementSetting(beta2, delta2)
        )
        moved = joint_distribution(
            state,
            MeasurementSetting(beta1, delta1 + shift),
            MeasurementSetting(beta2, delta2 + shift),
        )
        for outcome in GOLDEN_P:
            assert base.probability(*outcome) == pytest.approx(
                moved.probability(*outcome), abs=1e-12
            )

    @given(c1_squared=weights, s1=signs, beta1=angles, beta2=angles, delta12=angles)
    @settings(max_examples=300, deadline=None)
    def test_expectation_bounded(self, c1_squared, s1, beta1, beta2, delta12):
        state = make_state(c1_squared, sign_c1=s1)
        value = float(
            batch_correlation(state.c1, state.c2, beta1, beta2, delta12)
        )
        assert abs(value) <= 1.0 + 1e-12
        CorrelationSet(value, 0.0, 0.0, 0.0)  # accepts without complaint

    def test_batch_broadcasting(self):
        state = make_state(0.3)
        beta1 = np.linspace(-1.0, 1.0, 7)
        p = batch_probabilities(state.c1, state.c2, beta1, 0.4, 0.0)
        assert p[0].shape == (7,)
        scalar = batch_probabilities(state.c1, state.c2, float(beta1[3]), 0.4, 0.0)
        assert float(p[0][3]) == pytest.approx(float(scalar[0]), abs=0)


class TestJointDistribution:
    def test_clamps_rounding_residue(self):
        dist = JointDistribution(1.0 + 0.5 * ROUNDING_TOL, -0.5 * ROUNDING_TOL, 0.0, 0.0)
        assert dist.p_pp == 1.0
        assert dist.p_mm == 0.0

    def test_rejects_non_probability(self):
        with pytest.raises(ValueError, match="internal error"):
            JointDistribution(1.1, -0.1, 0.0, 0.0)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="internal error"):
            JointDistribution(0.5, 0.5, 0.5, 0.0)

    def test_probability_validates_outcomes(self):
        dist = JointDistribution(0.25, 0.25, 0.25, 0.25)
        with pytest.raises(DomainError, match="outcomes"):
            dist.probability(0, 1)

    def test_equal_outcome_and_expectation(self):
        dist = JointDistribution(0.4, 0.3, 0.2, 0.1)
        assert dist.equal_outcome == pytest.approx(0.7, abs=1e-15)
        assert dist.expectation == pytest.approx(0.4, abs=1e-15)


class TestCorrelationSet:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="internal error"):
            CorrelationSet(1.001, 0.0, 0.0, 0.0)


class TestPerfectCorrelation:
    def test_correlated(self):
        state = make_state(0.3)
        aligned = MeasurementSetting(0.0)
        assert (
            is_perfectly_correlated(state, aligned, aligned)
            is PerfectCorrelation.CORRELATED
        )

    def test_anticorrelated(self):
        state = make_state(0.5)
        s1 = MeasurementSetting(math.pi / 4.0, math.pi)
        s2 = MeasurementSetting(math.pi / 4.0, 0.0)
        assert (
            is_perfectly_correlated(state, s1, s2)
            is PerfectCorrelation.ANTICORRELATED
        )

    def test_neither(self):
        assert is_perfectly_correlated(GOLDEN_STATE, GOLDEN_S1, GOLDEN_S2) is None

    def test_rejects_bad_tolerance(self):
        for tol in (0.0, float("nan"), float("inf")):
            with pytest.raises(DomainError, match="tol"):
                is_perfectly_correlated(GOLDEN_STATE, GOLDEN_S1, GOLDEN_S2, tol=tol)


class TestPairDistributions:
    def test_match_amplitudes_on_seeded_configs(self):
        rng = np.random.default_rng(20240601)
        for _ in range(200):
            state = make_state(
                float(rng.uniform(0.0, 1.0)),
                sign_c1=int(rng.choice((1, -1))),
                sign_c2=int(rng.choice((1, -1))),
            )
            d11, d12, d21, d22 = (
                MeasurementSetting(*rng.uniform(-2.0 * math.pi, 2.0 * math.pi, 2))
                for _ in range(4)
            )
            config = ExperimentConfig(state=state, d11=d11, d12=d12, d21=d21, d22=d22)
            pairs = ((d11, d21), (d11, d22), (d12, d21), (d12, d22))
            distributions = pair_distributions(config)
            assert len(distributions) == 4
            for dist, (s1, s2) in zip(distributions, pairs):
                reference = oracle_probabilities(
                    state.c1, state.c2, s1.beta, s1.delta, s2.beta, s2.delta
                )
                for outcome in OUTCOME_ORDER:
                    assert dist.probability(*outcome) == pytest.approx(
                        float(reference[outcome]), abs=1e-12
                    )

    def test_equal_scalar_calls_bit_for_bit(self):
        config = ExperimentConfig(
            state=GOLDEN_STATE, d11=GOLDEN_S1, d12=GOLDEN_S2, d21=GOLDEN_S2, d22=GOLDEN_S1
        )
        expected = tuple(
            joint_distribution(GOLDEN_STATE, s1, s2)
            for s1, s2 in ((GOLDEN_S1, GOLDEN_S2), (GOLDEN_S1, GOLDEN_S1),
                           (GOLDEN_S2, GOLDEN_S2), (GOLDEN_S2, GOLDEN_S1))
        )
        assert pair_distributions(config) == expected
