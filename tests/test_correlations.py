"""Joint probabilities and correlations against the state-vector oracle."""

import dataclasses
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hardylab.correlations as correlations_module
from hardylab.chsh import delta_from_probabilities
from hardylab.correlations import (
    CorrelationSet,
    JointDistribution,
    PerfectCorrelation,
    batch_correlation,
    batch_probabilities,
    correlation,
    correlation_set,
    is_perfectly_correlated,
    joint_distribution,
    pair_distributions,
    _pair_tables,
)
from hardylab.hardy import HardyVariant, check_hardy, hardy_inequality_lhs_rhs, solve_hardy
from hardylab.qstate import (
    OUTCOME_ORDER,
    PAIR_ORDER,
    ROUNDING_TOL,
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

    @pytest.mark.parametrize("index", range(4))
    def test_rejects_nan(self, index):
        entries = [0.5, 0.5, 0.0, 0.0]
        entries[index] = math.nan
        with pytest.raises(ValueError, match="is not a probability"):
            JointDistribution(*entries)

    def test_keeps_signed_zero_and_exact_messages(self):
        dist = JointDistribution(-0.0, 1, 0.0, 0.0)
        assert math.copysign(1.0, dist.p_pp) == -1.0
        assert type(dist.p_mm) is float
        clamped = JointDistribution(-0.5 * ROUNDING_TOL, 1.0 + 0.5 * ROUNDING_TOL, 0.0, 0.0)
        assert (math.copysign(1.0, clamped.p_pp), clamped.p_mm) == (1.0, 1.0)
        message = "internal error: p_mm = -0.1 is not a probability"
        with pytest.raises(ValueError, match=re.escape(message)):
            JointDistribution(0.5, -0.1, 1.1, 0.0)
        message = "internal error: probabilities sum to 1 5.000e-01 off"
        with pytest.raises(ValueError, match=re.escape(message)):
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

    @pytest.mark.parametrize("index", range(4))
    def test_rejects_nan(self, index):
        entries = [0.0, 0.0, 0.0, 0.0]
        entries[index] = math.nan
        with pytest.raises(ValueError, match="exceeds 1"):
            CorrelationSet(*entries)


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
        # The scalar path feeds the shared kernels math trig and the batch
        # functions feed them numpy trig. They agree bit for bit where libm
        # and numpy's trig do; 4e-16 allows the last ulp on other CPUs.
        rng = np.random.default_rng(20240601)
        configs = [
            ExperimentConfig(
                make_state(
                    float(rng.uniform(0.0, 1.0)),
                    sign_c1=int(rng.choice((1, -1))),
                    sign_c2=int(rng.choice((1, -1))),
                ),
                *(
                    MeasurementSetting(*rng.uniform(-2.0 * math.pi, 2.0 * math.pi, 2))
                    for _ in range(4)
                ),
            )
            for _ in range(2000)
        ]
        tables = [pair_distributions(config) for config in configs]
        assert all(len(table) == 4 for table in tables)
        c1 = np.array([config.state.c1 for config in configs])
        c2 = np.array([config.state.c2 for config in configs])
        for index, (k, l) in enumerate(PAIR_ORDER):
            s1, s2 = zip(*(config.pair(k, l) for config in configs))
            beta1, delta1 = np.array([(s.beta, s.delta) for s in s1]).T
            beta2, delta2 = np.array([(s.beta, s.delta) for s in s2]).T
            reference = oracle_probabilities(c1, c2, beta1, delta1, beta2, delta2)
            batch = dict(
                zip(
                    ((1, 1), (-1, -1), (1, -1), (-1, 1)),
                    batch_probabilities(c1, c2, beta1, beta2, delta1 - delta2),
                )
            )
            for outcome in OUTCOME_ORDER:
                scalar = np.array([table[index].probability(*outcome) for table in tables])
                assert np.max(np.abs(scalar - reference[outcome])) <= 1e-12
                assert np.max(np.abs(scalar - batch[outcome])) <= 4e-16
            scalar_e = np.array(
                [correlation(config.state, a, b) for config, a, b in zip(configs, s1, s2)]
            )
            batch_e = batch_correlation(c1, c2, beta1, beta2, delta1 - delta2)
            assert np.max(np.abs(scalar_e - batch_e)) <= 4e-16

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


def _seeded_configs(count, seed):
    """Configs built one at a time: Hardy-solved ones for every variant
    and random ones with coefficient signs and phases."""
    rng = np.random.default_rng(seed)
    variants = list(HardyVariant)
    for index in range(count):
        state = make_state(
            float(rng.uniform(0.02, 0.98)),
            sign_c1=int(rng.choice((1, -1))),
            sign_c2=int(rng.choice((1, -1))),
        )
        if index % 2:
            yield ExperimentConfig(
                state,
                *(MeasurementSetting(*rng.uniform(-2.0 * math.pi, 2.0 * math.pi, 2))
                  for _ in range(4)),
            )
        elif abs(state.c1_squared - 0.5) > 1e-3:
            beta0 = float(rng.uniform(0.02, math.pi / 2.0 - 0.02))
            yield solve_hardy(state, beta0, variants[index // 2 % 4]).config()


def _hex(table):
    return [value.hex() for value in table]


class TestPairTables:
    def test_equal_joint_distribution_bit_for_bit(self):
        # Each config is dropped before the next is built, so a cache
        # keyed by object id would hand a new config a stale table.
        checked = 0
        for config in _seeded_configs(2000, 20240602):
            tables = _pair_tables(config)
            expected = [
                joint_distribution(config.state, *config.pair(k, l)) for k, l in PAIR_ORDER
            ]
            assert [_hex(table) for table in tables] == [
                _hex(dataclasses.astuple(dist)) for dist in expected
            ]
            first, second, third, fourth = expected
            for variant in HardyVariant:
                f1, f2 = variant.sign_factors
                check = check_hardy(config, variant)
                assert _hex((check.p_a, check.p_b, check.p_c, check.p_d)) == _hex((
                    first.probability(-f1, -f2),
                    second.probability(f1, f2),
                    third.probability(f1, f2),
                    fourth.probability(f1, f2),
                ))
            checked += 1
        assert checked > 1900

    def test_computed_once_per_config(self, monkeypatch):
        calls = []
        kernel = correlations_module._probability_kernel

        def counting(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(correlations_module, "_probability_kernel", counting)
        first, second = _seeded_configs(2, 7)
        for config in (first, second, first, second):
            check_hardy(config)
            hardy_inequality_lhs_rhs(config)
            delta_from_probabilities(config)
            pair_distributions(config)
            for variant in HardyVariant:
                check_hardy(config, variant)
        assert len(calls) == 8

    def test_cache_is_invisible(self):
        config, twin = (next(_seeded_configs(1, 11)) for _ in range(2))
        assert config is not twin

        def observed():
            return config == twin, hash(config), repr(config), pickle.dumps(config)

        before = observed()
        tables = _pair_tables(config)
        assert observed() == before
        assert all(type(table) is tuple for table in tables)
        copy = pickle.loads(pickle.dumps(config))
        assert copy == config and _pair_tables(copy) == tables
        moved = dataclasses.replace(config, d11=MeasurementSetting(config.d11.beta + 0.3))
        assert _pair_tables(moved) == tuple(
            dataclasses.astuple(joint_distribution(moved.state, *moved.pair(k, l)))
            for k, l in PAIR_ORDER
        )
        assert _pair_tables(moved)[0] != tables[0]

    def test_cached_tables_are_checked(self, monkeypatch):
        monkeypatch.setattr(
            correlations_module, "_probability_kernel", lambda *args: (0.5, 0.5, 0.5, 0.0)
        )
        config = next(_seeded_configs(1, 3))
        with pytest.raises(ValueError, match="probabilities sum to 1"):
            check_hardy(config)
