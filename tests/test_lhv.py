"""Local hidden-variable strategies: exact probabilities, seeded trials,
the forcing argument, polytope membership, and strategy-file parsing."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab.lhv import (
    ALL_ASSIGNMENTS,
    OUTCOME_ORDER,
    PAIR_ORDER,
    DeterministicAssignment,
    MixtureStrategy,
    StochasticStrategy,
    TrialTally,
    is_locally_realizable,
    lhv_joint_probability,
    local_realism_forcing,
    simulate,
    strategy_from_text,
)
from hardylab.qstate import DomainError
from oracles import CORRELATION_VERTICES, random_local_mixture, vertex_hull_membership

PPMM = DeterministicAssignment(1, 1, -1, -1)
MMPP = DeterministicAssignment(-1, -1, 1, 1)
ANTICORRELATED = MixtureStrategy(
    components=((Fraction(1, 2), PPMM), (Fraction(1, 2), MMPP))
)

grid_values = st.integers(min_value=-10, max_value=10).map(lambda k: Fraction(k, 8))


def _correlation_from_joints(strategy, pair):
    return sum(
        m * n * lhv_joint_probability(strategy, pair, (m, n)) for m, n in OUTCOME_ORDER
    )


class TestDeterministicAssignment:
    def test_sixteen_distinct_assignments(self):
        assert len(ALL_ASSIGNMENTS) == 16
        assert len({a.label for a in ALL_ASSIGNMENTS}) == 16
        assert ALL_ASSIGNMENTS[0].label == "pppp"
        assert ALL_ASSIGNMENTS[-1].label == "mmmm"

    def test_every_assignment_saturates_chsh(self):
        for assignment in ALL_ASSIGNMENTS:
            assert assignment.chsh_combination() in (-2, 2)
            assert assignment.chsh_value() == 2

    def test_outcome_lookup(self):
        assignment = DeterministicAssignment(1, -1, -1, 1)
        assert assignment.outcome(1, 1) == 1
        assert assignment.outcome(1, 2) == -1
        assert assignment.outcome(2, 1) == -1
        assert assignment.outcome(2, 2) == 1

    @pytest.mark.parametrize("particle,setting", [(0, 1), (1, 3), (3, 1), (2, 0)])
    def test_outcome_rejects_bad_indices(self, particle, setting):
        with pytest.raises(DomainError, match="indices must be 1 or 2"):
            PPMM.outcome(particle, setting)

    def test_rejects_bad_outcome_values(self):
        with pytest.raises(DomainError, match="must be \\+1 or -1"):
            DeterministicAssignment(1, 1, 1, 0)


class TestMixtureStrategy:
    def test_fraction_weights_survive_untouched(self):
        for weight, _ in ANTICORRELATED.components:
            assert isinstance(weight, Fraction)
            assert weight == Fraction(1, 2)

    def test_rejects_negative_weight(self):
        with pytest.raises(DomainError, match="negative weight"):
            MixtureStrategy(components=((-0.5, PPMM), (1.5, MMPP)))

    def test_rejects_nan_weight(self):
        with pytest.raises(DomainError, match="NaN"):
            MixtureStrategy(components=((math.nan, PPMM), (1.0, MMPP)))

    def test_rejects_bad_total(self):
        with pytest.raises(DomainError, match="weights sum to"):
            MixtureStrategy(components=((0.5, PPMM), (0.4, MMPP)))

    def test_rejects_non_assignment(self):
        with pytest.raises(DomainError, match="not an assignment"):
            MixtureStrategy(components=((1.0, "ppmm"),))

    def test_exact_anticorrelated_joints(self):
        for pair in PAIR_ORDER:
            p_pp = lhv_joint_probability(ANTICORRELATED, pair, (1, 1))
            p_pm = lhv_joint_probability(ANTICORRELATED, pair, (1, -1))
            p_mp = lhv_joint_probability(ANTICORRELATED, pair, (-1, 1))
            p_mm = lhv_joint_probability(ANTICORRELATED, pair, (-1, -1))
            assert (p_pp, p_pm, p_mp, p_mm) == (
                0,
                Fraction(1, 2),
                Fraction(1, 2),
                0,
            )
            assert isinstance(p_pm, Fraction)
            assert _correlation_from_joints(ANTICORRELATED, pair) == Fraction(-1)

    def test_hand_computed_mixture(self):
        strategy = MixtureStrategy(
            components=(
                (Fraction(1, 3), DeterministicAssignment(1, 1, 1, 1)),
                (Fraction(2, 3), DeterministicAssignment(-1, 1, 1, -1)),
            )
        )
        assert lhv_joint_probability(strategy, (1, 1), (1, 1)) == Fraction(1, 3)
        assert lhv_joint_probability(strategy, (1, 1), (-1, 1)) == Fraction(2, 3)
        assert lhv_joint_probability(strategy, (2, 2), (1, -1)) == Fraction(2, 3)
        assert _correlation_from_joints(strategy, (1, 1)) == Fraction(-1, 3)
        assert _correlation_from_joints(strategy, (2, 1)) == Fraction(1)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_joints_normalize_exactly(self, data):
        weights = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=9), min_size=16, max_size=16
            ).filter(lambda w: sum(w) > 0)
        )
        total = sum(weights)
        strategy = MixtureStrategy(
            components=tuple(
                (Fraction(w, total), a) for w, a in zip(weights, ALL_ASSIGNMENTS)
            )
        )
        for pair in PAIR_ORDER:
            mass = sum(
                lhv_joint_probability(strategy, pair, outcome)
                for outcome in OUTCOME_ORDER
            )
            assert mass == Fraction(1)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_mixture_delta_never_exceeds_two(self, data):
        weights = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=99), min_size=16, max_size=16
            ).filter(lambda w: sum(w) > 0)
        )
        total = sum(weights)
        strategy = MixtureStrategy(
            components=tuple(
                (Fraction(w, total), a) for w, a in zip(weights, ALL_ASSIGNMENTS)
            )
        )
        e = [_correlation_from_joints(strategy, pair) for pair in PAIR_ORDER]
        assert abs(e[0] + e[1] + e[2] - e[3]) <= 2


class TestStochasticStrategy:
    @staticmethod
    def _two_segment():
        return StochasticStrategy(
            breakpoints=(0.0, 0.5, 1.0),
            densities=(1.0, 1.0),
            responses=((1.0, 0.0, 1.0, 0.0), (0.0, 1.0, 0.0, 1.0)),
        )

    def test_segment_masses(self):
        strategy = StochasticStrategy(
            breakpoints=(0.0, 0.25, 1.0),
            densities=(2.0, 2.0 / 3.0),
            responses=((0.5,) * 4, (0.5,) * 4),
        )
        assert strategy.segment_masses == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_response_indexing(self):
        strategy = self._two_segment()
        assert strategy.response(0, 1, 1) == 1.0
        assert strategy.response(0, 1, 2) == 0.0
        assert strategy.response(0, 2, 1) == 1.0
        assert strategy.response(1, 2, 2) == 1.0

    def test_hand_integral(self):
        strategy = self._two_segment()
        assert lhv_joint_probability(strategy, (1, 1), (1, 1)) == pytest.approx(
            0.5, abs=1e-15
        )
        assert lhv_joint_probability(strategy, (1, 1), (-1, -1)) == pytest.approx(
            0.5, abs=1e-15
        )
        assert lhv_joint_probability(strategy, (1, 2), (1, 1)) == pytest.approx(
            0.0, abs=0
        )
        assert _correlation_from_joints(strategy, (1, 1)) == pytest.approx(
            1.0, abs=1e-15
        )
        assert _correlation_from_joints(strategy, (1, 2)) == pytest.approx(
            -1.0, abs=1e-15
        )

    def test_fair_coin_gives_flat_joints(self):
        strategy = StochasticStrategy(
            breakpoints=(0.0, 1.0), densities=(1.0,), responses=((0.5,) * 4,)
        )
        for pair in PAIR_ORDER:
            for outcome in OUTCOME_ORDER:
                assert lhv_joint_probability(strategy, pair, outcome) == pytest.approx(
                    0.25, abs=1e-15
                )

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            (dict(breakpoints=(0.0,), densities=(), responses=()), "at least one"),
            (
                dict(breakpoints=(0.1, 1.0), densities=(1.0,), responses=((0.5,) * 4,)),
                "start at 0",
            ),
            (
                dict(
                    breakpoints=(0.0, 0.5, 0.5, 1.0),
                    densities=(1.0,) * 3,
                    responses=((0.5,) * 4,) * 3,
                ),
                "strictly increasing",
            ),
            (
                dict(breakpoints=(0.0, 1.0), densities=(1.0, 1.0), responses=((0.5,) * 4,)),
                "1 segments need",
            ),
            (
                dict(breakpoints=(0.0, 0.5, 1.0), densities=(2.0, -0.1), responses=((0.5,) * 4,) * 2),
                "non-negative",
            ),
            (
                dict(breakpoints=(0.0, 1.0), densities=(1.0,), responses=((0.5, 0.5, 0.5),)),
                "4 probabilities",
            ),
            (
                dict(breakpoints=(0.0, 1.0), densities=(1.0,), responses=((0.5, 0.5, 0.5, 1.5),)),
                "lie in \\[0, 1\\]",
            ),
            (
                dict(breakpoints=(0.0, 1.0), densities=(0.5,), responses=((0.5,) * 4,)),
                "integrates to",
            ),
            (
                dict(breakpoints=(0.0, 1.0), densities=(math.nan,), responses=((0.5,) * 4,)),
                "must be finite",
            ),
            (
                dict(breakpoints=(0.0, 0.5, 1.0), densities=(math.inf, 1.0), responses=((0.5,) * 4,) * 2),
                "must be finite",
            ),
            (
                dict(breakpoints=(0.0, math.nan, 1.0), densities=(1.0, 1.0), responses=((0.5,) * 4,) * 2),
                "must be finite",
            ),
            (
                dict(breakpoints=(0.0, 0.5, math.inf), densities=(1.0, 0.0), responses=((0.5,) * 4,) * 2),
                "must be finite",
            ),
        ],
    )
    def test_validation(self, kwargs, message):
        with pytest.raises(DomainError, match=message):
            StochasticStrategy(**kwargs)


class TestJointProbabilityGuards:
    def test_rejects_bad_pair(self):
        with pytest.raises(DomainError, match="setting pair"):
            lhv_joint_probability(ANTICORRELATED, (1, 3), (1, 1))

    def test_rejects_bad_outcomes(self):
        with pytest.raises(DomainError, match="outcomes"):
            lhv_joint_probability(ANTICORRELATED, (1, 1), (1, 0))

    def test_rejects_unknown_strategy(self):
        with pytest.raises(DomainError, match="unknown strategy type"):
            lhv_joint_probability(object(), (1, 1), (1, 1))


class TestTrialTally:
    HAND = TrialTally(
        trials_per_pair=100,
        counts=(
            (40, 10, 20, 30),
            (25, 25, 25, 25),
            (100, 0, 0, 0),
            (0, 50, 50, 0),
        ),
    )

    def test_count_lookup(self):
        assert self.HAND.count((1, 1), (1, 1)) == 40
        assert self.HAND.count((1, 1), (1, -1)) == 10
        assert self.HAND.count((1, 1), (-1, 1)) == 20
        assert self.HAND.count((1, 1), (-1, -1)) == 30
        assert self.HAND.count((2, 2), (1, -1)) == 50

    def test_estimated_correlations(self):
        assert self.HAND.estimated_correlation((1, 1)) == pytest.approx(0.4, abs=0)
        assert self.HAND.estimated_correlation((1, 2)) == 0.0
        assert self.HAND.estimated_correlation((2, 1)) == 1.0
        assert self.HAND.estimated_correlation((2, 2)) == -1.0

    def test_standard_errors(self):
        assert self.HAND.correlation_std_error((1, 1)) == pytest.approx(
            math.sqrt(0.84 / 100.0), abs=1e-15
        )
        assert self.HAND.correlation_std_error((2, 1)) == 0.0
        assert self.HAND.delta_std_error() == pytest.approx(
            math.sqrt(0.84 / 100.0 + 1.0 / 100.0), abs=1e-15
        )

    def test_estimated_delta(self):
        assert self.HAND.estimated_delta() == pytest.approx(2.4, abs=1e-15)

    def test_validation(self):
        with pytest.raises(DomainError, match="4 setting pairs"):
            TrialTally(trials_per_pair=1, counts=((1, 0, 0, 0),))
        with pytest.raises(DomainError, match="do not sum"):
            TrialTally(trials_per_pair=2, counts=((1, 0, 0, 0),) * 4)
        with pytest.raises(DomainError, match="bad count row"):
            TrialTally(trials_per_pair=1, counts=((1, 0, 0, 0),) * 3 + ((2, -1, 0, 0),))


class TestSimulate:
    COIN = StochasticStrategy(
        breakpoints=(0.0, 1.0), densities=(1.0,), responses=((0.5,) * 4,)
    )

    def test_rerun_is_identical(self):
        first = simulate(ANTICORRELATED, 2000, seed=7)
        second = simulate(ANTICORRELATED, 2000, seed=7)
        assert first == second

    def test_worker_count_never_changes_result(self):
        serial = simulate(self.COIN, 2000, seed=11, workers=1)
        for workers in (2, 4, 99):
            assert simulate(self.COIN, 2000, seed=11, workers=workers) == serial

    def test_seed_changes_result(self):
        assert simulate(self.COIN, 2000, seed=0) != simulate(self.COIN, 2000, seed=1)

    def test_pure_assignment_is_deterministic(self):
        strategy = MixtureStrategy(components=((1, PPMM),))
        tally = simulate(strategy, 500, seed=3)
        for pair in PAIR_ORDER:
            outcome = (PPMM.outcome(1, pair[0]), PPMM.outcome(2, pair[1]))
            assert tally.count(pair, outcome) == 500
        assert tally.estimated_delta() == 2.0

    def test_anticorrelated_mixture_exact_correlations(self):
        tally = simulate(ANTICORRELATED, 10000, seed=5)
        for pair in PAIR_ORDER:
            assert tally.count(pair, (1, 1)) == 0
            assert tally.count(pair, (-1, -1)) == 0
            assert tally.estimated_correlation(pair) == -1.0
            assert tally.correlation_std_error(pair) == 0.0
        assert tally.estimated_delta() == 2.0
        assert tally.delta_std_error() == 0.0

    def test_estimates_track_exact_joints(self):
        trials = 20000
        tally = simulate(self.COIN, trials, seed=13)
        bound = 4.0 / math.sqrt(trials)
        for pair in PAIR_ORDER:
            assert abs(tally.estimated_correlation(pair)) <= bound
            for outcome in OUTCOME_ORDER:
                frequency = tally.count(pair, outcome) / trials
                assert frequency == pytest.approx(0.25, abs=bound)

    def test_stochastic_two_segment_sim(self):
        strategy = TestStochasticStrategy._two_segment()
        tally = simulate(strategy, 20000, seed=17)
        assert tally.estimated_correlation((1, 1)) == 1.0
        assert tally.estimated_correlation((1, 2)) == -1.0
        assert tally.count((1, 1), (1, -1)) == 0

    @pytest.mark.parametrize("trials", [0, -5, 2.5])
    def test_rejects_bad_trial_count(self, trials):
        with pytest.raises(DomainError, match="positive integer"):
            simulate(ANTICORRELATED, trials, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, 2.0, "7", None])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(DomainError, match="seed must be a non-negative integer"):
            simulate(ANTICORRELATED, 10, seed=seed)


class TestLocalRealismForcing:
    def test_positive_family(self):
        assert local_realism_forcing(1.0, 1.0, 1.0) == 1

    def test_negative_family(self):
        assert local_realism_forcing(-1.0, -1.0, -1.0) == -1

    def test_accepts_near_perfect(self):
        assert local_realism_forcing(1.0 - 1e-10, 1.0, 1.0 - 1e-12) == 1

    def test_rejects_imperfect(self):
        with pytest.raises(DomainError, match="not a perfect correlation"):
            local_realism_forcing(0.8, 1.0, 1.0)

    def test_rejects_mixed_signs(self):
        with pytest.raises(DomainError, match="mixed signs"):
            local_realism_forcing(1.0, -1.0, 1.0)

    def test_custom_tolerance(self):
        assert local_realism_forcing(0.95, 0.97, 1.0, tol=0.1) == 1


class TestLocalPolytope:
    def test_vertices_are_realizable(self):
        for vertex in CORRELATION_VERTICES:
            assert is_locally_realizable(*vertex)

    def test_assignment_vectors_are_realizable(self):
        for a in ALL_ASSIGNMENTS:
            assert is_locally_realizable(
                a.a1 * a.b1, a.a1 * a.b2, a.a2 * a.b1, a.a2 * a.b2
            )

    def test_center_is_realizable(self):
        assert is_locally_realizable(0, 0, 0, 0)

    def test_no_signalling_box_is_not(self):
        assert not is_locally_realizable(1, 1, 1, -1)

    def test_quantum_peak_is_not(self):
        r = math.sqrt(0.5)
        assert not is_locally_realizable(r, r, r, -r)

    def test_outside_cube_is_not(self):
        assert not is_locally_realizable(1.5, 0, 0, 0)

    def test_rejects_non_numbers(self):
        for bad in ("a", math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError, match="real numbers"):
                is_locally_realizable(bad, 0, 0, 0)

    def test_random_exact_mixtures_are_realizable(self):
        rng = np.random.default_rng(101)
        for _ in range(25):
            target, _ = random_local_mixture(rng)
            assert is_locally_realizable(*target)

    @given(e11=grid_values, e12=grid_values, e21=grid_values, e22=grid_values)
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_facet_description(self, e11, e12, e21, e22):
        assert is_locally_realizable(e11, e12, e21, e22) == vertex_hull_membership(
            e11, e12, e21, e22
        )


class TestStrategyParsing:
    MIXTURE_TEXT = """
    # equal anticorrelated pair
    type = mixture
    weight_ppmm = 1/2
    weight_mmpp = 0.5
    """

    STOCHASTIC_TEXT = """
    type = stochastic
    breakpoints = 0, 0.5, 1
    density = 1, 1
    response_1 = 1, 0, 1, 0
    response_2 = 0, 1, 0, 1
    """

    def test_mixture_round_trip(self):
        strategy = strategy_from_text(self.MIXTURE_TEXT)
        assert isinstance(strategy, MixtureStrategy)
        weights = {a.label: w for w, a in strategy.components}
        assert weights == {"ppmm": Fraction(1, 2), "mmpp": Fraction(1, 2)}
        assert all(isinstance(w, Fraction) for w in weights.values())
        assert lhv_joint_probability(strategy, (1, 1), (1, -1)) == Fraction(1, 2)

    def test_stochastic_round_trip(self):
        strategy = strategy_from_text(self.STOCHASTIC_TEXT)
        assert strategy == TestStochasticStrategy._two_segment()

    @pytest.mark.parametrize(
        "text,message",
        [
            ("weight_pppp = 1", "missing 'type'"),
            ("type = quantum", "unknown strategy type"),
            ("type = mixture", "at least one weight"),
            ("type = mixture\nscale = 1", "unknown key"),
            ("type = mixture\nweight_ppx = 1", "4 letters of p/m"),
            ("type = mixture\nweight_ppmmm = 1", "4 letters of p/m"),
            ("type = mixture\nweight_pppp = one", "not a number"),
            ("type = mixture\nweight_pppp = 1/0", "not a number"),
            ("type = mixture\nweight_pppp = 1\nweight_pppp = 0", "repeated key"),
            ("type = mixture\nweight_pppp 1", "expected 'key = value'"),
            ("type = stochastic\ndensity = 1", "missing 'breakpoints'"),
            ("type = stochastic\nbreakpoints = 0, 1", "missing 'density'"),
            (
                "type = stochastic\nbreakpoints = 0, 1\ndensity = 1",
                "missing 'response_1'",
            ),
            (
                "type = stochastic\nbreakpoints = 0, 1\ndensity = a\nresponse_1 = 1,1,1,1",
                "comma-separated numbers",
            ),
            (
                "type = stochastic\nbreakpoints = 0, 1\ndensity = 1\n"
                "response_1 = 0.5, 0.5, 0.5, 0.5\nextra = 2",
                "unknown keys",
            ),
        ],
    )
    def test_parse_errors(self, text, message):
        with pytest.raises(DomainError, match=message):
            strategy_from_text(text)

    def test_bad_weight_total_propagates(self):
        with pytest.raises(DomainError, match="weights sum to"):
            strategy_from_text("type = mixture\nweight_pppp = 1/3")
