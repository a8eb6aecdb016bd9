"""Acceptance gate: twelve numbered criteria, each printing one verdict
line (visible because pytest runs with -s) before asserting."""

import math
import time
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from hardylab.chsh import (
    DELTA_MAX,
    GOLDEN_MEAN,
    delta_closed_form,
    delta_from_probabilities,
    evaluate,
    maximal_free_angle_delta,
    optimize_delta,
    scan_surface,
)
from hardylab.cli import (
    TWO_PHOTON_FIXTURE_ERRORS,
    TWO_PHOTON_FIXTURE_VALUES,
    inequality_margin,
    quadrature_error,
    run,
)
from hardylab.correlations import (
    batch_correlation,
    batch_probabilities,
    joint_distribution,
)
from hardylab.hardy import maximal_entanglement_forcing, solve_hardy
from hardylab.lhv import (
    ALL_ASSIGNMENTS,
    OUTCOME_ORDER,
    PAIR_ORDER,
    DeterministicAssignment,
    MixtureStrategy,
    lhv_joint_probability,
    simulate,
)
from hardylab.qstate import ExperimentConfig, MeasurementSetting, make_state
from oracles import optimum_decimal, oracle_correlation, oracle_probabilities

SQRT2 = math.sqrt(2.0)


def report(number, name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    line = f"criterion {number:02d} [{name}]: {'PASS' if ok else 'FAIL'}{suffix}"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def optimum():
    start = time.perf_counter()
    c1_squared, beta0, delta = optimize_delta()
    return c1_squared, beta0, delta, time.perf_counter() - start


@pytest.fixture(scope="module")
def big_grid():
    start = time.perf_counter()
    grid = scan_surface(101, 91)
    return grid, time.perf_counter() - start


def test_criterion_01_optimizer_peak(optimum):
    c1_squared, beta0, delta, elapsed = optimum
    beta0_deg = math.degrees(beta0)
    oracle_x, oracle_cos_sq, _ = optimum_decimal()
    oracle_beta0_deg = math.degrees(math.acos(math.sqrt(float(oracle_cos_sq))))
    x_gap = abs(c1_squared - float(oracle_x))
    beta0_gap = abs(beta0_deg - oracle_beta0_deg)
    value_ok = abs(delta - 2.3606797749979) <= 1e-9
    ok = value_ok and x_gap <= 1e-12 and beta0_gap <= 1e-10 and elapsed < 10.0
    report(
        1,
        "optimizer peak",
        ok,
        f"delta={delta:.12f}, point=({c1_squared:.12f}, {beta0_deg:.10f} deg), "
        f"gap to the Decimal oracle=({x_gap:.2g}, {beta0_gap:.2g} deg), {elapsed:.2f}s",
    )


def test_criterion_02_peak_hardy_probability(optimum):
    c1_squared, beta0, _, _ = optimum
    p = solve_hardy(make_state(c1_squared), beta0).hardy_probability()
    deviation = abs(p - GOLDEN_MEAN**-5)
    report(
        2,
        "peak Hardy probability",
        deviation <= 1e-9,
        f"p={p:.12f}, |p - 1/golden_mean^5|={deviation:.3g}",
    )


def test_criterion_03_grid_identity(big_grid):
    grid, elapsed = big_grid
    residual = float(np.max(np.abs(grid.delta - 2.0 - 4.0 * grid.p_hardy)))
    ok = residual <= 1e-10 and elapsed < 5.0
    report(
        3,
        "delta = 2 + 4 p on 101x91 grid",
        ok,
        f"max residual={residual:.3g}, {elapsed:.2f}s",
    )


def test_criterion_04_three_route_agreement():
    rng = np.random.default_rng(20260816)
    worst = 0.0
    for _ in range(10_000):
        x = float(rng.uniform(0.02, 0.98))
        if abs(x - 0.5) < 1e-3:
            x += 0.01
        beta0 = float(rng.uniform(0.02, 1.55)) * float(rng.choice((-1.0, 1.0)))
        config = solve_hardy(make_state(x), beta0).config()
        a = evaluate(config).delta
        b = delta_from_probabilities(config)
        c = delta_closed_form(x, beta0)
        worst = max(worst, abs(a - b), abs(a - c), abs(b - c))
    report(
        4,
        "three-route agreement",
        worst <= 1e-10,
        f"worst pairwise gap={worst:.3g} over 10^4 solved configs",
    )


def test_criterion_05_maximal_state_forcing():
    rng = np.random.default_rng(777)
    worst_zero = 0.0
    worst_p = 0.0
    worst_delta = 0.0
    worst_forced = 0.0
    for _ in range(1000):
        sign = int(rng.choice((1, -1)))
        state = make_state(0.5, sign_c1=sign, sign_c2=sign)
        beta11 = float(rng.uniform(0.1, 1.47)) * float(rng.choice((-1.0, 1.0)))
        beta21 = math.atan(-1.0 / math.tan(beta11))
        beta12 = beta11 + float(rng.choice((0.0, math.pi)))
        beta22 = beta21 + float(rng.choice((0.0, math.pi)))
        config = ExperimentConfig(
            state=state,
            d11=MeasurementSetting(beta11),
            d12=MeasurementSetting(beta12),
            d21=MeasurementSetting(beta21),
            d22=MeasurementSetting(beta22),
        )
        p_a = joint_distribution(state, config.d11, config.d21).probability(-1, -1)
        p_b = joint_distribution(state, config.d11, config.d22).probability(1, 1)
        p_c = joint_distribution(state, config.d12, config.d21).probability(1, 1)
        p_d = joint_distribution(state, config.d12, config.d22).probability(1, 1)
        worst_zero = max(worst_zero, p_a, p_b, p_c)
        worst_p = max(worst_p, p_d)
        worst_delta = max(worst_delta, abs(evaluate(config).delta - 2.0))
        forced = maximal_entanglement_forcing(state, beta11, beta12, beta21, beta22)
        worst_forced = max(worst_forced, abs(forced + 1.0))
    ok = worst_zero <= 1e-10 and worst_p <= 1e-10 and worst_delta <= 1e-10
    report(
        5,
        "maximal state kills the fourth probability",
        ok,
        f"max zero-cond={worst_zero:.3g}, max p_d={worst_p:.3g}, "
        f"max |delta-2|={worst_delta:.3g}, max |t12 t22 + 1|={worst_forced:.3g}",
    )


def test_criterion_06_vanishing_round_trip():
    rng = np.random.default_rng(618)
    n = 5000
    x = rng.uniform(0.02, 0.98, n)
    c1, c2 = np.sqrt(x), np.sqrt(1.0 - x)
    beta1 = rng.uniform(0.1, 1.47, n) * rng.choice((-1.0, 1.0), n)
    # half at the exact root of the tangent criterion, half generic
    beta2_root = np.arctan(-(c1 / c2) / np.tan(beta1))
    beta2_free = rng.uniform(0.1, 1.47, n) * rng.choice((-1.0, 1.0), n)
    beta2 = np.concatenate([beta2_root, beta2_free])
    c1 = np.concatenate([c1, c1])
    c2 = np.concatenate([c2, c2])
    beta1 = np.concatenate([beta1, beta1])
    p = batch_probabilities(c1, c2, beta1, beta2, 0.0)[0]
    factor = np.abs(np.tan(beta1) * np.tan(beta2) + c1 / c2)
    p_small = p <= 1e-12
    condition = factor <= 1e-6
    forward = bool(np.all(p_small[condition]))
    reverse = bool(np.all(condition[p_small]))
    report(
        6,
        "vanishing-condition round-trip",
        forward and reverse,
        f"{int(condition.sum())} of {2 * n} draws at the root, "
        f"condition=>zero: {forward}, zero=>condition: {reverse}",
    )


def test_criterion_07_quantum_bound():
    rng = np.random.default_rng(424242)
    n = 1_000_000
    x = rng.uniform(0.0, 1.0, n)
    c1 = rng.choice((-1.0, 1.0), n) * np.sqrt(x)
    c2 = rng.choice((-1.0, 1.0), n) * np.sqrt(1.0 - x)
    b = rng.uniform(-np.pi, np.pi, (4, n))
    d = rng.uniform(-np.pi, np.pi, (4, n))
    e11 = batch_correlation(c1, c2, b[0], b[2], d[0] - d[2])
    e12 = batch_correlation(c1, c2, b[0], b[3], d[0] - d[3])
    e21 = batch_correlation(c1, c2, b[1], b[2], d[1] - d[2])
    e22 = batch_correlation(c1, c2, b[1], b[3], d[1] - d[3])
    largest = float(np.max(np.abs(e11 + e12 + e21 - e22)))

    explicit = ExperimentConfig(
        state=make_state(0.5),
        d11=MeasurementSetting(0.0),
        d12=MeasurementSetting(math.pi / 4.0),
        d21=MeasurementSetting(math.pi / 8.0),
        d22=MeasurementSetting(-math.pi / 8.0),
    )
    achieved = evaluate(explicit).delta
    beta_peak = maximal_free_angle_delta(
        beta_diffs=(-math.pi / 8.0, math.pi / 8.0, math.pi / 8.0, 3.0 * math.pi / 8.0)
    )
    delta_peak = maximal_free_angle_delta(
        delta_diffs=(-math.pi / 4.0, math.pi / 4.0, math.pi / 4.0, 3.0 * math.pi / 4.0)
    )
    bound_ok = largest <= 2.0 * SQRT2 + 1e-9
    peak_ok = all(
        abs(v - 2.0 * SQRT2) <= 1e-12 for v in (achieved, beta_peak, delta_peak)
    )
    report(
        7,
        "quantum bound and its attainment",
        bound_ok and peak_ok,
        f"max delta={largest:.12f} over 10^6 configs, explicit config gap="
        f"{abs(achieved - 2.0 * SQRT2):.3g}",
    )


def test_criterion_08_local_bound():
    all_saturate = all(a.chsh_value() == 2 for a in ALL_ASSIGNMENTS)

    rng = np.random.default_rng(55)
    weights = rng.integers(0, 100, size=(100_000, 16)).astype(np.int64)
    weights[weights.sum(axis=1) == 0, 0] = 1
    combinations = np.array([a.chsh_combination() for a in ALL_ASSIGNMENTS], dtype=np.int64)
    numerators = np.abs(weights @ combinations)
    bounds = 2 * weights.sum(axis=1)
    mixtures_ok = bool(np.all(numerators <= bounds))  # exact integer comparison

    exact_ok = True
    for _ in range(200):
        raw = rng.integers(0, 10, 16)
        if raw.sum() == 0:
            raw[0] = 1
        total = int(raw.sum())
        strategy = MixtureStrategy(
            components=tuple(
                (Fraction(int(w), total), a) for w, a in zip(raw, ALL_ASSIGNMENTS)
            )
        )
        e = [
            sum(
                m * n * lhv_joint_probability(strategy, pair, (m, n))
                for m, n in OUTCOME_ORDER
            )
            for pair in PAIR_ORDER
        ]
        exact_ok = exact_ok and abs(e[0] + e[1] + e[2] - e[3]) <= 2

    anticorrelated = MixtureStrategy(
        components=(
            (Fraction(1, 2), DeterministicAssignment(1, 1, -1, -1)),
            (Fraction(1, 2), DeterministicAssignment(-1, -1, 1, 1)),
        )
    )
    tally = simulate(anticorrelated, 1_000_000, seed=2026)
    sim_ok = True
    worst_gap = 0.0
    for pair in PAIR_ORDER:
        e = tally.estimated_correlation(pair)
        sigma = tally.correlation_std_error(pair)
        worst_gap = max(worst_gap, abs(e + 1.0))
        sim_ok = sim_ok and abs(e + 1.0) <= 3.0 * sigma
    ok = all_saturate and mixtures_ok and exact_ok and sim_ok
    report(
        8,
        "local bound",
        ok,
        f"16 assignments saturate: {all_saturate}, 10^5 mixtures <= 2: {mixtures_ok}, "
        f"sim max |E + 1|={worst_gap:.3g} over 4 x 10^6 trials",
    )


def test_criterion_09_grid_symmetry(big_grid):
    grid, _ = big_grid
    gap = float(np.max(np.abs(grid.delta - grid.delta[::-1, ::-1])))
    report(
        9,
        "surface symmetry",
        gap <= 1e-10,
        f"max |delta(x, b) - delta(1-x, 90-b)|={gap:.3g} cellwise on 101x91",
    )


def test_criterion_10_probability_laws():
    rng = np.random.default_rng(31337)
    n = 1_000_000
    x = rng.uniform(0.0, 1.0, n)
    c1 = rng.choice((-1.0, 1.0), n) * np.sqrt(x)
    c2 = rng.choice((-1.0, 1.0), n) * np.sqrt(1.0 - x)
    beta1 = rng.uniform(-np.pi, np.pi, n)
    beta2 = rng.uniform(-np.pi, np.pi, n)
    delta12 = rng.uniform(-np.pi, np.pi, n)
    total = sum(batch_probabilities(c1, c2, beta1, beta2, delta12))
    normalization = float(np.max(np.abs(total - 1.0)))

    m = 10_000
    sel = slice(0, m)
    delta1 = rng.uniform(-np.pi, np.pi, m)
    delta2 = delta1 - delta12[sel]
    closed = batch_probabilities(c1[sel], c2[sel], beta1[sel], beta2[sel], delta12[sel])
    reference = oracle_probabilities(
        c1[sel], c2[sel], beta1[sel], delta1, beta2[sel], delta2
    )
    outcome_keys = ((1, 1), (-1, -1), (1, -1), (-1, 1))
    prob_gap = max(
        float(np.max(np.abs(ours - reference[key])))
        for ours, key in zip(closed, outcome_keys)
    )
    corr_gap = float(
        np.max(
            np.abs(
                batch_correlation(c1[sel], c2[sel], beta1[sel], beta2[sel], delta12[sel])
                - oracle_correlation(c1[sel], c2[sel], beta1[sel], delta1, beta2[sel], delta2)
            )
        )
    )
    ok = normalization <= 1e-12 and prob_gap <= 1e-10 and corr_gap <= 1e-10
    report(
        10,
        "probability laws vs state-vector oracle",
        ok,
        f"max |sum - 1|={normalization:.3g} over 10^6, max prob gap={prob_gap:.3g} "
        f"and corr gap={corr_gap:.3g} over 10^4",
    )


def test_criterion_11_fixture_margin(capsys):
    margin = inequality_margin(TWO_PHOTON_FIXTURE_VALUES)
    exact = margin == Decimal("0.0846")
    sigma = quadrature_error(TWO_PHOTON_FIXTURE_ERRORS)
    sigma_ok = abs(sigma - 0.002137755832643195) <= 1e-18
    code = run(["inequality"])
    out = capsys.readouterr().out
    cli_ok = code == 0 and "margin = 0.0846" in out and "violated = true" in out
    report(
        11,
        "two-photon fixture margin",
        exact and sigma_ok and cli_ok,
        f"margin={margin}, std error={sigma:.12g}, CLI prints it: {cli_ok}",
    )


def test_criterion_12_violation_fraction(optimum):
    _, _, delta, _ = optimum
    fraction = (delta - 2.0) / (2.0 * SQRT2 - 2.0)
    frozen = (DELTA_MAX - 2.0) / (2.0 * SQRT2 - 2.0)
    ok = abs(fraction - 0.4354) <= 1e-3 and abs(fraction - frozen) <= 1e-8
    report(
        12,
        "fraction of the free-angle violation",
        ok,
        f"(delta-2)/(2 sqrt2 - 2)={fraction:.10f}",
    )
