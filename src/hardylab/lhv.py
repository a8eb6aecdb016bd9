"""Local hidden-variable strategies, Monte Carlo trials, and polytope checks.

A local model assigns each particle pair a hidden state lambda drawn
from a setting-independent distribution; outcomes for the two particles
are then produced independently given lambda. Joint probabilities have
the factorized form

    P(D_1k = m, D_2l = n) = integral d(lambda) rho(lambda)
                            P(D_1k = m | lambda) P(D_2l = n | lambda)

Two concrete representations are provided: a finite mixture of
deterministic outcome assignments (the extreme points), and a
piecewise-constant density on the unit interval with per-segment
response probabilities. Every deterministic assignment has CHSH value
exactly 2, so every local model obeys Delta <= 2; the mixture API keeps
exact (Fraction) weights exact end to end so that bound can be tested
without tolerance.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .qstate import OUTCOME_ORDER, PAIR_ORDER, DomainError, _key_value_lines

__all__ = [
    "PAIR_ORDER",
    "OUTCOME_ORDER",
    "ALL_ASSIGNMENTS",
    "DeterministicAssignment",
    "MixtureStrategy",
    "StochasticStrategy",
    "LhvStrategy",
    "TrialTally",
    "lhv_joint_probability",
    "simulate",
    "local_realism_forcing",
    "is_locally_realizable",
    "strategy_from_text",
]

_WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class DeterministicAssignment:
    """Predetermined outcomes (a1, a2) for D11, D12 and (b1, b2) for D21, D22."""

    a1: int
    a2: int
    b1: int
    b2: int

    def __post_init__(self) -> None:
        for name in ("a1", "a2", "b1", "b2"):
            if getattr(self, name) not in (1, -1):
                raise DomainError(f"{name} must be +1 or -1")

    def outcome(self, particle: int, setting: int) -> int:
        try:
            return {
                (1, 1): self.a1,
                (1, 2): self.a2,
                (2, 1): self.b1,
                (2, 2): self.b2,
            }[(particle, setting)]
        except KeyError:
            raise DomainError(
                f"no observable ({particle}, {setting}); indices must be 1 or 2"
            ) from None

    def chsh_combination(self) -> int:
        """Signed combination a1 b1 + a1 b2 + a2 b1 - a2 b2; always +-2."""
        return (
            self.a1 * self.b1
            + self.a1 * self.b2
            + self.a2 * self.b1
            - self.a2 * self.b2
        )

    def chsh_value(self) -> int:
        return abs(self.chsh_combination())

    @property
    def label(self) -> str:
        """Four-letter p/m code in (a1, a2, b1, b2) order, e.g. 'ppmm'."""
        return "".join("p" if v == 1 else "m" for v in (self.a1, self.a2, self.b1, self.b2))


ALL_ASSIGNMENTS: tuple[DeterministicAssignment, ...] = tuple(
    DeterministicAssignment(a1, a2, b1, b2)
    for a1 in (1, -1)
    for a2 in (1, -1)
    for b1 in (1, -1)
    for b2 in (1, -1)
)


@dataclass(frozen=True)
class MixtureStrategy:
    """Convex mixture of deterministic assignments.

    Weights may be ints, floats, or Fractions and are never coerced, so
    exact inputs give exact joint probabilities downstream.
    """

    components: tuple

    def __post_init__(self) -> None:
        components = tuple((w, a) for w, a in self.components)
        object.__setattr__(self, "components", components)
        for weight, assignment in components:
            if not isinstance(assignment, DeterministicAssignment):
                raise DomainError(f"not an assignment: {assignment!r}")
            if not weight >= 0:
                raise DomainError(f"negative weight or NaN: {weight!r}")
        total = sum(weight for weight, _ in components)
        if abs(float(total) - 1.0) > _WEIGHT_SUM_TOL:
            raise DomainError(f"weights sum to {float(total)!r}, expected 1")


@dataclass(frozen=True)
class StochasticStrategy:
    """Piecewise-constant hidden-variable model on the unit interval.

    breakpoints are 0 = x_0 < ... < x_n = 1; each of the n segments
    carries a density value and a response row (p11, p12, p21, p22)
    giving P(D_ij = +1 | lambda in segment). Total mass must be 1.
    """

    breakpoints: tuple[float, ...]
    densities: tuple[float, ...]
    responses: tuple[tuple[float, float, float, float], ...]

    def __post_init__(self) -> None:
        points = tuple(float(p) for p in self.breakpoints)
        densities = tuple(float(d) for d in self.densities)
        responses = tuple(tuple(float(p) for p in row) for row in self.responses)
        object.__setattr__(self, "breakpoints", points)
        object.__setattr__(self, "densities", densities)
        object.__setattr__(self, "responses", responses)
        if not all(map(math.isfinite, points + densities)):
            raise DomainError("breakpoints and densities must be finite numbers")
        if len(points) < 2:
            raise DomainError("need at least one segment")
        if abs(points[0]) > _WEIGHT_SUM_TOL or abs(points[-1] - 1.0) > _WEIGHT_SUM_TOL:
            raise DomainError("breakpoints must start at 0 and end at 1")
        if any(b >= c for b, c in zip(points, points[1:])):
            raise DomainError("breakpoints must be strictly increasing")
        segments = len(points) - 1
        if len(densities) != segments or len(responses) != segments:
            raise DomainError(
                f"{segments} segments need {segments} densities and response rows"
            )
        if any(d < 0 for d in densities):
            raise DomainError("densities must be non-negative")
        for row in responses:
            if len(row) != 4:
                raise DomainError("each response row needs 4 probabilities")
            if any(not 0.0 <= p <= 1.0 for p in row):
                raise DomainError(f"response probabilities must lie in [0, 1]: {row}")
        mass = sum(
            d * (c - b) for d, b, c in zip(densities, points, points[1:])
        )
        if abs(mass - 1.0) > 1e-9:
            raise DomainError(f"density integrates to {mass!r}, expected 1")

    @property
    def segment_masses(self) -> tuple[float, ...]:
        return tuple(
            d * (c - b)
            for d, b, c in zip(self.densities, self.breakpoints, self.breakpoints[1:])
        )

    def response(self, segment: int, particle: int, setting: int) -> float:
        row = self.responses[segment]
        return row[(particle - 1) * 2 + (setting - 1)]


LhvStrategy = Union[MixtureStrategy, StochasticStrategy]


def _check_pair(setting_pair: tuple[int, int]) -> tuple[int, int]:
    pair = tuple(setting_pair)
    if pair not in PAIR_ORDER:
        raise DomainError(f"setting pair must be one of {PAIR_ORDER}, got {pair!r}")
    return pair


def _check_outcomes(outcomes: tuple[int, int]) -> tuple[int, int]:
    pair = tuple(outcomes)
    if pair not in OUTCOME_ORDER:
        raise DomainError(f"outcomes must be +-1, got {pair!r}")
    return pair


def lhv_joint_probability(
    strategy: LhvStrategy,
    setting_pair: tuple[int, int],
    outcomes: tuple[int, int],
):
    """Joint probability of the given outcomes under a local strategy.

    Mixtures are summed term by term in the weights' own arithmetic
    (exact for Fractions); stochastic models are integrated segment by
    segment, which is exact for piecewise-constant densities.
    """
    k, l = _check_pair(setting_pair)
    m, n = _check_outcomes(outcomes)
    if isinstance(strategy, MixtureStrategy):
        return sum(
            weight
            for weight, assignment in strategy.components
            if assignment.outcome(1, k) == m and assignment.outcome(2, l) == n
        )
    if isinstance(strategy, StochasticStrategy):
        total = 0.0
        for segment, mass in enumerate(strategy.segment_masses):
            p1 = strategy.response(segment, 1, k)
            p2 = strategy.response(segment, 2, l)
            q1 = p1 if m == 1 else 1.0 - p1
            q2 = p2 if n == 1 else 1.0 - p2
            total += mass * q1 * q2
        return total
    raise DomainError(f"unknown strategy type: {type(strategy).__name__}")


@dataclass(frozen=True)
class TrialTally:
    """Counts per setting pair and outcome pair from a simulation run.

    counts[pair_index][outcome_index] follows PAIR_ORDER and
    OUTCOME_ORDER; each pair's counts sum to trials_per_pair.
    """

    trials_per_pair: int
    counts: tuple[tuple[int, int, int, int], ...]

    def __post_init__(self) -> None:
        if len(self.counts) != 4:
            raise DomainError("need counts for all 4 setting pairs")
        for row in self.counts:
            if len(row) != 4 or any(c < 0 for c in row):
                raise DomainError(f"bad count row: {row!r}")
            if sum(row) != self.trials_per_pair:
                raise DomainError(
                    f"counts {row!r} do not sum to {self.trials_per_pair}"
                )

    def count(self, setting_pair: tuple[int, int], outcomes: tuple[int, int]) -> int:
        pair = _check_pair(setting_pair)
        outcome = _check_outcomes(outcomes)
        return self.counts[PAIR_ORDER.index(pair)][OUTCOME_ORDER.index(outcome)]

    def estimated_correlation(self, setting_pair: tuple[int, int]) -> float:
        row = self.counts[PAIR_ORDER.index(_check_pair(setting_pair))]
        n_pp, n_pm, n_mp, n_mm = row
        return (n_pp + n_mm - n_pm - n_mp) / self.trials_per_pair

    def correlation_std_error(self, setting_pair: tuple[int, int]) -> float:
        # The outcome product is a +-1 variable: var = 1 - E^2.
        e = self.estimated_correlation(setting_pair)
        variance = max(0.0, 1.0 - e * e)
        return math.sqrt(variance / self.trials_per_pair)

    def estimated_delta(self) -> float:
        e11, e12, e21, e22 = (self.estimated_correlation(p) for p in PAIR_ORDER)
        return abs(e11 + e12 + e21 - e22)

    def delta_std_error(self) -> float:
        return math.sqrt(
            sum(self.correlation_std_error(p) ** 2 for p in PAIR_ORDER)
        )


def _pair_rng(seed: int, pair_index: int) -> np.random.Generator:
    # Substream fixed by (seed, pair index): results do not depend on
    # how pairs are scheduled across workers.
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(pair_index,)))


def _simulate_pair(
    strategy: LhvStrategy, pair: tuple[int, int], trials: int, seed: int, pair_index: int
) -> tuple[int, int, int, int]:
    rng = _pair_rng(seed, pair_index)
    k, l = pair
    if isinstance(strategy, MixtureStrategy):
        weights = np.array([float(w) for w, _ in strategy.components])
        weights = weights / weights.sum()
        cells = np.array(
            [
                OUTCOME_ORDER.index((a.outcome(1, k), a.outcome(2, l)))
                for _, a in strategy.components
            ]
        )
        # lambda (one uniform per trial) selects the component.
        draws = rng.random(trials)
        index = np.minimum(
            np.searchsorted(np.cumsum(weights), draws, side="right"),
            len(weights) - 1,
        )
        tally = np.bincount(cells[index], minlength=4)
    else:
        masses = np.array(strategy.segment_masses)
        masses = masses / masses.sum()
        segment = np.minimum(
            np.searchsorted(np.cumsum(masses), rng.random(trials), side="right"),
            len(masses) - 1,
        )
        responses = np.array(strategy.responses)
        plus1 = rng.random(trials) < responses[segment, 2 * 0 + (k - 1)]
        plus2 = rng.random(trials) < responses[segment, 2 * 1 + (l - 1)]
        cell = np.where(plus1, 0, 2) + np.where(plus2, 0, 1)
        tally = np.bincount(cell, minlength=4)
    return tuple(int(c) for c in tally)


def simulate(
    strategy: LhvStrategy,
    trials_per_pair: int,
    seed: int,
    workers: int | None = None,
) -> TrialTally:
    """Run trials_per_pair seeded trials for each of the four setting pairs.

    Each trial draws one hidden state and produces both outcomes from
    it. Reruns with the same seed give identical tallies, regardless of
    worker count.
    """
    if int(trials_per_pair) != trials_per_pair or trials_per_pair < 1:
        raise DomainError("trials_per_pair must be a positive integer")
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
    trials = int(trials_per_pair)
    lhv_joint_probability(strategy, (1, 1), (1, 1))  # validates strategy type
    jobs = [
        (strategy, pair, trials, seed, index) for index, pair in enumerate(PAIR_ORDER)
    ]
    workers = 4 if workers is None else max(1, min(int(workers), 4))
    if workers == 1:
        rows = [_simulate_pair(*job) for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(lambda job: _simulate_pair(*job), jobs))
    return TrialTally(trials_per_pair=trials, counts=tuple(rows))


def local_realism_forcing(e11: float, e12: float, e21: float, tol: float = 1e-9) -> int:
    """The fourth correlation forced by three equal perfect correlations.

    If measurements of (D11, D21), (D11, D22), and (D12, D21) are all
    perfectly correlated with the same sign s, a local realistic model
    must give the (D12, D22) pair the same perfect correlation s: the
    first pair fixes each particle's predetermined outcomes, and the
    other two propagate them to the remaining settings.
    """
    values = (e11, e12, e21)
    for value in values:
        if abs(abs(value) - 1.0) > tol:
            raise DomainError(f"not a perfect correlation: {value!r}")
    signs = {1 if value > 0 else -1 for value in values}
    if len(signs) != 1:
        raise DomainError(f"correlations carry mixed signs: {values!r}")
    return signs.pop()


# ---------- exact feasibility over the local polytope ----------


def is_locally_realizable(e11, e12, e21, e22) -> bool:
    """Whether a correlation quadruple is reachable by some local model.

    By Fine's theorem (A. Fine, PRL 48, 291 (1982)) the local
    correlation polytope has exactly 16 facets: the 8 bounds
    |e_kl| <= 1 and the 8 CHSH inequalities |S - 2 e_kl| <= 2, with
    S = e11 + e12 + e21 + e22. Floats are converted to Fractions
    exactly, so there is no tolerance anywhere.
    """
    try:
        target = [Fraction(v) for v in (e11, e12, e21, e22)]
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise DomainError("correlations must be finite real numbers") from exc
    total = sum(target)
    return all(abs(e) <= 1 and abs(total - 2 * e) <= 2 for e in target)


# ---------- strategy files (key = value text) ----------


def _parse_entries(text: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    for lineno, key, value in _key_value_lines(text):
        if key in entries:
            raise DomainError(f"line {lineno}: repeated key {key!r}")
        entries[key] = value
    return entries


def _parse_label(label: str) -> DeterministicAssignment:
    if len(label) != 4 or any(ch not in "pm" for ch in label):
        raise DomainError(f"assignment label must be 4 letters of p/m, got {label!r}")
    values = [1 if ch == "p" else -1 for ch in label]
    return DeterministicAssignment(*values)


def _parse_number_list(key: str, text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise DomainError(f"{key}: expected comma-separated numbers, got {text!r}") from None


def strategy_from_text(text: str) -> LhvStrategy:
    """Parse a key = value strategy description.

    Mixture form: 'type = mixture' plus weight_LLLL entries, LLLL a
    p/m code over (a1, a2, b1, b2); weights accept fractions ('1/3')
    and decimals, kept exact. Stochastic form: 'type = stochastic' with
    'breakpoints', 'density', and one 'response_N = p11, p12, p21, p22'
    row per segment (N counts from 1).
    """
    entries = _parse_entries(text)
    kind = entries.pop("type", None)
    if kind is None:
        raise DomainError("missing 'type' key (mixture or stochastic)")

    if kind == "mixture":
        components = []
        for key, value in entries.items():
            if not key.startswith("weight_"):
                raise DomainError(f"unknown key {key!r} for a mixture strategy")
            assignment = _parse_label(key[len("weight_"):])
            try:
                weight = Fraction(value)
            except (ValueError, ZeroDivisionError):
                raise DomainError(f"{key}: not a number: {value!r}") from None
            components.append((weight, assignment))
        if not components:
            raise DomainError("mixture needs at least one weight_* entry")
        return MixtureStrategy(components=tuple(components))

    if kind == "stochastic":
        try:
            breakpoints = _parse_number_list("breakpoints", entries.pop("breakpoints"))
            densities = _parse_number_list("density", entries.pop("density"))
        except KeyError as exc:
            raise DomainError(f"missing {exc.args[0]!r} key") from None
        segments = len(breakpoints) - 1
        responses = []
        for index in range(1, segments + 1):
            key = f"response_{index}"
            if key not in entries:
                raise DomainError(f"missing {key!r} key")
            row = _parse_number_list(key, entries.pop(key))
            responses.append(tuple(row))
        if entries:
            raise DomainError(f"unknown keys: {', '.join(sorted(entries))}")
        return StochasticStrategy(
            breakpoints=tuple(breakpoints),
            densities=tuple(densities),
            responses=tuple(responses),
        )

    raise DomainError(f"unknown strategy type {kind!r}")
