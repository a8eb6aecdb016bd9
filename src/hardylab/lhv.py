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
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Union

from .qstate import BOUNDARY_TOL, OUTCOME_ORDER, PAIR_ORDER, ROUNDING_TOL, DomainError
from .qstate import _key_value_lines, _require_count, _require_finite, _require_tolerance

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "PAIR_ORDER",
    "OUTCOME_ORDER",
    "MAX_TRIALS",
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

# Position of observable (particle, setting) in an assignment's
# (a1, a2, b1, b2) and in a stochastic response row (p11, p12, p21, p22).
_OBSERVABLE_INDEX = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}


def _observable_index(particle: int, setting: int) -> int:
    try:
        return _OBSERVABLE_INDEX[(particle, setting)]
    except (KeyError, TypeError):
        raise DomainError(
            f"no observable ({particle}, {setting}); indices must be 1 or 2"
        ) from None


# Largest |decimal exponent| a strategy file's weight may carry.
# Fraction builds 10**exponent exactly (1e999999999 would take a ~400 MB
# integer), and any weight past this bound is far outside the float range.
_MAX_WEIGHT_EXPONENT = 1000

# Largest trials_per_pair simulate accepts. A run peaks at about 26
# bytes per trial (tracemalloc, 10**6 trials), so one at the cap takes
# about 260 MB and two seconds; the cap stays the documented lhv-sim
# limit rather than growing with the memory that serial sampling freed.
MAX_TRIALS = 10**7

# The segment lookup's table has at least 2**10 bins (8 KiB).
_MIN_TABLE_BITS = 10


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
        return (self.a1, self.a2, self.b1, self.b2)[_observable_index(particle, setting)]

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
        try:
            components = tuple((w, a) for w, a in self.components)
        except (TypeError, ValueError):
            raise DomainError(
                f"components must be (weight, assignment) pairs, got {self.components!r}"
            ) from None
        object.__setattr__(self, "components", components)
        for weight, assignment in components:
            if not isinstance(assignment, DeterministicAssignment):
                raise DomainError(f"not an assignment: {assignment!r}")
            if not isinstance(weight, numbers.Real):
                raise DomainError(f"weight is not a real number: {weight!r}")
            if not weight >= 0:
                raise DomainError(f"negative weight or NaN: {weight!r}")
        # Compared in the weights' own arithmetic, so an exact total far
        # beyond the float range is refused rather than overflowing. Such
        # an exact weight summed with a float one overflows: its float
        # total is inf.
        try:
            total = sum(weight for weight, _ in components)
        except OverflowError:
            total = math.inf
        if abs(total - 1) > ROUNDING_TOL:
            shown = float(total) if total <= sys.float_info.max else math.inf
            raise DomainError(f"weights sum to {shown!r}, expected 1")


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
        try:
            points = tuple(float(p) for p in self.breakpoints)
            densities = tuple(float(d) for d in self.densities)
            responses = tuple(tuple(float(p) for p in row) for row in self.responses)
        except (TypeError, ValueError, OverflowError):
            raise DomainError(
                "breakpoints, densities and response rows must be sequences of numbers"
            ) from None
        object.__setattr__(self, "breakpoints", points)
        object.__setattr__(self, "densities", densities)
        object.__setattr__(self, "responses", responses)
        if not all(map(math.isfinite, points + densities)):
            raise DomainError("breakpoints and densities must be finite numbers")
        if len(points) < 2:
            raise DomainError("need at least one segment")
        if abs(points[0]) > ROUNDING_TOL or abs(points[-1] - 1.0) > ROUNDING_TOL:
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
        if abs(mass - 1.0) > BOUNDARY_TOL:
            raise DomainError(f"density integrates to {mass!r}, expected 1")

    @property
    def segment_masses(self) -> tuple[float, ...]:
        return tuple(
            d * (c - b)
            for d, b, c in zip(self.densities, self.breakpoints, self.breakpoints[1:])
        )

    def response(self, segment: int, particle: int, setting: int) -> float:
        index = _observable_index(particle, setting)
        segments = len(self.responses)
        if not (isinstance(segment, numbers.Integral) and 0 <= segment < segments):
            raise DomainError(f"segment must be an integer in [0, {segments}), got {segment!r}")
        return self.responses[segment][index]


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
        first, second = _OBSERVABLE_INDEX[(1, k)], _OBSERVABLE_INDEX[(2, l)]
        total = 0.0
        for mass, row in zip(strategy.segment_masses, strategy.responses):
            p1, p2 = row[first], row[second]
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
        trials = _require_count(
            self.trials_per_pair, 1, "trials_per_pair must be a positive integer"
        )
        try:
            counts = tuple(tuple(row) for row in self.counts)
        except TypeError:
            raise DomainError(f"counts must be rows of 4 counts, got {self.counts!r}") from None
        if len(counts) != 4:
            raise DomainError("need counts for all 4 setting pairs")
        for row in counts:
            if len(row) != 4 or not all(isinstance(c, numbers.Integral) and c >= 0 for c in row):
                raise DomainError(f"bad count row: {row!r}")
            if sum(row) != trials:
                raise DomainError(f"counts {row!r} do not sum to {trials}")
        object.__setattr__(self, "counts", counts)

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
    # Substream fixed by (seed, pair index): a pair's draws do not
    # depend on the other pairs.
    import numpy as np

    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(pair_index,)))


def _segment_index(u: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Segment of each draw u in [0, 1) under normalized weights, that is
    np.searchsorted(np.cumsum(weights)[:-1], u, side="right") bit for bit.

    A table over 2**m equal bins of [0, 1) holds the segment at each
    bin's left edge, or -1 where a bound lies strictly inside the bin;
    u * 2**m is exact, so its truncation is the draw's bin, and only
    draws in -1 bins are searched. With more than b log2(b) bins for b
    bounds, a draw takes less than one binary-search step on average.
    """
    import numpy as np

    bounds = np.cumsum(weights)[:-1]
    bins = 1 << max(_MIN_TABLE_BITS, (len(bounds) * len(bounds).bit_length()).bit_length())
    if bins > len(u):
        return np.searchsorted(bounds, u, side="right")
    table = np.searchsorted(bounds, np.arange(bins) / bins, side="right")
    inner = bounds[bounds < 1.0] * bins
    table[inner[inner != np.floor(inner)].astype(np.intp)] = -1
    index = table.take((u * bins).astype(np.intp))
    split = np.flatnonzero(index < 0)
    index[split] = np.searchsorted(bounds, u[split], side="right")
    return index


def _tally_pair(
    rng: np.random.Generator, trials: int, weights: np.ndarray,
    first: np.ndarray, second: np.ndarray, mixture: bool,
) -> tuple[int, int, int, int]:
    """One setting pair's counts in OUTCOME_ORDER. first and second hold,
    per component, its outcomes of the pair's two observables or, per
    segment, their P(+1 | segment)."""
    import numpy as np

    # lambda (one uniform per trial) selects the component or segment.
    index = _segment_index(rng.random(trials), weights)
    if mixture:
        # Each component's OUTCOME_ORDER cell: (+,+), (+,-), (-,+), (-,-).
        cells = 2 * (first < 0) + (second < 0)
        return tuple(int(c) for c in np.bincount(cells[index], minlength=4))
    # An outcome is -1 where its uniform draw reaches P(+1 | segment).
    minus1 = rng.random(trials) >= first.take(index)
    minus2 = rng.random(trials) >= second.take(index)
    n1, n2 = int(np.count_nonzero(minus1)), int(np.count_nonzero(minus2))
    both = int(np.count_nonzero(minus1 & minus2))
    return (trials - n1 - n2 + both, n2 - both, n1 - both, both)


def simulate(
    strategy: LhvStrategy,
    trials_per_pair: int,
    seed: int,
    workers: int | None = None,
) -> TrialTally:
    """Run trials_per_pair seeded trials for each of the four setting pairs.

    Each trial draws one hidden state and produces both outcomes from
    it. The pairs run in PAIR_ORDER, each on its own (seed, pair index)
    substream, so reruns with the same seed give identical tallies.
    workers is accepted and ignored: sampling is serial, and the
    benchmark's local-models workload still passes workers=1.
    """
    trials = _require_count(trials_per_pair, 1, "trials_per_pair must be a positive integer")
    if trials > MAX_TRIALS:
        raise DomainError(f"{trials} trials per pair exceed the limit of {MAX_TRIALS}")
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
    if not isinstance(strategy, (MixtureStrategy, StochasticStrategy)):
        raise DomainError(f"unknown strategy type: {type(strategy).__name__}")
    import numpy as np

    mixture = isinstance(strategy, MixtureStrategy)
    if mixture:
        weights = np.array([float(w) for w, _ in strategy.components])
        # One (a1, a2, b1, b2) outcome row per component.
        rows = np.array([(a.a1, a.a2, a.b1, a.b2) for _, a in strategy.components])
    else:
        weights = np.array(strategy.segment_masses)
        # One (p11, p12, p21, p22) row of P(+1 | segment) per segment.
        rows = np.array(strategy.responses)
    weights = weights / weights.sum()
    counts = tuple(
        _tally_pair(_pair_rng(seed, i), trials, weights, rows[:, k - 1], rows[:, 1 + l], mixture)
        for i, (k, l) in enumerate(PAIR_ORDER)
    )
    return TrialTally(trials_per_pair=trials, counts=counts)


def local_realism_forcing(e11: float, e12: float, e21: float, tol: float = BOUNDARY_TOL) -> int:
    """The fourth correlation forced by three equal perfect correlations.

    If measurements of (D11, D21), (D11, D22), and (D12, D21) are all
    perfectly correlated with the same sign s, a local realistic model
    must give the (D12, D22) pair the same perfect correlation s: the
    first pair fixes each particle's predetermined outcomes, and the
    other two propagate them to the remaining settings.
    """
    tol = _require_tolerance("tol", tol)
    names = ("e11", "e12", "e21")
    values = tuple(_require_finite(n, v) for n, v in zip(names, (e11, e12, e21)))
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


def _parse_weight(key: str, value: str) -> Fraction:
    """A weight entry as an exact Fraction, its exponent bounded first."""
    try:
        exponent = int(value.lower().partition("e")[2] or 0)
    except ValueError:
        exponent = 0  # not a decimal exponent: Fraction refuses the value
    if abs(exponent) > _MAX_WEIGHT_EXPONENT:
        raise DomainError(f"{key}: exponent beyond {_MAX_WEIGHT_EXPONENT} in magnitude: {value!r}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"{key}: not a number: {value!r}") from None


def _parse_number_list(key: str, text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise DomainError(f"{key}: expected comma-separated numbers, got {text!r}") from None


def strategy_from_text(text: str) -> LhvStrategy:
    """Parse a key = value strategy description.

    Mixture form: 'type = mixture' plus weight_LLLL entries, LLLL a
    p/m code over (a1, a2, b1, b2); weights accept fractions ('1/3')
    and decimals, kept exact (a decimal exponent beyond 1000 in
    magnitude is refused). Stochastic form: 'type = stochastic' with
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
            components.append((_parse_weight(key, value), assignment))
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


# Bind this module's public names in the package namespace.
from . import _publish

_publish(globals())
