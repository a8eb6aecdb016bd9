"""Local hidden-variable strategies, Monte Carlo trials, and polytope checks.

A local model assigns each particle pair a hidden state lambda drawn
from a setting-independent distribution; outcomes for the two particles
are then produced independently given lambda. Joint probabilities have
the factorized form

    P(D_1k = m, D_2l = n) = integral d(lambda) rho(lambda)
                            P(D_1k = m | lambda) P(D_2l = n | lambda)

Two representations are provided: a finite mixture of deterministic
outcome assignments (the extreme points), and a piecewise-constant
density on the unit interval with per-segment response probabilities.
By Fine's theorem the second induces a mixture over the 16 assignments.
Per setting pair, summing that one mixture form into the four outcome
cells gives the exact joint probabilities, and simulate samples those
four cells directly, one uniform per trial. Every assignment has CHSH
value exactly 2, so every local model obeys Delta <= 2; exact
(Fraction) mixture weights stay exact end to end so that bound can be
tested without tolerance.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain
from typing import TYPE_CHECKING, Union

from .qstate import BOUNDARY_TOL, OUTCOME_ORDER, PAIR_ORDER, ROUNDING_TOL, DomainError
from .qstate import _is_real, _key_value_lines, _require_count, _require_finite, _require_tolerance

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

# Largest trials_per_pair simulate accepts. A run peaks at about 16
# bytes per trial (tracemalloc, 10**6 trials, stochastic or mixture): at
# the cap, 160 MB and 0.3 s. The cap stays the documented lhv-sim limit
# rather than growing with the memory freed.
MAX_TRIALS = 10**7


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
        mass = sum(self.segment_masses)
        if abs(mass - 1.0) > BOUNDARY_TOL:
            raise DomainError(f"density integrates to {mass!r}, expected 1")

    def __getstate__(self) -> dict:
        # The fields only: the mixture cached on the instance is derived
        # from them and must not change the pickled bytes.
        return {field.name: getattr(self, field.name) for field in fields(self)}

    @cached_property
    def _components(self) -> tuple:
        """The (weight, assignment) mixture over ALL_ASSIGNMENTS that this
        model induces, built at first use: the float weight w(a) = sum over
        segments of mass * prod over D_ij of P(D_ij = a_ij | segment)."""
        import numpy as np

        n = len(self.densities)
        points = np.fromiter(self.breakpoints, float, n + 1)
        mass = np.fromiter(self.densities, float, n) * np.diff(points)
        # P(+1 | segment) of D11, D12, D21, D22, one contiguous row each.
        plus = np.fromiter(chain.from_iterable(self.responses), float, 4 * n).reshape(n, 4).T.copy()
        # both[obs] holds P(+1 | segment) and P(-1 | segment) of one observable.
        both = np.stack([plus, 1.0 - plus], axis=1)
        # Rows over (a1, a2) and over (b1, b2), +1 first: ALL_ASSIGNMENTS order.
        first = ((mass * both[0])[:, None] * both[1]).reshape(4, n)
        second = (both[2][:, None] * both[3]).reshape(4, n)
        return tuple(zip((first @ second.T).ravel().tolist(), ALL_ASSIGNMENTS))

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


def _assignment_mixture(strategy: LhvStrategy) -> tuple:
    """A strategy's (weight, assignment) components: a mixture's own,
    untouched, or the ones a stochastic model induces."""
    if isinstance(strategy, MixtureStrategy):
        return strategy.components
    if isinstance(strategy, StochasticStrategy):
        return strategy._components
    raise DomainError(f"unknown strategy type: {type(strategy).__name__}")


def _cell_weights(components: tuple, pair: tuple[int, int]) -> list:
    """The weights of a setting pair's four OUTCOME_ORDER cells: each
    component's weight added to the cell its assignment gives the pair,
    in the weights' own arithmetic and in component order."""
    first, second = ("a1", "a2")[pair[0] - 1], ("b1", "b2")[pair[1] - 1]
    cells = [0, 0, 0, 0]
    for weight, assignment in components:
        cells[2 * (getattr(assignment, first) < 0) + (getattr(assignment, second) < 0)] += weight
    return cells


def lhv_joint_probability(
    strategy: LhvStrategy,
    setting_pair: tuple[int, int],
    outcomes: tuple[int, int],
):
    """Joint probability of the given outcomes under a local strategy.

    The strategy's assignment mixture is summed term by term in the
    weights' own arithmetic: exact for Fraction mixtures, and for a
    stochastic model the exact integral of its piecewise-constant
    density, up to float rounding.
    """
    pair = _check_pair(setting_pair)
    cell = OUTCOME_ORDER.index(_check_outcomes(outcomes))
    return _cell_weights(_assignment_mixture(strategy), pair)[cell]


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
            bad = f"bad count row: {row!r}"
            if len(row) != 4:
                raise DomainError(bad)
            for count in row:
                _require_count(count, 0, bad)
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


def simulate(
    strategy: LhvStrategy,
    trials_per_pair: int,
    seed: int,
    workers: int | None = None,
) -> TrialTally:
    """Run trials_per_pair seeded trials for each of the four setting pairs.

    Each pair's four outcome cells are sampled with their exact weights
    (those lhv_joint_probability reports), one uniform per trial. The
    pairs run in PAIR_ORDER, each on its own (seed, pair index)
    substream, so reruns with the same seed give identical tallies.
    workers is accepted and ignored: sampling is serial, and the
    benchmark's local-models workload still passes it.
    """
    trials = _require_count(trials_per_pair, 1, "trials_per_pair must be a positive integer")
    if trials > MAX_TRIALS:
        raise DomainError(f"{trials} trials per pair exceed the limit of {MAX_TRIALS}")
    _require_count(seed, 0, f"seed must be a non-negative integer, got {seed!r}")
    components = _assignment_mixture(strategy)
    import numpy as np

    counts = []
    for i, pair in enumerate(PAIR_ORDER):
        *sums, total = accumulate(_cell_weights(components, pair))
        u = _pair_rng(seed, i).random(trials)
        # Cell j takes the draws in [c_(j-1), c_j) / c_4, c_0 = 0: a cell
        # of zero weight repeats a bound (after a trailing one it is
        # exactly 1.0), so it takes none.
        above = [trials, *(int(np.count_nonzero(u >= float(c / total))) for c in sums), 0]
        counts.append(tuple(a - b for a, b in zip(above, above[1:])))
    return TrialTally(trials_per_pair=trials, counts=tuple(counts))


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
    S = e11 + e12 + e21 + e22. Correlations must be numbers.Real (strings
    are refused) and become Fractions exactly, so there is no tolerance.
    """
    values = (e11, e12, e21, e22)
    try:
        if not all(map(_is_real, values)):
            raise TypeError("not a real number")
        target = [Fraction(v) for v in values]
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
            keys = [f"response_{index}" for index in range(1, len(breakpoints))]
            responses = [_parse_number_list(key, entries.pop(key)) for key in keys]
        except KeyError as exc:
            raise DomainError(f"missing {exc.args[0]!r} key") from None
        if entries:
            raise DomainError(f"unknown keys: {', '.join(sorted(entries))}")
        return StochasticStrategy(breakpoints, densities, responses)

    raise DomainError(f"unknown strategy type {kind!r}")


# Bind this module's public names in the package namespace.
from . import _publish

_publish(globals())
