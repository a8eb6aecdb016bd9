"""Joint outcome probabilities and the correlation function for a setting pair.

For a state c1|u1 u2> + c2|v1 v2> measured with particle-1 angles
(beta1, delta1) and particle-2 angles (beta2, delta2), the four joint
outcome probabilities are, with d = delta1 - delta2 and
x = (1/2) c1 c2 cos(d) sin(2 beta1) sin(2 beta2):

    P(+1,+1) = c1^2 cos^2(b1) cos^2(b2) + c2^2 sin^2(b1) sin^2(b2) + x
    P(-1,-1) = c1^2 sin^2(b1) sin^2(b2) + c2^2 cos^2(b1) cos^2(b2) + x
    P(+1,-1) = c1^2 cos^2(b1) sin^2(b2) + c2^2 sin^2(b1) cos^2(b2) - x
    P(-1,+1) = c1^2 sin^2(b1) cos^2(b2) + c2^2 cos^2(b1) sin^2(b2) - x

They sum to one, and the expectation of the outcome product reduces to

    E = cos(2 b1) cos(2 b2) + 2 c1 c2 cos(d) sin(2 b1) sin(2 b2).

Each formula is written once, as plain arithmetic over precomputed
cos/sin values. The batch_* functions feed it numpy trig and so take
scalars or broadcast numpy arrays; the object-level API feeds it math
trig and wraps the result in validated value types. The four-pair
probability table of an ExperimentConfig is computed once and kept on
the instance (_pair_tables); every probability-route function reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .qstate import (
    BOUNDARY_TOL,
    PAIR_ORDER,
    ROUNDING_TOL,
    DomainError,
    ExperimentConfig,
    MeasurementSetting,
    SchmidtState,
    _require_tolerance,
)

__all__ = [
    "JointDistribution",
    "CorrelationSet",
    "PerfectCorrelation",
    "batch_probabilities",
    "batch_correlation",
    "joint_distribution",
    "pair_distributions",
    "correlation",
    "correlation_set",
    "is_perfectly_correlated",
]


def _probability_kernel(c1, c2, cb1, sb1, cb2, sb2, cos_d):
    """(p_pp, p_mm, p_pm, p_mp) from cos/sin of beta1, beta2 and cos(d).

    Plain arithmetic: floats and broadcast numpy arrays both work.
    """
    cc = cb1 * cb1 * cb2 * cb2
    ss = sb1 * sb1 * sb2 * sb2
    cs = cb1 * cb1 * sb2 * sb2
    sc = sb1 * sb1 * cb2 * cb2
    c1sq = c1 * c1
    c2sq = c2 * c2
    # 1/2 sin(2b1) sin(2b2) = 2 sin(b1) cos(b1) sin(b2) cos(b2)
    cross = 2.0 * c1 * c2 * cos_d * sb1 * cb1 * sb2 * cb2
    p_pp = c1sq * cc + c2sq * ss + cross
    p_mm = c1sq * ss + c2sq * cc + cross
    p_pm = c1sq * cs + c2sq * sc - cross
    p_mp = c1sq * sc + c2sq * cs - cross
    return p_pp, p_mm, p_pm, p_mp


def _correlation_kernel(c1, c2, c2b1, s2b1, c2b2, s2b2, cos_d):
    """E from cos/sin of 2 beta1, 2 beta2 and cos(d); plain arithmetic."""
    return c2b1 * c2b2 + 2.0 * c1 * c2 * cos_d * s2b1 * s2b2


def batch_probabilities(c1, c2, beta1, beta2, delta12):
    """Return (p_pp, p_mm, p_pm, p_mp); inputs broadcast like numpy ufuncs."""
    import numpy as np

    return _probability_kernel(
        c1, c2, np.cos(beta1), np.sin(beta1), np.cos(beta2), np.sin(beta2), np.cos(delta12)
    )


def batch_correlation(c1, c2, beta1, beta2, delta12):
    """Expectation of the outcome product; inputs broadcast."""
    import numpy as np

    b1, b2 = 2.0 * beta1, 2.0 * beta2
    return _correlation_kernel(
        c1, c2, np.cos(b1), np.sin(b1), np.cos(b2), np.sin(b2), np.cos(delta12)
    )


# Index of each outcome pair (outcome1, outcome2) in a probability table,
# which is ordered like _probability_kernel's result.
_TABLE_INDEX = {(1, 1): 0, (-1, -1): 1, (1, -1): 2, (-1, 1): 3}

_TABLE_NAMES = ("p_pp", "p_mm", "p_pm", "p_mp")


def _checked_table(table) -> tuple[float, float, float, float]:
    """(p_pp, p_mm, p_pm, p_mp) as floats, entries within rounding
    tolerance of [0, 1] clamped onto it; ValueError unless every entry is
    that close and the four sum to one within the same tolerance.

    Rounding residue never grows this large; a violation means a formula
    bug upstream, not bad user input.
    """
    p_pp, p_mm, p_pm, p_mp = table = tuple(map(float, table))
    if not (0.0 <= p_pp <= 1.0 and 0.0 <= p_mm <= 1.0 and 0.0 <= p_pm <= 1.0
            and 0.0 <= p_mp <= 1.0):
        for name, value in zip(_TABLE_NAMES, table):
            if not -ROUNDING_TOL <= value <= 1.0 + ROUNDING_TOL:
                raise ValueError(f"internal error: {name} = {value!r} is not a probability")
        p_pp, p_mm, p_pm, p_mp = table = tuple(min(max(value, 0.0), 1.0) for value in table)
    residue = abs(p_pp + p_mm + p_pm + p_mp - 1.0)
    if residue > ROUNDING_TOL:
        raise ValueError(f"internal error: probabilities sum to 1 {residue:.3e} off")
    return table


@dataclass(frozen=True)
class JointDistribution:
    """The four outcome probabilities for one setting pair.

    Entries within rounding tolerance of [0, 1] are clamped onto it;
    the four entries must sum to one within the same tolerance.
    """

    p_pp: float
    p_mm: float
    p_pm: float
    p_mp: float

    def __post_init__(self) -> None:
        table = _checked_table((self.p_pp, self.p_mm, self.p_pm, self.p_mp))
        for name, value in zip(_TABLE_NAMES, table):
            object.__setattr__(self, name, value)

    def probability(self, outcome1: int, outcome2: int) -> float:
        """P(first particle -> outcome1, second -> outcome2), outcomes +-1."""
        try:
            index = _TABLE_INDEX[(outcome1, outcome2)]
        except (KeyError, TypeError):
            raise DomainError(
                f"outcomes must be +1 or -1, got ({outcome1!r}, {outcome2!r})"
            ) from None
        return (self.p_pp, self.p_mm, self.p_pm, self.p_mp)[index]

    @property
    def equal_outcome(self) -> float:
        """Probability that the two outcomes agree."""
        return self.p_pp + self.p_mm

    @property
    def expectation(self) -> float:
        """Expectation of the outcome product."""
        return self.p_pp + self.p_mm - self.p_pm - self.p_mp


@dataclass(frozen=True)
class CorrelationSet:
    """The four correlations e_kl = E(D_1k, D_2l) of a full experiment."""

    e11: float
    e12: float
    e21: float
    e22: float

    def __post_init__(self) -> None:
        for name in ("e11", "e12", "e21", "e22"):
            value = float(getattr(self, name))
            if not abs(value) <= 1.0 + ROUNDING_TOL:
                raise ValueError(
                    f"internal error: |{name}| = {abs(value)!r} exceeds 1"
                )
            object.__setattr__(self, name, value)


class PerfectCorrelation(Enum):
    CORRELATED = 1
    ANTICORRELATED = -1


def _delta12(s1: MeasurementSetting, s2: MeasurementSetting) -> float:
    return s1.delta - s2.delta


def joint_distribution(
    state: SchmidtState, s1: MeasurementSetting, s2: MeasurementSetting
) -> JointDistribution:
    """Joint outcome probabilities for particle-1 setting s1, particle-2 s2."""
    b1, b2 = s1.beta, s2.beta
    return JointDistribution(
        *_probability_kernel(
            state.c1, state.c2, math.cos(b1), math.sin(b1), math.cos(b2), math.sin(b2),
            math.cos(_delta12(s1, s2)),
        )
    )


def _pair_tables(config: ExperimentConfig) -> tuple[tuple[float, float, float, float], ...]:
    """The checked (p_pp, p_mm, p_pm, p_mp) tables of the four setting
    pairs, in PAIR_ORDER, computed once per config.

    The config is immutable, so the tables are stored on the instance at
    first use (outside the dataclass fields, so equality, hashing, repr
    and pickling do not see them) and every later call returns them.
    """
    tables = config.__dict__.get("_pair_tables")
    if tables is None:
        c1, c2 = config.state.c1, config.state.c2
        # cos/sin of each beta once; the nested loops run in PAIR_ORDER.
        particle1, particle2 = (
            [(math.cos(s.beta), math.sin(s.beta), s.delta) for s in settings]
            for settings in ((config.d11, config.d12), (config.d21, config.d22))
        )
        tables = tuple(
            _checked_table(_probability_kernel(c1, c2, cb1, sb1, cb2, sb2, math.cos(d1 - d2)))
            for cb1, sb1, d1 in particle1
            for cb2, sb2, d2 in particle2
        )
        object.__setattr__(config, "_pair_tables", tables)
    return tables


def pair_distributions(config: ExperimentConfig) -> tuple[JointDistribution, ...]:
    """The joint distributions of the four setting pairs, in PAIR_ORDER:
    (D11,D21), (D11,D22), (D12,D21), (D12,D22)."""
    return tuple(JointDistribution(*table) for table in _pair_tables(config))


def correlation(
    state: SchmidtState, s1: MeasurementSetting, s2: MeasurementSetting
) -> float:
    """Expectation of the outcome product, from the closed form."""
    b1, b2 = 2.0 * s1.beta, 2.0 * s2.beta
    return _correlation_kernel(
        state.c1, state.c2, math.cos(b1), math.sin(b1), math.cos(b2), math.sin(b2),
        math.cos(_delta12(s1, s2)),
    )


def correlation_set(config: ExperimentConfig) -> CorrelationSet:
    """Evaluate all four correlations of an ExperimentConfig, in PAIR_ORDER."""
    return CorrelationSet(
        *(correlation(config.state, *config.pair(k, l)) for k, l in PAIR_ORDER)
    )


def is_perfectly_correlated(
    state: SchmidtState,
    s1: MeasurementSetting,
    s2: MeasurementSetting,
    tol: float = BOUNDARY_TOL,
) -> PerfectCorrelation | None:
    """Classify the pair as perfectly (anti)correlated, or neither."""
    tol = _require_tolerance("tol", tol)
    value = correlation(state, s1, s2)
    if value >= 1.0 - tol:
        return PerfectCorrelation.CORRELATED
    if value <= -1.0 + tol:
        return PerfectCorrelation.ANTICORRELATED
    return None


# Bind this module's public names in the package namespace.
from . import _publish

_publish(globals())
