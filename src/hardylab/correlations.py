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

The batch_* functions evaluate these formulas on scalars or numpy
arrays (broadcasting); the object-level API wraps them in validated
value types.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .qstate import (
    OUTCOME_ORDER,
    PAIR_ORDER,
    DomainError,
    ExperimentConfig,
    MeasurementSetting,
    SchmidtState,
    _require_finite,
)

__all__ = [
    "ROUNDING_TOL",
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

ROUNDING_TOL = 1e-12


def batch_probabilities(c1, c2, beta1, beta2, delta12):
    """Return (p_pp, p_mm, p_pm, p_mp); inputs broadcast like numpy ufuncs."""
    cb1, sb1 = np.cos(beta1), np.sin(beta1)
    cb2, sb2 = np.cos(beta2), np.sin(beta2)
    cc = cb1 * cb1 * cb2 * cb2
    ss = sb1 * sb1 * sb2 * sb2
    cs = cb1 * cb1 * sb2 * sb2
    sc = sb1 * sb1 * cb2 * cb2
    c1sq = c1 * c1
    c2sq = c2 * c2
    # 1/2 sin(2b1) sin(2b2) = 2 sin(b1) cos(b1) sin(b2) cos(b2)
    cross = 2.0 * c1 * c2 * np.cos(delta12) * sb1 * cb1 * sb2 * cb2
    p_pp = c1sq * cc + c2sq * ss + cross
    p_mm = c1sq * ss + c2sq * cc + cross
    p_pm = c1sq * cs + c2sq * sc - cross
    p_mp = c1sq * sc + c2sq * cs - cross
    return p_pp, p_mm, p_pm, p_mp


def batch_correlation(c1, c2, beta1, beta2, delta12):
    """Expectation of the outcome product; inputs broadcast."""
    return np.cos(2.0 * beta1) * np.cos(2.0 * beta2) + 2.0 * c1 * c2 * np.cos(
        delta12
    ) * np.sin(2.0 * beta1) * np.sin(2.0 * beta2)


def _clamp_probability(name: str, value: float) -> float:
    value = float(value)
    if value < -ROUNDING_TOL or value > 1.0 + ROUNDING_TOL:
        # Rounding residue never grows this large; a violation means a
        # formula bug upstream, not bad user input.
        raise ValueError(f"internal error: {name} = {value!r} is not a probability")
    return min(max(value, 0.0), 1.0)


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
        for name in ("p_pp", "p_mm", "p_pm", "p_mp"):
            object.__setattr__(self, name, _clamp_probability(name, getattr(self, name)))
        residue = abs(self.p_pp + self.p_mm + self.p_pm + self.p_mp - 1.0)
        if residue > ROUNDING_TOL:
            raise ValueError(
                f"internal error: probabilities sum to 1 {residue:.3e} off"
            )

    def probability(self, outcome1: int, outcome2: int) -> float:
        """P(first particle -> outcome1, second -> outcome2), outcomes +-1."""
        entries = (self.p_pp, self.p_pm, self.p_mp, self.p_mm)  # OUTCOME_ORDER
        try:
            return entries[OUTCOME_ORDER.index((outcome1, outcome2))]
        except ValueError:
            raise DomainError(
                f"outcomes must be +1 or -1, got ({outcome1!r}, {outcome2!r})"
            ) from None

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
            if abs(value) > 1.0 + ROUNDING_TOL:
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
    p_pp, p_mm, p_pm, p_mp = batch_probabilities(
        state.c1, state.c2, s1.beta, s2.beta, _delta12(s1, s2)
    )
    return JointDistribution(float(p_pp), float(p_mm), float(p_pm), float(p_mp))


def pair_distributions(config: ExperimentConfig) -> tuple[JointDistribution, ...]:
    """The joint distributions of the four setting pairs, in PAIR_ORDER:
    (D11,D21), (D11,D22), (D12,D21), (D12,D22)."""
    return tuple(
        joint_distribution(config.state, *config.pair(k, l)) for k, l in PAIR_ORDER
    )


def correlation(
    state: SchmidtState, s1: MeasurementSetting, s2: MeasurementSetting
) -> float:
    """Expectation of the outcome product, from the closed form."""
    return float(
        batch_correlation(state.c1, state.c2, s1.beta, s2.beta, _delta12(s1, s2))
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
    tol: float = 1e-9,
) -> PerfectCorrelation | None:
    """Classify the pair as perfectly (anti)correlated, or neither."""
    tol = _require_finite("tol", tol)
    if tol <= 0:
        raise DomainError(f"tol must be positive, got {tol!r}")
    value = correlation(state, s1, s2)
    if value >= 1.0 - tol:
        return PerfectCorrelation.CORRELATED
    if value <= -1.0 + tol:
        return PerfectCorrelation.ANTICORRELATED
    return None
