"""Hardy-type nonlocality conditions for two-qubit Schmidt states.

A Hardy system is a set of four setting pairs where three joint
probabilities vanish while the fourth is strictly positive:

    P(D11 = -1, D21 = -1) = 0
    P(D11 = +1, D22 = +1) = 0
    P(D12 = +1, D21 = +1) = 0
    P(D12 = +1, D22 = +1) > 0

No local realistic model can satisfy all four at once. Three sign
variants of the same contradiction exist: flip every outcome, flip only
particle 1's outcomes, or flip only particle 2's outcomes.

With all relative phases zero (cos of every phase difference = +1), the
vanishing of an equal-outcome probability is governed by a one-line
criterion: P(+1,+1) = 0 iff tan(b1) tan(b2) = -c1/c2, because the
probability factors as c2^2 cos^2(b1) cos^2(b2) (tan(b1) tan(b2) + c1/c2)^2,
a perfect square with a unique root. The three zero conditions then pin
three of the four angles in terms of the free one (beta0 = beta12):

    tan(beta11) = (c2/c1)^2 tan(beta0)
    tan(beta21) = -(c1/c2)   cot(beta0)
    tan(beta22) = -(c1/c2)^3 cot(beta0)

which forces tan(beta12) tan(beta22) = -(c1/c2)^3. For a partially
entangled state this differs from -c1/c2, so the fourth probability is
automatically positive; for a maximally entangled state it collapses to
the vanishing criterion and the construction dies; that failure is
exposed by maximal_entanglement_forcing below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .correlations import _TABLE_INDEX, _pair_tables
from .qstate import (
    BOUNDARY_TOL,
    ZERO_TOL,
    DomainError,
    EntanglementClass,
    ExperimentConfig,
    HardyVariant,
    MeasurementSetting,
    SchmidtState,
    _entanglement_flags,
    _require_finite,
    _require_real,
    _require_tolerance,
    entanglement_class,
)

__all__ = [
    "DegenerateBeta0",
    "NotPartiallyEntangled",
    "HardyVariant",
    "HardyCheck",
    "HardySolution",
    "solve_vanishing_condition",
    "solve_hardy",
    "check_hardy",
    "maximal_entanglement_forcing",
    "hardy_inequality_lhs_rhs",
]


class DegenerateBeta0(DomainError):
    """beta0 sits at a multiple of pi/2, where the angle chain degenerates."""


class NotPartiallyEntangled(DomainError):
    """Hardy systems exist only for partially entangled states."""


def _require_variant(variant) -> HardyVariant:
    """The HardyVariant given as a member or its value; DomainError otherwise."""
    try:
        return HardyVariant(variant)
    except ValueError:
        raise DomainError(f"unknown Hardy variant {variant!r}") from None


@dataclass(frozen=True)
class HardyCheck:
    """The three must-vanish probabilities, the must-be-positive one, and
    the verdict under the tolerance used by check_hardy."""

    p_a: float
    p_b: float
    p_c: float
    p_d: float
    satisfied: bool


@dataclass(frozen=True)
class HardySolution:
    """Angles solving the three zero conditions for a given state.

    The stored angles are the canonical chain values (principal
    arctangent branch, all deltas zero), independent of the variant;
    config() materializes the variant's outcome relabeling as a
    beta -> beta + pi/2 shift on the flipped particle's settings, which
    swaps that particle's two eigenvectors.
    """

    state: SchmidtState
    beta0: float
    beta11: float
    beta21: float
    beta22: float
    deltas: tuple[float, float, float, float]
    variant: HardyVariant = HardyVariant.CANONICAL

    def __post_init__(self) -> None:
        object.__setattr__(self, "variant", _require_variant(self.variant))

    @property
    def beta12(self) -> float:
        return self.beta0

    def config(self) -> ExperimentConfig:
        f1, f2 = self.variant.sign_factors
        shift1 = 0.0 if f1 == 1 else math.pi / 2.0
        shift2 = 0.0 if f2 == 1 else math.pi / 2.0
        d11, d12, d21, d22 = self.deltas
        return ExperimentConfig(
            state=self.state,
            d11=MeasurementSetting(self.beta11 + shift1, d11),
            d12=MeasurementSetting(self.beta12 + shift1, d12),
            d21=MeasurementSetting(self.beta21 + shift2, d21),
            d22=MeasurementSetting(self.beta22 + shift2, d22),
        )

    def hardy_probability(self) -> float:
        """The strictly positive probability of the fourth condition."""
        return check_hardy(self.config(), self.variant).p_d


def _hardy_domain(c1, c2, sin_2beta0):
    """(product, maximal, degenerate_beta0) flags of the Hardy domain.

    The one Hardy-domain test, shared by solve_hardy, delta_closed_form
    and the scan. c1, c2 are coefficient magnitudes and a
    NaN sin(2 beta0) (from a non-finite beta0) counts as degenerate. Plain
    arithmetic: floats and broadcast numpy arrays both work.
    """
    product, maximal = _entanglement_flags(c1, c2)
    degenerate = (abs(sin_2beta0) < BOUNDARY_TOL) | (sin_2beta0 != sin_2beta0)
    return product, maximal, degenerate


def _require_hardy_domain(c1: float, c2: float, beta0: float) -> float:
    """beta0 as a float; raise unless it and the magnitudes c1, c2 admit a
    Hardy solution."""
    beta0 = _require_real("beta0", beta0)
    finite = math.isfinite(beta0)
    sin_2beta0 = math.sin(2.0 * beta0) if finite else math.nan
    product, maximal, degenerate = _hardy_domain(c1, c2, sin_2beta0)
    if product or maximal:
        kind = "product" if product else "maximally entangled"
        raise NotPartiallyEntangled(f"{kind} state admits no Hardy solution")
    if not finite:
        raise DomainError(f"beta0 must be finite, got {beta0!r}")
    if degenerate:
        raise DegenerateBeta0(f"beta0 = {beta0!r} rad is too close to a multiple of pi/2")
    return beta0


def solve_vanishing_condition(ratio_a: float) -> float:
    """Root of the vanishing criterion for an equal-outcome probability.

    With cos of the phase difference equal to +1, the probability is
    proportional to (x + a)^2 where x = tan(b1) tan(b2) and a is the
    coefficient ratio (c1/c2 for the (+1,+1) entry, c2/c1 for the
    (-1,-1) entry). A perfect square vanishes only at x = -a, so that
    value is returned; there is no other root.
    """
    ratio_a = _require_real("ratio", ratio_a)
    if not math.isfinite(ratio_a):
        raise DomainError(
            "coefficient ratio is undefined (division by a zero coefficient)"
        )
    return -ratio_a


def solve_hardy(
    state: SchmidtState,
    beta0: float,
    variant: HardyVariant = HardyVariant.CANONICAL,
) -> HardySolution:
    """Solve the three zero conditions with beta12 = beta0 free.

    Raises NotPartiallyEntangled for product or maximally entangled
    states, and DegenerateBeta0 when beta0 is within tolerance of a
    multiple of pi/2 (the chain needs both tan(beta0) and cot(beta0)).
    """
    beta0 = _require_hardy_domain(abs(state.c1), abs(state.c2), beta0)
    ratio = state.c1 / state.c2
    tan0 = math.tan(beta0)
    return HardySolution(
        state=state,
        beta0=beta0,
        beta11=math.atan(tan0 / (ratio * ratio)),
        beta21=math.atan(-ratio / tan0),
        beta22=math.atan(-(ratio**3) / tan0),
        deltas=(0.0, 0.0, 0.0, 0.0),
        variant=variant,
    )


def check_hardy(
    config: ExperimentConfig,
    variant: HardyVariant = HardyVariant.CANONICAL,
    zero_tol: float = ZERO_TOL,
) -> HardyCheck:
    """Evaluate the four condition probabilities on a full experiment.

    With sign factors (f1, f2) from the variant, the conditions read
    P(D11=-f1, D21=-f2) = 0, P(D11=+f1, D22=+f2) = 0,
    P(D12=+f1, D21=+f2) = 0, and P(D12=+f1, D22=+f2) > 0. A config is
    satisfied when the first three are at most zero_tol and the fourth
    exceeds it. The four probabilities are the (-f1, -f2) entry of the
    first pair_distributions table and the (f1, f2) entry of the others.
    """
    zero_tol = _require_tolerance("zero_tol", zero_tol)
    f1, f2 = _require_variant(variant).sign_factors
    first, second, third, fourth = _pair_tables(config)
    same, flipped = _TABLE_INDEX[(f1, f2)], _TABLE_INDEX[(-f1, -f2)]
    p_a = first[flipped]
    p_b = second[same]
    p_c = third[same]
    p_d = fourth[same]
    satisfied = max(p_a, p_b, p_c) <= zero_tol and p_d > zero_tol
    return HardyCheck(p_a=p_a, p_b=p_b, p_c=p_c, p_d=p_d, satisfied=satisfied)


def maximal_entanglement_forcing(
    state: SchmidtState,
    beta11: float,
    beta12: float,
    beta21: float,
    beta22: float,
    tol: float = BOUNDARY_TOL,
) -> float:
    """The fourth tangent product forced at maximal entanglement.

    For |c1| = |c2| with equal signs and zero phases, the three zero
    conditions become tan(b11) tan(b21) = tan(b11) tan(b22) =
    tan(b12) tan(b21) = -1. Those three relations algebraically force
    tan(b12) tan(b22) = -1 as well, the perfect anticorrelation that
    kills the fourth condition. The function verifies the preconditions,
    returns tan(beta12) * tan(beta22), and raises if it strays from -1
    by more than tol (the preconditions should hold comfortably tighter
    than tol for the bound to be meaningful).
    """
    tol = _require_tolerance("tol", tol)
    if entanglement_class(state, tol) is not EntanglementClass.MAXIMAL:
        raise DomainError("state is not maximally entangled")
    if state.c1 * state.c2 < 0:
        raise DomainError("coefficients must carry the same sign")
    t11, t12, t21, t22 = (
        math.tan(_require_finite(f"beta{k}", b))
        for k, b in zip(("11", "12", "21", "22"), (beta11, beta12, beta21, beta22))
    )
    for label, product in (
        ("tan(b11) tan(b21)", t11 * t21),
        ("tan(b11) tan(b22)", t11 * t22),
        ("tan(b12) tan(b21)", t12 * t21),
    ):
        if abs(product + 1.0) > tol:
            raise DomainError(
                f"precondition failed: {label} = {product!r}, expected -1"
            )
    forced = t12 * t22
    if abs(forced + 1.0) > tol:
        raise DomainError(
            f"forced product tan(b12) tan(b22) = {forced!r} strays from -1"
        )
    return forced


def hardy_inequality_lhs_rhs(config: ExperimentConfig) -> tuple[float, float]:
    """Both sides of the probability form of the nonlocality argument.

    Local realism requires

        P(D12=+1, D22=+1) <= P(D11=-1, D21=-1)
                           + P(D11=+1, D22=+1)
                           + P(D12=+1, D21=+1)

    so a return of lhs > rhs certifies a violation: lhs is p_d and rhs
    is p_a + p_b + p_c of the canonical check_hardy.
    """
    check = check_hardy(config)
    return check.p_d, check.p_a + check.p_b + check.p_c


# Bind this module's public names in the package namespace.
from . import _publish

_publish(globals())
