"""CHSH parameter evaluation, the violation surface, and its maximum.

The CHSH parameter of a full experiment is

    Delta = |E(D11,D21) + E(D11,D22) + E(D12,D21) - E(D12,D22)|

bounded by 2 for local realistic models and by 2*sqrt(2) quantum
mechanically. Three equivalent evaluation routes are implemented: from
the four correlations directly, from joint probabilities via
E = 2 P(equal outcomes) - 1, and, for experiments solving the Hardy
zero conditions, a five-term closed form in (c1^2, beta0) alone. On
the solved family the parameter obeys the identity

    Delta = 2 + 4 P(D12=+1, D22=+1)

so its maximum is 4 times Hardy's largest probability, plus 2. For a
fixed state that probability is

    P*(c1, c2) = [c1 c2 (c1 - c2) / (1 - c1 c2)]^2  at  tan^2(beta0) = (c1/c2)^3,

and over states it peaks where r = c1/c2 solves r + 1/r = tau^2, tau
the golden mean: r = (tau^2 - sqrt(tau^4 - 4))/2, c1^2 = r^2/(1 + r^2),
tan^2(beta0) = r^3, P* = 1/tau^5 and Delta = 2 + 4/tau^5. The mirror
point (1 - c1^2, 90 deg - beta0), where c1/c2 = 1/r, is the other
maximizer in 0 < beta0 < 90 deg.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

from .correlations import CorrelationSet, _pair_tables, batch_probabilities, correlation_set
from .hardy import _hardy_domain, _require_hardy_domain
from .qstate import (
    BOUNDARY_TOL,
    DomainError,
    ExperimentConfig,
    _clamp_c1_squared,
    _require_count,
    _require_finite,
    _require_tolerance,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "GOLDEN_MEAN",
    "DELTA_MAX",
    "OPTIMAL_C1_SQUARED",
    "OPTIMAL_BETA0_DEG",
    "MAX_SCAN_CELLS",
    "ChshResult",
    "ScanGrid",
    "delta_from_correlations",
    "delta_from_probabilities",
    "delta_closed_form",
    "evaluate",
    "scan_surface",
    "optimize_delta",
    "maximal_free_angle_delta",
]

GOLDEN_MEAN = (1.0 + math.sqrt(5.0)) / 2.0

# Largest CHSH value reachable while the Hardy zero conditions hold.
DELTA_MAX = 2.0 + 4.0 * GOLDEN_MEAN**-5

# c1/c2 at the maximum: the root below 1 of r + 1/r = tau^2.
_OPTIMAL_RATIO = (GOLDEN_MEAN**2 - math.sqrt(GOLDEN_MEAN**4 - 4.0)) / 2.0

# The maximizer c1^2 = r^2/(1 + r^2), tan^2(beta0) = r^3; the mirror
# point (1 - c1^2, 90 deg - beta0) and sign/period images of beta0 are
# equivalent.
OPTIMAL_C1_SQUARED = _OPTIMAL_RATIO**2 / (1.0 + _OPTIMAL_RATIO**2)
OPTIMAL_BETA0_DEG = math.degrees(math.atan(_OPTIMAL_RATIO**1.5))

# Largest grid scan_surface accepts. A CLI scan peaks at about 110 bytes
# per cell, so the cap keeps one near 1.1 GB.
MAX_SCAN_CELLS = 10**7


@dataclass(frozen=True)
class ChshResult:
    """A CHSH evaluation: the parameter, its inputs, and the verdict."""

    delta: float
    correlations: CorrelationSet
    violated: bool


def delta_from_correlations(correlations: CorrelationSet) -> float:
    """|e11 + e12 + e21 - e22|; the (1,2)x(2,2) pair carries the minus."""
    return abs(
        correlations.e11 + correlations.e12 + correlations.e21 - correlations.e22
    )


def evaluate(config: ExperimentConfig, tol: float = BOUNDARY_TOL) -> ChshResult:
    """Evaluate the CHSH parameter of a full experiment."""
    tol = _require_tolerance("tol", tol)
    correlations = correlation_set(config)
    delta = delta_from_correlations(correlations)
    return ChshResult(
        delta=delta, correlations=correlations, violated=delta > 2.0 + tol
    )


def delta_from_probabilities(config: ExperimentConfig) -> float:
    """CHSH parameter from equal-outcome probabilities.

    Uses Delta = 2 |P=(D11,D21) + P=(D11,D22) + P=(D12,D21)
    - P=(D12,D22) - 1|, where P= is the probability that the two
    outcomes agree; equivalent to the correlation route through
    E = 2 P= - 1.
    """
    p11, p12, p21, p22 = (p_pp + p_mm for p_pp, p_mm, _, _ in _pair_tables(config))
    return 2.0 * abs(p11 + p12 + p21 - p22 - 1.0)


# ---------- closed form on the Hardy-solved family ----------


def _five_term_delta(x, tan_sq, cot_sq, cos_sq):
    """Five-term closed form; plain arithmetic, works on floats or arrays.

    x is c1^2 and the trigonometric squares are those of beta0. The
    fourth term equals the Hardy probability up to the overall factor,
    and the fourth and fifth terms share one denominator.
    """
    y = 1.0 - x
    square = (2.0 * x - 1.0) ** 2
    t1 = square / (1.0 + (y * y / x) * tan_sq + (x * x / y) * cot_sq)
    t2 = square / (1.0 + (y**3 / (x * x)) * tan_sq + (x**3 / (y * y)) * cot_sq)
    t3 = square * cos_sq / (y + x * cot_sq)
    shared = 1.0 + (x / y) ** 3 * cot_sq
    t4 = -x * (1.0 - x / y) ** 2 * cos_sq / shared
    t5 = -y * (1.0 - x * x / (y * y)) ** 2 * cos_sq / shared
    return 2.0 * abs(t1 + t2 + t3 + t4 + t5 - 1.0)


def delta_closed_form(c1_squared: float, beta0: float) -> float:
    """CHSH parameter of the Hardy-solved experiment at (c1^2, beta0).

    Defined where solve_hardy is: partially entangled states, beta0 away
    from multiples of pi/2. The excluded points form the degenerate locus
    where the limiting value is 2 (reported as such by scan_surface).
    """
    c1_squared = _clamp_c1_squared(_require_finite("c1_squared", c1_squared))
    beta0 = _require_hardy_domain(
        math.sqrt(c1_squared), math.sqrt(1.0 - c1_squared), beta0
    )
    tan = math.tan(beta0)
    cos = math.cos(beta0)
    return float(
        _five_term_delta(c1_squared, tan * tan, 1.0 / (tan * tan), cos * cos)
    )


# ---------- the violation surface ----------


@dataclass(frozen=True, eq=False)
class ScanGrid:
    """Uniform grid over the (c1^2, beta0) rectangle.

    Axes include both endpoints. Cells on the degenerate locus (product
    or maximally entangled c1^2, or beta0 a multiple of 90 deg) carry
    delta = 2, p_hardy = 0, and the degenerate flag; every other cell
    satisfies delta = 2 + 4 p_hardy to rounding.
    """

    c1_squared: np.ndarray
    beta0_deg: np.ndarray
    p_hardy: np.ndarray
    delta: np.ndarray
    degenerate: np.ndarray

    def __post_init__(self) -> None:
        shape = (self.c1_squared.size, self.beta0_deg.size)
        for name in ("p_hardy", "delta", "degenerate"):
            if getattr(self, name).shape != shape:
                raise ValueError(f"internal error: {name} shape is not {shape}")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.c1_squared.size, self.beta0_deg.size)

    def rows(self) -> Iterator[tuple[float, float, float, float, bool]]:
        """Yield (c1_squared, beta0_deg, p_hardy, delta, degenerate) row-major."""
        for i, x in enumerate(self.c1_squared):
            for j, b in enumerate(self.beta0_deg):
                yield (
                    float(x),
                    float(b),
                    float(self.p_hardy[i, j]),
                    float(self.delta[i, j]),
                    bool(self.degenerate[i, j]),
                )

    def max_cell(self) -> tuple[float, float, float]:
        """(c1_squared, beta0_deg, delta) of the largest-delta cell."""
        i, j = divmod(int(self.delta.argmax()), self.delta.shape[1])
        return float(self.c1_squared[i]), float(self.beta0_deg[j]), float(self.delta[i, j])


def scan_surface(c1_sq_steps: int, beta0_steps: int) -> ScanGrid:
    """Scan the violation surface on a c1_sq_steps x beta0_steps grid.

    Both counts must be integers of at least 2; a grid of more than
    MAX_SCAN_CELLS cells is refused before anything is allocated.
    """
    message = "both axes need at least 2 steps"
    n_x = _require_count(c1_sq_steps, 2, message)
    n_b = _require_count(beta0_steps, 2, message)
    if n_x * n_b > MAX_SCAN_CELLS:
        raise DomainError(
            f"a {n_x}x{n_b} grid exceeds the limit of {MAX_SCAN_CELLS} cells"
        )
    import numpy as np

    c1sq_axis = np.linspace(0.0, 1.0, n_x)
    beta0_deg_axis = np.linspace(0.0, 90.0, n_b)
    x = c1sq_axis[:, None]
    b = np.radians(beta0_deg_axis)[None, :]
    # The coefficients make_state would give: x lies in [0, 1] already.
    c1 = np.sqrt(x)
    c2 = np.sqrt(1.0 - x)
    product, maximal, bad_beta0 = _hardy_domain(c1, c2, np.sin(2.0 * b))
    degenerate = product | maximal | bad_beta0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tan = np.tan(b)
        cos = np.cos(b)
        delta = _five_term_delta(x, tan * tan, 1.0 / (tan * tan), cos * cos)
        # Hardy probability P(D12=+1, D22=+1) on the solved angles.
        ratio = np.where(c2 > 0.0, c1 / np.where(c2 > 0.0, c2, 1.0), np.inf)
        beta22 = np.arctan2(-(ratio**3), tan)
        p_hardy = batch_probabilities(c1, c2, b, beta22, 0.0)[0]
    return ScanGrid(
        c1_squared=c1sq_axis,
        beta0_deg=beta0_deg_axis,
        p_hardy=np.where(degenerate, 0.0, p_hardy),
        delta=np.where(degenerate, 2.0, delta),
        degenerate=degenerate,
    )


# ---------- the maximum ----------


def optimize_delta() -> tuple[float, float, float]:
    """The global maximum of the violation surface, in closed form.

    Returns (c1_squared, beta0 in radians, delta) at the mirror point
    c1^2 = 1/(1 + r^2), tan(beta0) = r^(-3/2); delta equals DELTA_MAX.
    """
    c1_squared = 1.0 / (1.0 + _OPTIMAL_RATIO**2)
    beta0 = math.atan(_OPTIMAL_RATIO**-1.5)
    return c1_squared, beta0, delta_closed_form(c1_squared, beta0)


# ---------- maximally entangled free-angle maxima ----------


def maximal_free_angle_delta(
    beta_diffs: Sequence[float] | None = None,
    delta_diffs: Sequence[float] | None = None,
) -> float:
    """CHSH parameter of a maximally entangled state with free settings.

    Exactly one argument must be given, each a sequence of the four
    pairwise differences ordered (11-21, 11-22, 12-21, 12-22). With the
    phase factor pinned to 2 c1 c2 cos(delta) = +1 every correlation is
    cos of twice the angle difference (beta_diffs mode); with the
    mixing angles pinned to odd multiples of pi/4 the correlations are
    cos of the phase differences themselves (delta_diffs mode). Both
    modes peak at 2*sqrt(2).
    """
    if (beta_diffs is None) == (delta_diffs is None):
        raise DomainError("pass exactly one of beta_diffs or delta_diffs")
    if beta_diffs is not None:
        name, diffs, scale = "beta_diffs", beta_diffs, 2.0
    else:
        name, diffs, scale = "delta_diffs", delta_diffs, 1.0
    try:
        items = list(diffs)
    except TypeError:
        raise DomainError(f"{name} must be a sequence of 4 numbers, got {diffs!r}") from None
    values = [_require_finite(f"{name}[{i}]", v) for i, v in enumerate(items)]
    if len(values) != 4:
        raise DomainError(f"expected 4 angle differences, got {len(values)}")
    d1, d2, d3, d4 = (scale * v for v in values)
    return abs(math.cos(d1) + math.cos(d2) + math.cos(d3) - math.cos(d4))


# Bind this module's public names in the package namespace.
from . import _publish

_publish(globals())
