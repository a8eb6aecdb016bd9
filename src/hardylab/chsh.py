"""CHSH parameter evaluation, the violation surface, and its optimizer.

The CHSH parameter of a full experiment is

    Delta = |E(D11,D21) + E(D11,D22) + E(D12,D21) - E(D12,D22)|

bounded by 2 for local realistic models and by 2*sqrt(2) quantum
mechanically. Three equivalent evaluation routes are implemented: from
the four correlations directly, from joint probabilities via
E = 2 P(equal outcomes) - 1, and, for experiments solving the Hardy
zero conditions, a five-term closed form in (c1^2, beta0) alone. On
the solved family the parameter obeys the identity

    Delta = 2 + 4 P(D12=+1, D22=+1)

so its maximum over states and angles is 2 + 4/tau^5 with tau the
golden mean, attained near (c1^2, beta0) = (0.177352, 17.5566 deg).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .correlations import CorrelationSet, batch_probabilities, correlation_set, pair_distributions
from .hardy import DEGENERATE_BETA0_TOL, DegenerateBeta0, NotPartiallyEntangled, _entanglement_defect
from .qstate import DomainError, ExperimentConfig, make_state

__all__ = [
    "GOLDEN_MEAN",
    "DELTA_MAX",
    "OPTIMAL_C1_SQUARED",
    "OPTIMAL_BETA0_DEG",
    "VIOLATION_TOL",
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

# Maximizer of the violation surface, quoted to the precision used for
# CLI verification; the mirrored point (1 - c1^2, 90 deg - beta0) and
# sign/period images of beta0 are equivalent.
OPTIMAL_C1_SQUARED = 0.177352
OPTIMAL_BETA0_DEG = 17.5566

VIOLATION_TOL = 1e-9


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


def evaluate(config: ExperimentConfig, tol: float = VIOLATION_TOL) -> ChshResult:
    """Evaluate the CHSH parameter of a full experiment."""
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
    p11, p12, p21, p22 = (dist.equal_outcome for dist in pair_distributions(config))
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
    c1_squared = float(c1_squared)
    beta0 = float(beta0)
    if not 0.0 < c1_squared < 1.0:
        raise DomainError(
            f"c1_squared must lie strictly inside (0, 1), got {c1_squared!r}"
        )
    defect = _entanglement_defect(make_state(c1_squared))
    if defect:
        raise NotPartiallyEntangled(defect)
    if abs(math.sin(2.0 * beta0)) < DEGENERATE_BETA0_TOL:
        raise DegenerateBeta0(
            f"beta0 = {beta0!r} rad is too close to a multiple of pi/2"
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
        i, j = np.unravel_index(int(np.argmax(self.delta)), self.delta.shape)
        return float(self.c1_squared[i]), float(self.beta0_deg[j]), float(self.delta[i, j])


def _scan_block(c1sq: np.ndarray, beta0: np.ndarray):
    """delta, p_hardy, degenerate arrays for one block of c1^2 values."""
    x = c1sq[:, None]
    b = beta0[None, :]
    off_domain = [_entanglement_defect(make_state(v)) is not None for v in c1sq]
    degenerate = np.array(off_domain)[:, None] | (
        np.abs(np.sin(2.0 * b)) < DEGENERATE_BETA0_TOL
    )
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tan = np.tan(b)
        cos = np.cos(b)
        delta = _five_term_delta(x, tan * tan, 1.0 / (tan * tan), cos * cos)
        # Hardy probability P(D12=+1, D22=+1) on the solved angles.
        c1 = np.sqrt(np.clip(x, 0.0, 1.0))
        c2 = np.sqrt(np.clip(1.0 - x, 0.0, 1.0))
        ratio = np.where(c2 > 0.0, c1 / np.where(c2 > 0.0, c2, 1.0), np.inf)
        beta22 = np.arctan2(-(ratio**3), tan)
        p_hardy = batch_probabilities(c1, c2, b, beta22, 0.0)[0]
    delta = np.where(degenerate, 2.0, delta)
    p_hardy = np.where(degenerate, 0.0, p_hardy)
    return delta, p_hardy, degenerate


def scan_surface(
    c1_sq_steps: int, beta0_steps: int, workers: int | None = None
) -> ScanGrid:
    """Scan the violation surface on a c1_sq_steps x beta0_steps grid.

    Cells are independent; with workers > 1 the c1^2 axis is split into
    contiguous blocks computed in parallel and reassembled in index
    order, so the result never depends on scheduling.
    """
    if c1_sq_steps < 2 or beta0_steps < 2:
        raise DomainError("both axes need at least 2 steps")
    c1sq_axis = np.linspace(0.0, 1.0, int(c1_sq_steps))
    beta0_deg_axis = np.linspace(0.0, 90.0, int(beta0_steps))
    beta0_axis = np.radians(beta0_deg_axis)

    workers = 1 if workers is None else max(1, int(workers))
    workers = min(workers, c1sq_axis.size)
    if workers == 1:
        delta, p_hardy, degenerate = _scan_block(c1sq_axis, beta0_axis)
    else:
        blocks = np.array_split(np.arange(c1sq_axis.size), workers)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(
                pool.map(lambda idx: _scan_block(c1sq_axis[idx], beta0_axis), blocks)
            )
        delta = np.vstack([part[0] for part in parts])
        p_hardy = np.vstack([part[1] for part in parts])
        degenerate = np.vstack([part[2] for part in parts])

    return ScanGrid(
        c1_squared=c1sq_axis,
        beta0_deg=beta0_deg_axis,
        p_hardy=p_hardy,
        delta=delta,
        degenerate=degenerate,
    )


# ---------- optimizer ----------


def optimize_delta(
    coarse_c1_sq_steps: int = 201, coarse_beta0_steps: int = 181
) -> tuple[float, float, float]:
    """Locate the global maximum of the violation surface.

    Deterministic coarse grid followed by coordinate descent with
    shrinking steps (no randomness; the surface is smooth and
    two-dimensional). Returns (c1_squared, beta0 in radians, delta).
    """
    grid = scan_surface(coarse_c1_sq_steps, coarse_beta0_steps)
    i, j = np.unravel_index(int(np.argmax(grid.delta)), grid.delta.shape)
    x = float(grid.c1_squared[i])
    beta0 = math.radians(float(grid.beta0_deg[j]))
    best = float(grid.delta[i, j])

    step_x = float(grid.c1_squared[1] - grid.c1_squared[0])
    step_b = math.radians(float(grid.beta0_deg[1] - grid.beta0_deg[0]))
    while step_x > 1e-10 or step_b > 1e-10:
        improved = False
        for dx, db in ((step_x, 0.0), (-step_x, 0.0), (0.0, step_b), (0.0, -step_b)):
            nx, nb = x + dx, beta0 + db
            try:
                value = delta_closed_form(nx, nb)
            except DomainError:
                continue
            if value > best:
                x, beta0, best = nx, nb, value
                improved = True
        if not improved:
            step_x /= 2.0
            step_b /= 2.0
    return x, beta0, best


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
    diffs = beta_diffs if beta_diffs is not None else delta_diffs
    values = [float(v) for v in diffs]
    if len(values) != 4:
        raise DomainError(f"expected 4 angle differences, got {len(values)}")
    scale = 2.0 if beta_diffs is not None else 1.0
    d1, d2, d3, d4 = (scale * v for v in values)
    return abs(math.cos(d1) + math.cos(d2) + math.cos(d3) - math.cos(d4))
