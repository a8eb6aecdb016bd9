"""Independent reference implementations used only by the tests.

Probabilities are computed here from explicit complex state-vector
amplitudes: build the two-qubit vector, build each measurement's
eigenvectors, and square the inner product. No trigonometric closed
forms are shared with the package, so agreement is meaningful. The
local polytope is described here by its vertices, while the package
tests its facets. The CHSH maximum is located here in Decimal
arithmetic with square roots only. A piecewise LHV model's assignment
weights are summed here one segment at a time in plain Python, and each
trial's outcome cell is found by its own binary search, where the
package multiplies segment arrays and counts the draws past each cell
bound. Binomial tail bounds on a cell's count are summed from the exact
mass function. Nothing here imports hardylab.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import accumulate, combinations, product

import numpy as np

OUTCOMES = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def eigenvector(beta, alpha, gamma, outcome):
    """Components (on u, on v) of the +-1 eigenvector with free phases."""
    beta = np.asarray(beta, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    if outcome == 1:
        return (
            np.exp(1j * alpha) * np.cos(beta),
            np.exp(1j * gamma) * np.sin(beta),
        )
    return (
        -np.exp(-1j * gamma) * np.sin(beta),
        np.exp(-1j * alpha) * np.cos(beta),
    )


def oracle_probabilities(c1, c2, beta1, delta1, beta2, delta2):
    """Joint probability of every outcome pair, from raw amplitudes.

    delta1 is the particle-1 phase difference (gamma - alpha) and
    delta2 the particle-2 one (alpha - gamma); arbitrary individual
    phases consistent with those differences give the same result, so
    each is realized with one phase pinned to zero and checked against
    a second, shifted realization in the tests.

    Returns a dict {(m, n): probability}, broadcasting over inputs.
    """
    c1 = np.asarray(c1, dtype=float)
    c2 = np.asarray(c2, dtype=float)
    out = {}
    for m, n in OUTCOMES:
        u1, v1 = eigenvector(beta1, 0.0, np.asarray(delta1, dtype=float), m)
        u2, v2 = eigenvector(beta2, np.asarray(delta2, dtype=float), 0.0, n)
        amplitude = c1 * np.conj(u1) * np.conj(u2) + c2 * np.conj(v1) * np.conj(v2)
        out[(m, n)] = np.abs(amplitude) ** 2
    return out


def oracle_correlation(c1, c2, beta1, delta1, beta2, delta2):
    probs = oracle_probabilities(c1, c2, beta1, delta1, beta2, delta2)
    return probs[(1, 1)] + probs[(-1, -1)] - probs[(1, -1)] - probs[(-1, 1)]


# ---------- local polytope reference ----------

CORRELATION_VERTICES = tuple(
    sorted(
        {
            (a1 * b1, a1 * b2, a2 * b1, a2 * b2)
            for a1, a2, b1, b2 in product((1, -1), repeat=4)
        }
    )
)


def _exact_convex_combination(vertices, target) -> bool:
    """Exact test for target = sum w_i v_i with w_i >= 0, sum w_i = 1.

    Gaussian elimination over Fractions on the 5 x (s+1) system (four
    coordinates plus the affine constraint). Rank-deficient subsets are
    rejected: any point they cover is covered by one of their proper
    subsets as well.
    """
    s = len(vertices)
    rows = [[Fraction(v[i]) for v in vertices] + [target[i]] for i in range(4)]
    rows.append([Fraction(1)] * s + [Fraction(1)])
    pivot_rows = []
    used = [False] * 5
    for col in range(s):
        pivot = next((r for r in range(5) if not used[r] and rows[r][col] != 0), None)
        if pivot is None:
            return False
        used[pivot] = True
        pivot_rows.append(pivot)
        inv = 1 / rows[pivot][col]
        rows[pivot] = [value * inv for value in rows[pivot]]
        for r in range(5):
            if r != pivot and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[pivot])]
    if any(not used[r] and rows[r][s] != 0 for r in range(5)):
        return False
    return all(rows[pivot_rows[col]][s] >= 0 for col in range(s))


def vertex_hull_membership(e11, e12, e21, e22) -> bool:
    """V-representation check: the target is a convex combination of
    the correlation vertices.

    By Caratheodory's theorem a point of this 4-dimensional hull lies in
    the hull of at most 5 affinely independent vertices, so every
    support of up to 5 vertices is tried, each solved exactly.
    """
    target = [Fraction(v) for v in (e11, e12, e21, e22)]
    return any(
        _exact_convex_combination(subset, target)
        for size in range(1, 6)
        for subset in combinations(CORRELATION_VERTICES, size)
    )


def random_local_mixture(rng: np.random.Generator):
    """A random convex combination of the correlation vertices, exact.

    Returns (target tuple of Fractions, weights) with weights summing
    to exactly 1, so the target is realizable by construction.
    """
    raw = [Fraction(int(k), 1) for k in rng.integers(0, 10, len(CORRELATION_VERTICES))]
    total = sum(raw)
    if total == 0:
        raw[0] = Fraction(1)
        total = Fraction(1)
    weights = [w / total for w in raw]
    target = tuple(
        sum(w * Fraction(v[i]) for w, v in zip(weights, CORRELATION_VERTICES))
        for i in range(4)
    )
    return target, weights


# ---------- per-trial LHV sampling reference ----------

PAIRS = ((1, 1), (1, 2), (2, 1), (2, 2))


def reference_assignment_weights(strategy):
    """The weight a piecewise model puts on each deterministic assignment.

    Assignments are sign tuples (a1, a2, b1, b2), +1 before -1 and a1
    slowest. Each segment adds its mass times the probability, under its
    response row, of the four predetermined outcomes, one segment and one
    assignment at a time.
    """
    weights = [0.0] * 16
    points = strategy.breakpoints
    for density, lo, hi, row in zip(strategy.densities, points, points[1:], strategy.responses):
        mass = density * (hi - lo)
        for index, signs in enumerate(product((1, -1), repeat=4)):
            weight = mass
            for p_plus, sign in zip(row, signs):
                weight *= p_plus if sign == 1 else 1.0 - p_plus
            weights[index] += weight
    return weights


def reference_cells(strategy):
    """A strategy's cell weights, in (pair, outcome) order.

    Reads only the strategy's public data: its mixture components, or the
    assignment weights its breakpoints, densities and response rows
    induce, in product((1, -1), repeat=4) order. Per pair, the weights
    are summed into the four outcome cells in their own arithmetic.
    """
    if hasattr(strategy, "components"):
        components = [(w, (a.a1, a.a2, a.b1, a.b2)) for w, a in strategy.components]
    else:
        weights = reference_assignment_weights(strategy)
        components = list(zip(weights, product((1, -1), repeat=4)))
    rows = []
    for k, l in PAIRS:
        cells = [0] * 4
        for weight, signs in components:
            cells[OUTCOMES.index((signs[k - 1], signs[1 + l]))] += weight
        rows.append(cells)
    return rows


def reference_tally(strategy, trials, seed):
    """Per-trial seeded counts of a strategy, in (pair, outcome) order.

    Per pair, one uniform per trial, on the pair's own
    SeedSequence(seed, spawn_key=(pair_index,)) stream, picks the cell
    whose interval of the normalized running sums of reference_cells
    holds it.
    """
    rows = []
    for index, cells in enumerate(reference_cells(strategy)):
        running = list(accumulate(cells))
        bounds = np.array([float(c / running[-1]) for c in running[:-1]])
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
        cell = np.searchsorted(bounds, rng.random(trials), side="right")
        rows.append(tuple(int(c) for c in np.bincount(cell, minlength=4)))
    return tuple(rows)


def binomial_interval(n: int, p: float, alpha: float) -> tuple[int, int]:
    """The narrowest (lo, hi) with P(X < lo) <= alpha/2 and
    P(X > hi) <= alpha/2, X ~ Binomial(n, p).

    Each tail is summed from the exact probability mass function, taken
    in log space, with no normal approximation.
    """
    if p <= 0:
        return 0, 0
    if p >= 1:
        return n, n
    k = np.arange(n + 1)
    # log C(n, k) as the running sum of log((n - j) / (j + 1)), j < k.
    log_choose = np.concatenate(([0.0], np.cumsum(np.log((n - k[:-1]) / (k[:-1] + 1)))))
    pmf = np.exp(log_choose + k * math.log(p) + (n - k) * math.log1p(-p))
    at_most = np.cumsum(pmf)  # P(X <= k)
    at_least = np.cumsum(pmf[::-1])  # P(X >= n - j) at index j
    lo = int(np.argmax(at_most > alpha / 2))
    hi = n - int(np.argmax(at_least > alpha / 2))
    return lo, hi


# ---------- the maximal Hardy probability ----------


def optimum_decimal(digits: int = 60):
    """The mirror maximizer of the Hardy probability, in Decimal.

    With tau the golden mean, r = (tau^2 - sqrt(tau^4 - 4))/2 solves
    r + 1/r = tau^2 and r < 1. The maximizer c1^2 = r^2/(1 + r^2),
    cos^2(beta0) = 1/(1 + r^3) has the mirror (1 - c1^2, 90 deg - beta0),
    c1^2 = 1/(1 + r^2), cos^2(beta0) = r^3/(1 + r^3); the mirror is
    returned as (c1_squared, cos_sq_beta0, p_hardy), where p_hardy should
    equal 1/tau^5.

    p_hardy is the (+1, +1) probability of settings beta12 = beta0 and
    beta22 with tan(beta12) tan(beta22) = -(c1/c2)^3, all phases zero.
    Its amplitude c1 cos(b12) cos(b22) + c2 sin(b12) sin(b22) equals
    cos(b12) cos(b22) c1 (c2^2 - c1^2)/c2^2, and cos^2(b22) =
    1/(1 + (c1/c2)^6 cot^2(beta0)), so only c1^2 and cos^2(beta0) enter.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        tau = (1 + Decimal(5).sqrt()) / 2
        r = (tau**2 - (tau**4 - 4).sqrt()) / 2
        x = 1 / (1 + r**2)
        cos_sq = r**3 / (1 + r**3)
        y = 1 - x
        cot_sq = cos_sq / (1 - cos_sq)
        cos_sq_b22 = 1 / (1 + (x / y) ** 3 * cot_sq)
        p_hardy = cos_sq * cos_sq_b22 * x * (y - x) ** 2 / y**2
        return x, cos_sq, p_hardy
