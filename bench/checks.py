"""Independent output checks for the benchmark.

Nothing here imports hardylab or repeats its closed forms. Probabilities
come from explicit two-qubit state vectors, the local polytope from its
16-facet description (Fine's theorem), LHV correlations from the
generated strategy data, and scan rows are checked against each other
and against the golden-mean bound. Every checker returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from decimal import Decimal
from fractions import Fraction

import numpy as np

TAU = (1.0 + math.sqrt(5.0)) / 2.0
DELTA_BOUND = 2.0 + 4.0 / TAU**5
TSIRELSON = 2.0 * math.sqrt(2.0)
CSV_HEADER = "c1_squared,beta0_deg,p_hardy,delta,degenerate"
PLOT_PIXELS = 540 * 540

# (particle-1 setting, particle-2 setting) for e11, e12, e21, e22; the
# last pair carries the minus sign in the CHSH combination.
PAIRS = ((11, 21), (11, 22), (12, 21), (12, 22))


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{what}: {problems[0]}")

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# ---------- state-vector oracle ----------


def _outcome_vector(particle: int, beta: float, delta: float, outcome: int) -> np.ndarray:
    # Particle 1 carries the phase +delta on |v>, particle 2 carries -delta,
    # so only delta1 - delta2 survives in any joint probability.
    phase = np.exp(1j * (delta if particle == 1 else -delta))
    if outcome == 1:
        return np.array([math.cos(beta), phase * math.sin(beta)])
    return np.array([-math.sin(beta), phase * math.cos(beta)])


def joint_probability(c1, c2, setting1, setting2, outcome1, outcome2) -> float:
    """P(outcome1, outcome2) for settings (beta, delta) on c1|uu> + c2|vv>."""
    psi = np.array([c1, 0.0, 0.0, c2], dtype=complex)
    bra = np.kron(
        _outcome_vector(1, *setting1, outcome1), _outcome_vector(2, *setting2, outcome2)
    )
    return float(abs(np.vdot(bra, psi)) ** 2)


def pair_table(c1, c2, setting1, setting2) -> dict[tuple[int, int], float]:
    return {
        (m, n): joint_probability(c1, c2, setting1, setting2, m, n)
        for m in (1, -1)
        for n in (1, -1)
    }


def correlation(c1, c2, setting1, setting2) -> float:
    table = pair_table(c1, c2, setting1, setting2)
    return table[1, 1] + table[-1, -1] - table[1, -1] - table[-1, 1]


def chsh_value(c1, c2, settings: dict[int, tuple[float, float]]) -> float:
    e = [correlation(c1, c2, settings[a], settings[b]) for a, b in PAIRS]
    return abs(e[0] + e[1] + e[2] - e[3])


def hardy_settings(c1_squared: float, beta0: float) -> dict[int, tuple[float, float]]:
    """Settings that zero the three Hardy amplitudes, with beta12 = beta0.

    Each angle is the root of one amplitude of the state vector, taken
    one condition at a time: (D12+, D21+), then (D11-, D21-), then
    (D11+, D22+). All phases are zero.
    """
    c1, c2 = math.sqrt(c1_squared), math.sqrt(1.0 - c1_squared)
    b12 = beta0
    b21 = math.atan2(-c1 * math.cos(b12), c2 * math.sin(b12))
    b11 = math.atan2(-c2 * math.cos(b21), c1 * math.sin(b21))
    b22 = math.atan2(-c1 * math.cos(b11), c2 * math.sin(b11))
    return {11: (b11, 0.0), 12: (b12, 0.0), 21: (b21, 0.0), 22: (b22, 0.0)}


def hardy_probabilities(c1, c2, settings, f1=1, f2=1) -> tuple[float, float, float, float]:
    """(p_a, p_b, p_c, p_d) of the four Hardy conditions, with per-particle
    outcome sign factors f1, f2 selecting the variant."""
    s = settings
    return (
        joint_probability(c1, c2, s[11], s[21], -f1, -f2),
        joint_probability(c1, c2, s[11], s[22], f1, f2),
        joint_probability(c1, c2, s[12], s[21], f1, f2),
        joint_probability(c1, c2, s[12], s[22], f1, f2),
    )


# ---------- local polytope (Fine's 16 facets) ----------


def _facet_values(quad) -> list[Fraction]:
    """Slack of each of the 16 facets; all >= 0 inside the polytope."""
    e11, e12, e21, e22 = (Fraction(v) for v in quad)
    chsh = (
        e11 + e12 + e21 - e22,
        e11 + e12 - e21 + e22,
        e11 - e12 + e21 + e22,
        -e11 + e12 + e21 + e22,
    )
    box = [1 - e for e in (e11, e12, e21, e22)] + [1 + e for e in (e11, e12, e21, e22)]
    return box + [2 - c for c in chsh] + [2 + c for c in chsh]


def polytope_class(quad) -> str:
    """'inside', 'boundary' (on some facet) or 'outside' the local polytope."""
    slack = _facet_values(quad)
    if any(s < 0 for s in slack):
        return "outside"
    if any(s == 0 for s in slack):
        return "boundary"
    return "inside"


def check_polytope_verdict(quad, verdict) -> list[str]:
    expected = polytope_class(quad) != "outside"
    if verdict is not expected:
        return [f"is_locally_realizable{tuple(quad)} = {verdict!r}, facet test says {expected}"]
    return []


# ---------- LHV strategies ----------


def mixture_correlations(components) -> list[Fraction]:
    """Exact e_kl of a mixture given as (Fraction weight, 'pmpm' label)."""
    out = []
    for k, l in ((1, 1), (1, 2), (2, 1), (2, 2)):
        total = Fraction(0)
        for weight, label in components:
            a = 1 if label[k - 1] == "p" else -1
            b = 1 if label[2 + l - 1] == "p" else -1
            total += weight * a * b
        out.append(total)
    return out


def stochastic_correlations(breakpoints, densities, responses) -> list[float]:
    """e_kl of a piecewise-constant model, integrated segment by segment."""
    out = []
    for k, l in ((1, 1), (1, 2), (2, 1), (2, 2)):
        total = 0.0
        for lo, hi, rho, row in zip(breakpoints, breakpoints[1:], densities, responses):
            total += rho * (hi - lo) * (2.0 * row[k - 1] - 1.0) * (2.0 * row[2 + l - 1] - 1.0)
        out.append(total)
    return out


def check_tally(counts, trials: int, exact) -> list[str]:
    """Counts per pair sum to trials, estimates within 5 sigma of exact."""
    problems = []
    for row, e in zip(counts, exact):
        n_pp, n_pm, n_mp, n_mm = row
        if min(row) < 0 or sum(row) != trials:
            problems.append(f"count row {tuple(row)} does not sum to {trials}")
            continue
        estimate = (n_pp + n_mm - n_pm - n_mp) / trials
        sigma = math.sqrt(max(0.0, 1.0 - float(e) ** 2) / trials)
        if abs(estimate - float(e)) > 5.0 * sigma + 1e-12:
            problems.append(f"estimate {estimate} is {abs(estimate - float(e)) / max(sigma, 1e-300):.1f} sigma from {float(e)}")
    return problems


# ---------- CLI output ----------


def key_values(text: str) -> dict[str, str]:
    """'key = value' lines of a CLI stdout, manifest lines skipped."""
    values = {}
    for line in text.splitlines():
        if line.startswith("#") or " = " not in line:
            continue
        key, _, value = line.partition(" = ")
        values[key.strip()] = value.strip()
    return values


def check_close(values: dict[str, str], key: str, expected: float, tol: float) -> list[str]:
    if key not in values:
        return [f"missing line {key!r}"]
    try:
        got = float(values[key])
    except ValueError:
        return [f"{key} = {values[key]!r} is not a number"]
    if not abs(got - expected) <= tol:
        return [f"{key} = {got!r}, expected {expected!r} within {tol:g}"]
    return []


def check_equal(values: dict[str, str], key: str, expected: str) -> list[str]:
    if values.get(key) != expected:
        return [f"{key} = {values.get(key)!r}, expected {expected!r}"]
    return []


def check_exit(code: int, stderr: str, expected_code: int, expected_error: str | None) -> list[str]:
    """Exit code, and for exit 1 exactly one 'error:' line on stderr."""
    if code != expected_code:
        return [f"exit code {code}, expected {expected_code}: {stderr.strip()[:200]!r}"]
    lines = stderr.splitlines()
    if expected_code == 0 and stderr:
        return [f"unexpected stderr {stderr[:200]!r}"]
    if expected_code == 1:
        if len(lines) != 1 or not lines[0].startswith("error: "):
            return [f"expected one 'error:' line on stderr, got {stderr[:200]!r}"]
        if expected_error and expected_error not in lines[0]:
            return [f"stderr {lines[0]!r} lacks {expected_error!r}"]
    if expected_code == 2 and not lines:
        return ["usage error printed nothing on stderr"]
    return []


def inequality_margin(values) -> Decimal:
    lhs, a, b, c = (Decimal(v) for v in values)
    return lhs - a - b - c


# ---------- scan outputs ----------


def _axis(steps: int, stop: float) -> np.ndarray:
    return np.array([stop * i / (steps - 1) for i in range(steps)])


def check_scan_csv(text: str, c1_steps: int, beta_steps: int) -> list[str]:
    """Header, row count, axes, degenerate flags, delta = 2 + 4 p, bound."""
    lines = text.splitlines()
    body = [line for line in lines if not line.startswith("#")]
    if not body or body[0] != CSV_HEADER:
        return [f"header is {body[0] if body else None!r}"]
    rows = body[1:]
    if len(rows) != c1_steps * beta_steps:
        return [f"{len(rows)} rows, expected {c1_steps * beta_steps}"]
    x_axis, b_axis = _axis(c1_steps, 1.0), _axis(beta_steps, 90.0)
    problems: list[str] = []
    for index, row in enumerate(rows):
        fields = row.split(",")
        if len(fields) != 5 or fields[4] not in ("true", "false"):
            problems.append(f"row {index}: malformed {row!r}")
            break
        try:
            x, b, p, d = (float(f) for f in fields[:4])
        except ValueError:
            problems.append(f"row {index}: not numeric {row!r}")
            break
        i, j = divmod(index, beta_steps)
        if abs(x - x_axis[i]) > 1e-11 or abs(b - b_axis[j]) > 1e-9:
            problems.append(f"row {index}: axes ({x}, {b}) out of order")
            break
        on_locus = x in (0.0, 0.5, 1.0) or b in (0.0, 90.0)
        if (fields[4] == "true") != on_locus:
            problems.append(f"row {index}: degenerate flag {fields[4]} at ({x}, {b})")
            break
        if on_locus:
            if d != 2.0 or p != 0.0:
                problems.append(f"row {index}: degenerate cell has delta {d}, p {p}")
                break
        elif not (abs(d - 2.0 - 4.0 * p) <= 1e-10 and d <= DELTA_BOUND + 1e-9 and p >= -1e-12):
            problems.append(f"row {index}: delta {d} vs 2 + 4 * {p} or bound")
            break
    return problems


def check_svg(path, cells: int) -> list[str]:
    """The heatmap parses as XML, is an <svg>, and has one rect per cell."""
    rects = 0
    root_tag = None
    try:
        for event, element in ET.iterparse(path, events=("start", "end")):
            if event == "start":
                if root_tag is None:
                    root_tag = element.tag
                continue
            if element.tag.endswith("}rect") or element.tag == "rect":
                rects += 1
            element.clear()
    except ET.ParseError as exc:
        return [f"SVG does not parse: {exc}"]
    if root_tag is None or not root_tag.endswith("svg"):
        return [f"root element is {root_tag!r}"]
    if rects != cells + 1:
        return [f"{rects} rects for {cells} cells"]
    return []


def check_scan_stdout(text: str, cells: int, csv_text: str | None) -> list[str]:
    """The summary lines: cell count, and a maximum within the bound that
    matches the largest delta in the CSV when one was written."""
    values = key_values(text)
    problems = check_equal(values, "cells", str(cells))
    problems += check_close(values, "max_delta", (2.0 + DELTA_BOUND) / 2.0, (DELTA_BOUND - 2.0) / 2.0 + 1e-9)
    if csv_text is not None and not problems:
        body = [row for row in csv_text.splitlines() if not row.startswith("#")][1:]
        problems += check_close(values, "max_delta", max(float(row.split(",")[3]) for row in body), 1e-11)
    return problems
