"""Command-line surface for the toolkit.

Subcommands: probs, correlation, hardy-solve, hardy-check, scan,
optimize, lhv-sim, verify, inequality. Angles cross this boundary in
degrees and are converted to radians immediately; all numeric output is
printed to 12 significant digits. Every output (stdout and files alike)
starts with a RunManifest block of '#'-prefixed lines recording the
tool version and the resolved parameters, so identical invocations
produce byte-identical results. Exit codes: 0 success, 1 domain error
(single-line diagnostic on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from pathlib import Path

import numpy as np

from . import __version__
from .chsh import (
    DELTA_MAX,
    OPTIMAL_BETA0_DEG,
    OPTIMAL_C1_SQUARED,
    ScanGrid,
    evaluate,
    optimize_delta,
    scan_surface,
)
from .correlations import batch_probabilities, pair_distributions
from .hardy import (
    ZERO_TOL,
    HardyCheck,
    HardyVariant,
    check_hardy,
    hardy_inequality_lhs_rhs,
    solve_hardy,
)
from .lhv import simulate, strategy_from_text
from .qstate import OUTCOME_ORDER, PAIR_ORDER, DomainError, config_from_file, make_state

__all__ = [
    "RunManifest",
    "TWO_PHOTON_FIXTURE_VALUES",
    "TWO_PHOTON_FIXTURE_ERRORS",
    "inequality_margin",
    "quadrature_error",
    "run",
    "main",
]

# Published two-photon measurement of the four inequality probabilities:
# (lhs, zero_1, zero_2, zero_3) central values with one-sigma errors.
# Kept as strings so decimal arithmetic reproduces the quoted margin
# without float rounding.
TWO_PHOTON_FIXTURE_VALUES = ("0.099", "0.0070", "0.0034", "0.0040")
TWO_PHOTON_FIXTURE_ERRORS = ("0.002", "0.0005", "0.0004", "0.0004")

_PAIR_NAMES = tuple(f"{k}{l}" for k, l in PAIR_ORDER)
_OUTCOME_LABELS = tuple(
    ("".join("p" if v == 1 else "m" for v in outcome), outcome) for outcome in OUTCOME_ORDER
)


def _fmt(value: float) -> str:
    """12 significant digits, compact form."""
    return f"{float(value):.12g}"


def _flag(value: bool) -> str:
    return "true" if value else "false"


@dataclass(frozen=True)
class RunManifest:
    """Header block identifying one CLI invocation.

    Contains no timestamps or host details: reruns with the same argv
    (and seed) emit the same bytes.
    """

    subcommand: str
    parameters: tuple[tuple[str, str], ...] = ()
    seed: int | None = None
    output_paths: tuple[str, ...] = ()
    tool_version: str = field(default=__version__)

    def lines(self) -> list[str]:
        out = [f"# tool: hardylab {self.tool_version}", f"# subcommand: {self.subcommand}"]
        out.extend(f"# {key}: {value}" for key, value in self.parameters)
        if self.seed is not None:
            out.append(f"# seed: {self.seed}")
        out.extend(f"# output: {path}" for path in self.output_paths)
        return out

    def text(self) -> str:
        return "\n".join(self.lines()) + "\n"


def _workers() -> int:
    """Worker cap: HARDY_LAB_THREADS if set, else available parallelism."""
    raw = os.environ.get("HARDY_LAB_THREADS")
    available = os.cpu_count() or 1
    if raw is None:
        return available
    try:
        value = int(raw)
    except ValueError:
        raise DomainError(f"HARDY_LAB_THREADS must be an integer, got {raw!r}") from None
    if value < 1:
        raise DomainError(f"HARDY_LAB_THREADS must be >= 1, got {value}")
    return min(value, available)


def _print_manifest(manifest: RunManifest) -> None:
    for line in manifest.lines():
        print(line)


# ---------- probs / correlation ----------


def _cmd_probs(args: argparse.Namespace) -> int:
    config = config_from_file(args.config)
    manifest = RunManifest(
        "probs",
        parameters=(("config", args.config), ("pair", args.pair or "all")),
    )
    _print_manifest(manifest)
    for name, dist in zip(_PAIR_NAMES, pair_distributions(config)):
        if args.pair not in (None, name):
            continue
        for label, (m, n) in _OUTCOME_LABELS:
            print(f"p{name}_{label} = {_fmt(dist.probability(m, n))}")
    return 0


def _cmd_correlation(args: argparse.Namespace) -> int:
    config = config_from_file(args.config)
    manifest = RunManifest(
        "correlation",
        parameters=(("config", args.config), ("pair", args.pair or "all")),
    )
    _print_manifest(manifest)
    result = evaluate(config)
    for name in (args.pair,) if args.pair else _PAIR_NAMES:
        print(f"e{name} = {_fmt(getattr(result.correlations, f'e{name}'))}")
    if args.pair:
        return 0
    print(f"delta = {_fmt(result.delta)}")
    print(f"violated = {_flag(result.violated)}")
    return 0


# ---------- hardy-solve / hardy-check ----------


def _print_check(check: HardyCheck) -> None:
    for key in ("p_a", "p_b", "p_c", "p_d"):
        print(f"{key} = {_fmt(getattr(check, key))}")
    print(f"satisfied = {_flag(check.satisfied)}")


def _cmd_hardy_solve(args: argparse.Namespace) -> int:
    variant = HardyVariant(args.variant)
    state = make_state(args.c1_squared)
    solution = solve_hardy(state, math.radians(args.beta0_deg), variant)
    config = solution.config()
    check = check_hardy(config, variant)
    f1, f2 = variant.sign_factors
    settings = [(f"{i}{j}", setting) for (i, j), setting in config.settings.items()]

    manifest = RunManifest(
        "hardy-solve",
        parameters=(
            ("c1_squared", _fmt(args.c1_squared)),
            ("beta0_deg", _fmt(args.beta0_deg)),
            ("variant", variant.value),
        ),
    )
    _print_manifest(manifest)

    print(f"{'setting':<10}{'beta_deg':>20}{'delta_deg':>14}")
    for name, setting in settings:
        beta_deg = math.degrees(setting.beta)
        delta_deg = math.degrees(setting.delta)
        print(f"{'D' + name:<10}{_fmt(beta_deg):>20}{_fmt(delta_deg):>14}")
    print()
    conditions = (
        (f"P(D11={-f1:+d}, D21={-f2:+d})", check.p_a, "= 0"),
        (f"P(D11={f1:+d}, D22={f2:+d})", check.p_b, "= 0"),
        (f"P(D12={f1:+d}, D21={f2:+d})", check.p_c, "= 0"),
        (f"P(D12={f1:+d}, D22={f2:+d})", check.p_d, "> 0"),
    )
    print(f"{'condition':<22}{'target':>8}{'probability':>22}")
    for label, value, target in conditions:
        print(f"{label:<22}{target:>8}{_fmt(value):>22}")
    print()
    print(f"c1_squared = {_fmt(state.c1_squared)}")
    print(f"variant = {variant.value}")
    print(f"beta0_deg = {_fmt(args.beta0_deg)}")
    for name, setting in settings:
        print(f"beta_{name}_deg = {_fmt(math.degrees(setting.beta))}")
    for name, setting in settings:
        print(f"delta_{name}_deg = {_fmt(math.degrees(setting.delta))}")
    _print_check(check)
    return 0


def _cmd_hardy_check(args: argparse.Namespace) -> int:
    config = config_from_file(args.config)
    variant = HardyVariant(args.variant)
    check = check_hardy(config, variant, zero_tol=args.tol)
    manifest = RunManifest(
        "hardy-check",
        parameters=(
            ("config", args.config),
            ("variant", variant.value),
            ("tol", _fmt(args.tol)),
        ),
    )
    _print_manifest(manifest)
    _print_check(check)
    return 0


# ---------- scan ----------


def _csv_text(grid: ScanGrid, manifest: RunManifest) -> str:
    lines = manifest.lines()
    lines.append("c1_squared,beta0_deg,p_hardy,delta,degenerate")
    for x, b, p, d, degenerate in grid.rows():
        lines.append(f"{_fmt(x)},{_fmt(b)},{_fmt(p)},{_fmt(d)},{_flag(degenerate)}")
    return "\n".join(lines) + "\n"


def _ramp_color(t: float) -> str:
    low, high = (32, 42, 88), (250, 220, 70)
    r, g, b = (round(a + t * (b_ - a)) for a, b_ in zip(low, high))
    return f"#{r:02x}{g:02x}{b:02x}"


def _svg_text(grid: ScanGrid, manifest: RunManifest) -> str:
    left, top, plot_w, plot_h = 70.0, 46.0, 540.0, 540.0
    width, height = left + plot_w + 30.0, top + plot_h + 54.0
    n_x, n_b = grid.shape
    cell_w, cell_h = plot_w / n_b, plot_h / n_x
    vmin = float(grid.delta.min())
    vmax = float(grid.delta.max())
    span = (vmax - vmin) or 1.0

    parts = ["<!--"] + manifest.lines() + ["-->"]
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" height="{height:g}" '
        f'viewBox="0 0 {width:g} {height:g}" font-family="monospace" font-size="13">'
    )
    parts.append(f'<rect width="{width:g}" height="{height:g}" fill="#ffffff"/>')
    mx, mb, md = grid.max_cell()
    parts.append(f'<text x="{left:g}" y="20">CHSH violation surface</text>')
    parts.append(
        f'<text x="{left:g}" y="37" font-size="11">max delta = {_fmt(md)} '
        f"at c1_squared = {_fmt(mx)}, beta0 = {_fmt(mb)} deg</text>"
    )
    for i in range(n_x):
        y = top + plot_h - (i + 1) * cell_h
        for j in range(n_b):
            t = (float(grid.delta[i, j]) - vmin) / span
            x = left + j * cell_w
            parts.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{cell_w + 0.05:.2f}" '
                f'height="{cell_h + 0.05:.2f}" fill="{_ramp_color(t)}"/>'
            )
    # axes
    axis_y = top + plot_h
    for value in (0, 30, 60, 90):
        x = left + value / 90.0 * plot_w
        parts.append(
            f'<line x1="{x:.2f}" y1="{axis_y:.2f}" x2="{x:.2f}" y2="{axis_y + 6:.2f}" stroke="#000"/>'
        )
        parts.append(f'<text x="{x:.2f}" y="{axis_y + 20:.2f}" text-anchor="middle">{value}</text>')
    for value in (0.0, 0.5, 1.0):
        y = top + plot_h - value * plot_h
        parts.append(
            f'<line x1="{left - 6:.2f}" y1="{y:.2f}" x2="{left:.2f}" y2="{y:.2f}" stroke="#000"/>'
        )
        parts.append(
            f'<text x="{left - 10:.2f}" y="{y + 4:.2f}" text-anchor="end">{value:g}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.2f}" y="{axis_y + 40:.2f}" text-anchor="middle">beta0 (deg)</text>'
    )
    parts.append(
        f'<text x="16" y="{top + plot_h / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {top + plot_h / 2:.2f})">c1_squared</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cmd_scan(args: argparse.Namespace) -> int:
    outputs = tuple(p for p in (args.out, args.svg) if p)
    manifest = RunManifest(
        "scan",
        parameters=(
            ("c1sq_steps", str(args.c1sq_steps)),
            ("beta0_steps", str(args.beta0_steps)),
        ),
        output_paths=outputs,
    )
    grid = scan_surface(args.c1sq_steps, args.beta0_steps, workers=_workers())
    if args.out:
        Path(args.out).write_text(_csv_text(grid, manifest), encoding="utf-8")
    if args.svg:
        Path(args.svg).write_text(_svg_text(grid, manifest), encoding="utf-8")
    if args.out or args.svg:
        _print_manifest(manifest)
        mx, mb, md = grid.max_cell()
        print(f"cells = {grid.shape[0] * grid.shape[1]}")
        print(f"max_delta = {_fmt(md)}")
        print(f"max_c1_squared = {_fmt(mx)}")
        print(f"max_beta0_deg = {_fmt(mb)}")
    else:
        sys.stdout.write(_csv_text(grid, manifest))
    return 0


# ---------- optimize ----------


def _cmd_optimize(args: argparse.Namespace) -> int:
    manifest = RunManifest(
        "optimize",
        parameters=(
            ("c1sq_steps", str(args.c1sq_steps)),
            ("beta0_steps", str(args.beta0_steps)),
        ),
    )
    _print_manifest(manifest)
    c1_squared, beta0, delta = optimize_delta(args.c1sq_steps, args.beta0_steps)
    beta0_deg = math.degrees(beta0)
    p_hardy = solve_hardy(make_state(c1_squared), beta0).hardy_probability()
    print(f"c1_squared = {_fmt(c1_squared)}")
    print(f"beta0_deg = {_fmt(beta0_deg)}")
    print(f"delta = {_fmt(delta)}")
    print(f"p_hardy = {_fmt(p_hardy)}")

    near = lambda a, b, tol: abs(a - b) <= tol
    at_documented = near(c1_squared, OPTIMAL_C1_SQUARED, 1e-4) and near(
        beta0_deg, OPTIMAL_BETA0_DEG, 1e-4
    )
    at_mirror = near(c1_squared, 1.0 - OPTIMAL_C1_SQUARED, 1e-4) and near(
        beta0_deg, 90.0 - OPTIMAL_BETA0_DEG, 1e-4
    )
    ok = near(delta, DELTA_MAX, 1e-9) and (at_documented or at_mirror)
    print(f"within_tolerance = {_flag(ok)}")
    if not ok:
        raise DomainError("optimizer result strays from the documented maximum")
    return 0


# ---------- lhv-sim ----------


def _cmd_lhv_sim(args: argparse.Namespace) -> int:
    try:
        text = Path(args.strategy).read_text(encoding="utf-8")
    except OSError as exc:
        raise DomainError(f"cannot read strategy file: {exc}") from None
    strategy = strategy_from_text(text)
    manifest = RunManifest(
        "lhv-sim",
        parameters=(("strategy", args.strategy), ("trials", str(args.trials))),
        seed=args.seed,
    )
    tally = simulate(strategy, args.trials, args.seed, workers=min(_workers(), 4))
    _print_manifest(manifest)
    print(f"trials_per_pair = {tally.trials_per_pair}")
    for name, pair in zip(_PAIR_NAMES, PAIR_ORDER):
        for label, outcome in _OUTCOME_LABELS:
            print(f"count_{name}_{label} = {tally.count(pair, outcome)}")
    for name, pair in zip(_PAIR_NAMES, PAIR_ORDER):
        print(f"e{name} = {_fmt(tally.estimated_correlation(pair))}")
        print(f"se_e{name} = {_fmt(tally.correlation_std_error(pair))}")
    print(f"delta = {_fmt(tally.estimated_delta())}")
    print(f"se_delta = {_fmt(tally.delta_std_error())}")
    return 0


# ---------- verify ----------


def _verify_normalization(rng: np.random.Generator) -> tuple[bool, str]:
    n = 20000
    x = rng.uniform(0.0, 1.0, n)
    c1 = rng.choice((-1.0, 1.0), n) * np.sqrt(x)
    c2 = rng.choice((-1.0, 1.0), n) * np.sqrt(1.0 - x)
    beta1 = rng.uniform(-np.pi, np.pi, n)
    beta2 = rng.uniform(-np.pi, np.pi, n)
    delta12 = rng.uniform(-np.pi, np.pi, n)
    total = sum(batch_probabilities(c1, c2, beta1, beta2, delta12))
    deviation = float(np.max(np.abs(total - 1.0)))
    return deviation <= 1e-12, f"max |sum - 1| = {deviation:.3g} over {n} draws"


def _verify_delta_identity(workers: int) -> tuple[bool, str]:
    grid = scan_surface(51, 51, workers=workers)
    live = ~grid.degenerate
    deviation = float(np.max(np.abs(grid.delta[live] - 2.0 - 4.0 * grid.p_hardy[live])))
    return deviation <= 1e-10, f"max |delta - 2 - 4 p| = {deviation:.3g} on a 51x51 grid"


def _verify_vanishing_round_trip(rng: np.random.Generator) -> tuple[bool, str]:
    n = 1000
    x = rng.uniform(0.02, 0.98, n)
    c1 = np.sqrt(x)
    c2 = np.sqrt(1.0 - x)
    beta1 = rng.uniform(0.1, 1.47, n) * rng.choice((-1.0, 1.0), n)
    # root of the vanishing criterion, then a deliberate miss
    beta2 = np.arctan(-(c1 / c2) / np.tan(beta1))
    at_root = batch_probabilities(c1, c2, beta1, beta2, 0.0)[0]
    off_root = batch_probabilities(c1, c2, beta1, beta2 + 0.01, 0.0)[0]
    forward = float(np.max(at_root))
    reverse = float(np.min(off_root))
    ok = forward <= 1e-12 and reverse > 1e-12
    return ok, f"root max = {forward:.3g}, perturbed min = {reverse:.3g} over {n} draws"


def _cmd_verify(args: argparse.Namespace) -> int:
    manifest = RunManifest("verify")
    _print_manifest(manifest)
    rng = np.random.default_rng(8128)
    checks = (
        ("normalization", _verify_normalization(rng)),
        ("delta identity", _verify_delta_identity(_workers())),
        ("vanishing-condition round-trip", _verify_vanishing_round_trip(rng)),
    )
    failures = 0
    for name, (ok, detail) in checks:
        print(f"{name}: {'ok' if ok else 'FAIL'} ({detail})")
        failures += 0 if ok else 1
    if failures:
        raise DomainError(f"{failures} verification check(s) failed")
    return 0


# ---------- inequality ----------


def quadrature_error(errors) -> float:
    """Propagated one-sigma error of lhs - (a + b + c): root sum of squares."""
    try:
        sigmas = [float(e) for e in errors]
    except (TypeError, ValueError):
        raise DomainError(f"errors must be numbers, got {errors!r}") from None
    if not all(math.isfinite(s) and s >= 0 for s in sigmas):
        raise DomainError(f"errors must be finite and non-negative, got {errors!r}")
    return math.sqrt(sum(s**2 for s in sigmas))


def inequality_margin(values) -> Decimal:
    """lhs - (a + b + c) in exact decimal arithmetic.

    values are the four probabilities (lhs first) as strings or
    Decimals; strings keep quoted experimental numbers exact.
    """
    try:
        lhs, a, b, c = probabilities = [Decimal(v) for v in values]
    except (InvalidOperation, ValueError, TypeError):
        raise DomainError(f"values must be four decimal numbers, got {values!r}") from None
    if not all(p.is_finite() and 0 <= p <= 1 for p in probabilities):
        raise DomainError(f"values must be probabilities in [0, 1], got {values!r}")
    return lhs - (a + b + c)


def _cmd_inequality(args: argparse.Namespace) -> int:
    if args.config and args.values:
        raise DomainError("pass either --config or --values, not both")
    if args.errors and not args.values:
        raise DomainError("--errors requires --values")

    if args.config:
        config = config_from_file(args.config)
        manifest = RunManifest("inequality", parameters=(("config", args.config),))
        _print_manifest(manifest)
        lhs, rhs = hardy_inequality_lhs_rhs(config)
        margin = lhs - rhs
        print(f"lhs = {_fmt(lhs)}")
        print(f"rhs = {_fmt(rhs)}")
        print(f"margin = {_fmt(margin)}")
        print(f"violated = {_flag(margin > 0)}")
        return 0

    values = tuple(args.values) if args.values else TWO_PHOTON_FIXTURE_VALUES
    errors = tuple(args.errors) if args.errors else (
        TWO_PHOTON_FIXTURE_ERRORS if not args.values else ()
    )
    margin = inequality_margin(values)
    std_error = quadrature_error(errors) if errors else None
    source = "values" if args.values else "two-photon fixture"
    manifest = RunManifest(
        "inequality",
        parameters=(
            ("source", source),
            ("values", ",".join(str(v) for v in values)),
        )
        + ((("errors", ",".join(str(e) for e in errors)),) if errors else ()),
    )
    _print_manifest(manifest)
    lhs = Decimal(values[0])
    rhs = lhs - margin
    print(f"lhs = {lhs}")
    print(f"rhs = {rhs}")
    print(f"margin = {margin}")
    if std_error is not None:
        print(f"margin_std_error = {_fmt(std_error)}")
    print(f"violated = {_flag(margin > 0)}")
    return 0


# ---------- dispatch ----------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardylab",
        description="Hardy-nonlocality and CHSH analysis for two-qubit states.",
    )
    parser.add_argument("--version", action="version", version=f"hardylab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")
    variants = tuple(v.value for v in HardyVariant)

    p = sub.add_parser("probs", help="joint outcome probabilities for a config file")
    p.add_argument("--config", required=True, help="experiment config file")
    p.add_argument("--pair", choices=_PAIR_NAMES, help="restrict to one setting pair")
    p.set_defaults(func=_cmd_probs)

    p = sub.add_parser("correlation", help="correlation functions and the CHSH parameter")
    p.add_argument("--config", required=True, help="experiment config file")
    p.add_argument("--pair", choices=_PAIR_NAMES, help="restrict to one setting pair")
    p.set_defaults(func=_cmd_correlation)

    p = sub.add_parser("hardy-solve", help="solve the three zero conditions")
    p.add_argument("--c1-squared", type=float, required=True, dest="c1_squared")
    p.add_argument("--beta0-deg", type=float, required=True, dest="beta0_deg")
    p.add_argument("--variant", choices=variants, default="canonical")
    p.set_defaults(func=_cmd_hardy_solve)

    p = sub.add_parser("hardy-check", help="evaluate the four condition probabilities")
    p.add_argument("--config", required=True, help="experiment config file")
    p.add_argument("--variant", choices=variants, default="canonical")
    p.add_argument("--tol", type=float, default=ZERO_TOL, help="zero tolerance")
    p.set_defaults(func=_cmd_hardy_check)

    p = sub.add_parser("scan", help="scan the violation surface to CSV/SVG")
    p.add_argument("--c1sq-steps", type=int, default=101, dest="c1sq_steps")
    p.add_argument("--beta0-steps", type=int, default=91, dest="beta0_steps")
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.add_argument("--svg", help="also render a heatmap to this path")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("optimize", help="locate the maximal violation")
    p.add_argument("--c1sq-steps", type=int, default=201, dest="c1sq_steps")
    p.add_argument("--beta0-steps", type=int, default=181, dest="beta0_steps")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("lhv-sim", help="simulate a local hidden-variable strategy")
    p.add_argument("--strategy", required=True, help="strategy description file")
    p.add_argument("--trials", type=int, default=10000, help="trials per setting pair")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_lhv_sim)

    p = sub.add_parser("verify", help="run the numeric invariant suite")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("inequality", help="probability-form inequality margin")
    p.add_argument(
        "--values", nargs=4, metavar=("LHS", "A", "B", "C"),
        help="four probabilities: lhs then the three must-vanish terms",
    )
    p.add_argument("--errors", nargs=4, metavar=("E0", "E1", "E2", "E3"))
    p.add_argument("--config", help="evaluate a config file instead of fixed values")
    p.set_defaults(func=_cmd_inequality)

    return parser


def run(argv=None) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
