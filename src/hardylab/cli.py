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
from typing import TYPE_CHECKING, TextIO

from . import __version__
from .qstate import BOUNDARY_TOL, OUTCOME_ORDER, PAIR_ORDER, ROUNDING_TOL, ZERO_TOL, DomainError
from .qstate import HardyVariant, config_from_file, make_state

# The rest of the library is imported inside each subcommand, from the
# package namespace: a child loads only the modules its subcommand
# reaches, and a name replaced in the package is the one that runs.
if TYPE_CHECKING:
    import numpy as np

    from . import HardyCheck, ScanGrid

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


def _print_manifest(manifest: RunManifest) -> None:
    for line in manifest.lines():
        print(line)


# ---------- probs / correlation ----------


def _cmd_probs(args: argparse.Namespace) -> int:
    from . import pair_distributions

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
    from . import evaluate

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
    from . import check_hardy, solve_hardy

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
    from . import check_hardy

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


_CSV_FLAGS = (",false\n", ",true\n")
_CSV_CELL = "%s%s%.12g,%.12g%s"
_CSV_BLOCK_CELLS = 8192


def _write_csv(grid: ScanGrid, manifest: RunManifest, stream: TextIO) -> None:
    """Write the scan CSV in blocks of _CSV_BLOCK_CELLS cells.

    Each c1^2 and each beta0 is formatted once for the whole grid, with
    the same 12-digit format as _fmt. A block is a run of row-major
    cells, so a wide grid splits mid-row and the buffers stay the same
    size whatever the grid shape. Its five columns (c1^2 string,
    ",beta0," string, p_hardy, delta, flag line end) fill one object
    array, and a single `%` over the block's repeated cell format turns
    it into text in one C-level call instead of one f-string per cell.
    """
    import numpy as np

    stream.write(manifest.text())
    stream.write("c1_squared,beta0_deg,p_hardy,delta,degenerate\n")
    n_b = grid.shape[1]
    xs = np.array([f"{x:.12g}" for x in grid.c1_squared.tolist()], dtype=object)
    betas = np.array([f",{b:.12g}," for b in grid.beta0_deg.tolist()], dtype=object)
    flags = np.array(_CSV_FLAGS, dtype=object)
    p_hardy, delta = grid.p_hardy.ravel(), grid.delta.ravel()
    degenerate = grid.degenerate.ravel().view(np.uint8)
    block = _CSV_BLOCK_CELLS
    block_format = _CSV_CELL * block
    for start in range(0, p_hardy.size, block):
        stop = min(start + block, p_hardy.size)
        k = np.arange(start, stop)
        cells = np.empty((stop - start, 5), dtype=object)
        cells[:, 0] = xs[k // n_b]
        cells[:, 1] = betas[k % n_b]
        cells[:, 2] = p_hardy[start:stop]
        cells[:, 3] = delta[start:stop]
        cells[:, 4] = flags[degenerate[start:stop]]
        text_format = block_format if stop - start == block else _CSV_CELL * (stop - start)
        stream.write(text_format % tuple(cells.ravel().tolist()))


def _ramp_codes(t: np.ndarray) -> list[int]:
    """0xRRGGBB of the colour ramp at each t in [0, 1].

    Each channel is round(low + t * (high - low)): the same IEEE
    operations in float64, and np.round rounds half to even exactly as
    Python's round does.
    """
    import numpy as np

    low = np.array([[32.0], [42.0], [88.0]])
    step = np.array([[250.0], [220.0], [70.0]]) - low
    r, g, b = np.round(low + t * step).astype(np.int64)
    return ((r << 16) | (g << 8) | b).tolist()


def _write_svg(grid: ScanGrid, manifest: RunManifest, stream: TextIO) -> None:
    """Write the heatmap, one <rect> per cell, one grid row at a time."""
    left, top, plot_w, plot_h = 70.0, 46.0, 540.0, 540.0
    width, height = left + plot_w + 30.0, top + plot_h + 54.0
    n_x, n_b = grid.shape
    cell_w, cell_h = plot_w / n_b, plot_h / n_x
    vmin = float(grid.delta.min())
    vmax = float(grid.delta.max())
    span = (vmax - vmin) or 1.0

    head = ["<!--"] + manifest.lines() + ["-->"]
    head.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" height="{height:g}" '
        f'viewBox="0 0 {width:g} {height:g}" font-family="monospace" font-size="13">'
    )
    head.append(f'<rect width="{width:g}" height="{height:g}" fill="#ffffff"/>')
    mx, mb, md = grid.max_cell()
    head.append(f'<text x="{left:g}" y="20">CHSH violation surface</text>')
    head.append(
        f'<text x="{left:g}" y="37" font-size="11">max delta = {_fmt(md)} '
        f"at c1_squared = {_fmt(mx)}, beta0 = {_fmt(mb)} deg</text>"
    )
    stream.write("\n".join(head) + "\n")

    columns = [f'<rect x="{left + j * cell_w:.2f}" y="' for j in range(n_b)]
    size = f'" width="{cell_w + 0.05:.2f}" height="{cell_h + 0.05:.2f}" fill="'
    fills: dict[int, str] = {}
    for i, d_row in enumerate(grid.delta):
        y_size = f"{top + plot_h - (i + 1) * cell_h:.2f}{size}"
        codes = _ramp_codes((d_row - vmin) / span)
        for code in set(codes).difference(fills):
            fills[code] = f'#{code:06x}"/>\n'
        stream.write("".join([f"{x}{y_size}{fills[code]}" for x, code in zip(columns, codes)]))

    tail = []
    axis_y = top + plot_h
    for value in (0, 30, 60, 90):
        x = left + value / 90.0 * plot_w
        tail.append(
            f'<line x1="{x:.2f}" y1="{axis_y:.2f}" x2="{x:.2f}" y2="{axis_y + 6:.2f}" stroke="#000"/>'
        )
        tail.append(f'<text x="{x:.2f}" y="{axis_y + 20:.2f}" text-anchor="middle">{value}</text>')
    for value in (0.0, 0.5, 1.0):
        y = top + plot_h - value * plot_h
        tail.append(
            f'<line x1="{left - 6:.2f}" y1="{y:.2f}" x2="{left:.2f}" y2="{y:.2f}" stroke="#000"/>'
        )
        tail.append(
            f'<text x="{left - 10:.2f}" y="{y + 4:.2f}" text-anchor="end">{value:g}</text>'
        )
    tail.append(
        f'<text x="{left + plot_w / 2:.2f}" y="{axis_y + 40:.2f}" text-anchor="middle">beta0 (deg)</text>'
    )
    tail.append(
        f'<text x="16" y="{top + plot_h / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {top + plot_h / 2:.2f})">c1_squared</text>'
    )
    tail.append("</svg>")
    stream.write("\n".join(tail) + "\n")


def _open_output(path: str) -> TextIO:
    try:
        return open(path, "w", encoding="utf-8")
    except ValueError as exc:  # a NUL byte in the path
        raise DomainError(f"cannot write {path!r}: {exc}") from None


def _cmd_scan(args: argparse.Namespace) -> int:
    from . import scan_surface

    outputs = tuple(p for p in (args.out, args.svg) if p is not None)
    manifest = RunManifest(
        "scan",
        parameters=(
            ("c1sq_steps", str(args.c1sq_steps)),
            ("beta0_steps", str(args.beta0_steps)),
        ),
        output_paths=outputs,
    )
    grid = scan_surface(args.c1sq_steps, args.beta0_steps)
    if args.out is not None:
        with _open_output(args.out) as stream:
            _write_csv(grid, manifest, stream)
    if args.svg is not None:
        with _open_output(args.svg) as stream:
            _write_svg(grid, manifest, stream)
    if outputs:
        _print_manifest(manifest)
        mx, mb, md = grid.max_cell()
        print(f"cells = {grid.shape[0] * grid.shape[1]}")
        print(f"max_delta = {_fmt(md)}")
        print(f"max_c1_squared = {_fmt(mx)}")
        print(f"max_beta0_deg = {_fmt(mb)}")
    else:
        try:
            _write_csv(grid, manifest, sys.stdout)
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader left early (e.g. `| head`). Send what is still
            # buffered to devnull so that the flush at exit cannot fail.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    return 0


# ---------- optimize ----------


def _cmd_optimize(args: argparse.Namespace) -> int:
    from . import DELTA_MAX, optimize_delta, solve_hardy

    _print_manifest(RunManifest("optimize"))
    c1_squared, beta0, delta = optimize_delta()
    beta0_deg = math.degrees(beta0)
    p_hardy = solve_hardy(make_state(c1_squared), beta0).hardy_probability()
    print(f"c1_squared = {_fmt(c1_squared)}")
    print(f"beta0_deg = {_fmt(beta0_deg)}")
    print(f"delta = {_fmt(delta)}")
    print(f"p_hardy = {_fmt(p_hardy)}")

    # The five-term closed form and the solved probability tables are
    # independent routes to Delta = 2 + 4 P; they must meet at the maximum.
    ok = abs(delta - DELTA_MAX) <= BOUNDARY_TOL and abs(delta - (2.0 + 4.0 * p_hardy)) <= ZERO_TOL
    print(f"within_tolerance = {_flag(ok)}")
    if not ok:
        raise DomainError("optimizer result strays from the documented maximum")
    return 0


# ---------- lhv-sim ----------


def _cmd_lhv_sim(args: argparse.Namespace) -> int:
    from . import simulate, strategy_from_text

    try:
        with open(args.strategy, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, ValueError) as exc:  # ValueError: undecodable, or a NUL in the path
        raise DomainError(f"cannot read strategy file: {exc}") from None
    strategy = strategy_from_text(text)
    manifest = RunManifest(
        "lhv-sim",
        parameters=(("strategy", args.strategy), ("trials", str(args.trials))),
        seed=args.seed,
    )
    tally = simulate(strategy, args.trials, args.seed)
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
    import numpy as np

    from . import batch_probabilities

    n = 20000
    x = rng.uniform(0.0, 1.0, n)
    c1 = rng.choice((-1.0, 1.0), n) * np.sqrt(x)
    c2 = rng.choice((-1.0, 1.0), n) * np.sqrt(1.0 - x)
    beta1 = rng.uniform(-np.pi, np.pi, n)
    beta2 = rng.uniform(-np.pi, np.pi, n)
    delta12 = rng.uniform(-np.pi, np.pi, n)
    total = sum(batch_probabilities(c1, c2, beta1, beta2, delta12))
    deviation = float(np.max(np.abs(total - 1.0)))
    return deviation <= ROUNDING_TOL, f"max |sum - 1| = {deviation:.3g} over {n} draws"


def _verify_delta_identity() -> tuple[bool, str]:
    from . import scan_surface

    grid = scan_surface(51, 51)
    live = ~grid.degenerate
    deviation = float(abs(grid.delta[live] - 2.0 - 4.0 * grid.p_hardy[live]).max())
    return deviation <= ZERO_TOL, f"max |delta - 2 - 4 p| = {deviation:.3g} on a 51x51 grid"


def _verify_vanishing_round_trip(rng: np.random.Generator) -> tuple[bool, str]:
    import numpy as np

    from . import batch_probabilities

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
    ok = forward <= ZERO_TOL and reverse > ZERO_TOL
    return ok, f"root max = {forward:.3g}, perturbed min = {reverse:.3g} over {n} draws"


def _cmd_verify(args: argparse.Namespace) -> int:
    import numpy as np

    manifest = RunManifest("verify")
    _print_manifest(manifest)
    rng = np.random.default_rng(8128)
    checks = (
        ("normalization", _verify_normalization(rng)),
        ("delta identity", _verify_delta_identity()),
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
    error = math.hypot(*sigmas)  # no overflow unless the result itself does
    if math.isinf(error):
        raise DomainError(f"errors' quadrature sum exceeds the float range: {errors!r}")
    return error


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
    if args.config is not None and args.values:
        raise DomainError("pass either --config or --values, not both")
    if args.errors and not args.values:
        raise DomainError("--errors requires --values")

    if args.config is not None:
        from . import hardy_inequality_lhs_rhs

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
