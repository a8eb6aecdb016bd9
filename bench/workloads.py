"""The four benchmark workloads.

Each workload is a closed loop of rounds driven by one process. Its
inputs come only from the run seed and are made once, at set-up; every
round then repeats the same named operations on them (a scan, a block of
configs, one polytope check, one CLI invocation). scan-export and
cli-session run hardylab as `python -m hardylab.cli` subprocesses;
config-sweep and local-models call the library in process. Every output
is checked with bench/checks.py, which shares no formulas with the
package.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import statistics
import subprocess
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np

import checks
from spans import Tracer

BENCH_DIR = Path(__file__).resolve().parent

# A shared host's speed drifts: a fixed pure-Python loop was seen to take
# up to 1.7x longer for tens of seconds at a time. So every timed
# operation is bracketed by a short reference loop of its own kind, and
# its time is rescaled to a reference host, one on which the loop takes
# its nominal seconds (its fastest time on an unloaded 2.0 GHz Xeon
# vCPU). The ratio of an operation to the loop beside it holds steady
# while the host's speed drifts.


def _interpreter_work() -> None:
    total = Fraction(0)
    parts = []
    for i in range(1, 120):
        total += Fraction(1, i)
        parts.append(f"{i / 7:.6g}")
    ",".join(parts)


_ARRAY = np.random.default_rng(0).random(1 << 14)
_EDGES = np.linspace(0.0, 1.0, 33)


def _array_work() -> None:
    draws = np.random.default_rng(7).random(_ARRAY.size)
    np.bincount(np.searchsorted(_EDGES, draws), minlength=_EDGES.size + 1)
    np.cos(_ARRAY * draws)


# kind -> (loop, its nominal seconds). "interpreter" brackets Python-level
# work and CLI subprocesses; "array" brackets numpy kernels.
REFERENCES = {
    "interpreter": (_interpreter_work, 0.34e-3),
    "array": (_array_work, 0.85e-3),
}


def reference_seconds(kind: str) -> float:
    """Seconds the reference loop of kind takes on the host right now: the
    fastest of three back-to-back runs, so that a cold cache after a
    context switch does not count."""
    work, _ = REFERENCES[kind]
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - start)
    return best


class Bracket:
    """Runs the reference loop of kind before and after an operation;
    scale is then the factor from host seconds to reference-host seconds.

    With during=True a thread also runs the loop every SAMPLE_EVERY
    seconds while the operation runs, and scale takes the median of all
    the loop's times. That is for CLI subprocesses, which run for up to
    two seconds on another vCPU while this process waits; a loop run in
    process would take the interpreter lock from the operation it times.
    """

    SAMPLE_EVERY = 0.03

    def __init__(self, kind: str, during: bool = False) -> None:
        self.kind = kind
        self.during = during
        self.scale = 1.0

    def __enter__(self) -> Bracket:
        self.samples = [reference_seconds(self.kind)]
        self._stop = threading.Event()
        self._sampler = threading.Thread(target=self._sample) if self.during else None
        if self._sampler is not None:
            self._sampler.start()
        return self

    def _sample(self) -> None:
        while not self._stop.wait(self.SAMPLE_EVERY):
            self.samples.append(reference_seconds(self.kind))

    def __exit__(self, *exc) -> None:
        if self._sampler is not None:
            self._stop.set()
            self._sampler.join()
        self.samples.append(reference_seconds(self.kind))
        self.scale = REFERENCES[self.kind][1] / statistics.median(self.samples)


@dataclass
class Round:
    """Timings and by-products of one round.

    times maps each operation of the round to its seconds and scales to
    the factor that rescales them to the reference host; latencies_ms
    holds one entry per timed call for the report.
    """

    times: dict[str, float] = field(default_factory=dict)
    scales: dict[str, float] = field(default_factory=dict)
    latencies_ms: list[float] = field(default_factory=list)
    processes: dict[str, list] = field(default_factory=dict)
    rss_mb: float = 0.0
    output_bytes: int = 0
    svg_rects_per_pixel: float = 0.0

    @contextmanager
    def bracket(self, key: str, kind: str = "interpreter", during: bool = False):
        """Bracket the operation key with the reference loop of kind."""
        with Bracket(kind, during) as bracket:
            yield
        self.scales[key] = bracket.scale


@dataclass
class Child:
    code: int
    stdout: bytes
    stderr: bytes
    seconds: float
    rss_mb: float


class Context:
    """What a workload needs from the run: seed, paths, environment, tally."""

    def __init__(self, root: Path, work: Path, seed: int, python: str) -> None:
        self.root = root
        self.work = work
        self.seed = seed
        self.python = python
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.nproc = os.cpu_count() or 1
        self.tally = checks.Tally()

    def rng(self, *key: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *key])

    def run_child(self, cmd: list[str]) -> Child:
        """Run cmd in the work directory; time it from spawn to exit."""
        with tempfile.TemporaryFile(dir=self.work) as out, tempfile.TemporaryFile(dir=self.work) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=self.work, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Child(proc.returncode, out.read(), err.read(), seconds, usage.ru_maxrss / 1024.0)

    def run_cli(self, argv: list[str], spans_path: str | None = None) -> Child:
        if spans_path is None:
            return self.run_child([self.python, "-m", "hardylab.cli", *argv])
        return self.run_child([self.python, str(BENCH_DIR / "launch.py"), spans_path, *argv])


def _load_spans(path: Path) -> list:
    with open(path, encoding="utf-8") as handle:
        spans = [tuple(span) for span in json.load(handle)]
    path.unlink()
    return spans


class Workload:
    """Set-up makes the inputs and fills items (work per operation) and the
    operations of the primary and secondary phase."""

    name = ""
    # (name of the phase rate, what it counts) for the two phases.
    primary = ("", "")
    secondary = ("", "")
    latency_name = ""
    in_process = False

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.items: dict[str, float] = {}
        self.primary_ops: list[str] = []
        self.secondary_ops: list[str] = []

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, traced: bool) -> Round:
        raise NotImplementedError

    def describe(self) -> str:
        return ""


# ---------- scan-export ----------


class ScanExport(Workload):
    """Large CSV+SVG scans, a long thin CSV-only grid, and a grid whose
    axes hit the degenerate locus (c1^2 = 0, 0.5, 1; beta0 = 0, 90)."""

    name = "scan-export"
    primary = ("cells_per_s", "grid cells written per second of CLI wall time, start-up included")
    secondary = ("csv_cells_per_s", "cells per second of the CSV-only thin-grid scan")
    latency_name = "scan_ms"

    def setup(self) -> None:
        rng = self.ctx.rng(1)
        # (label, c1^2 steps, beta0 steps, with SVG)
        self.scans = [
            ("large", int(rng.integers(351, 358)), int(rng.integers(316, 323)), True),
            ("thin", int(rng.integers(7801, 8302)), 11, False),
            ("degenerate", 2 * int(rng.integers(100, 121)) + 1, 2 * int(rng.integers(90, 101)) + 1, True),
        ]
        self.items = {label: n1 * n2 for label, n1, n2, _ in self.scans}
        self.primary_ops = list(self.items)
        self.secondary_ops = ["thin"]
        self.reference: dict[str, bytes] = {}
        self.rects_per_pixel = 0.0
        warm = self.ctx.run_cli(["--version"])
        self.ctx.tally.record("warm-up --version", checks.check_exit(warm.code, warm.stderr.decode(), 0, None))

    def describe(self) -> str:
        return "scans " + ", ".join(f"{label} {a}x{b}{'+svg' if svg else ''}" for label, a, b, svg in self.scans)

    def round(self, traced: bool) -> Round:
        work = self.ctx.work
        result = Round()
        for label, n1, n2, svg in self.scans:
            csv_path, svg_path = work / f"{label}.csv", work / f"{label}.svg"
            argv = ["scan", "--c1sq-steps", str(n1), "--beta0-steps", str(n2), "--out", csv_path.name]
            if svg:
                argv += ["--svg", svg_path.name]
            spans_path = work / f"{label}.spans.json"
            with result.bracket(label, during=True):
                child = self.ctx.run_cli(argv, str(spans_path) if traced else None)
            result.times[label] = child.seconds
            result.latencies_ms.append(child.seconds * 1e3)
            result.rss_mb = max(result.rss_mb, child.rss_mb)
            if traced:
                result.processes[label] = _load_spans(spans_path)
            files = [csv_path] + ([svg_path] if svg else [])
            result.output_bytes += len(child.stdout) + sum(p.stat().st_size for p in files if p.exists())
            self.ctx.tally.record(f"scan {label}", self._check(label, child, n1, n2, csv_path, svg_path if svg else None))
        result.svg_rects_per_pixel = self.rects_per_pixel
        return result

    def _check(self, label, child, n1, n2, csv_path: Path, svg_path: Path | None) -> list[str]:
        problems = checks.check_exit(child.code, child.stderr.decode(), 0, None)
        if problems:
            return problems
        digest = hashlib.sha256(child.stdout)
        for path in (csv_path, svg_path):
            if path is not None:
                digest.update(path.read_bytes())
        digest = digest.digest()
        if label in self.reference:
            return [] if digest == self.reference[label] else ["output differs from the first run of the same scan"]
        csv_text = csv_path.read_text(encoding="utf-8")
        problems = checks.check_scan_csv(csv_text, n1, n2)
        problems += checks.check_scan_stdout(child.stdout.decode(), n1 * n2, csv_text)
        if svg_path is not None:
            problems += checks.check_svg(str(svg_path), n1 * n2)
            if label == "large":
                self.rects_per_pixel = svg_path.read_bytes().count(b"<rect") / checks.PLOT_PIXELS
        if not problems:
            self.reference[label] = digest
        return problems


# ---------- config-sweep ----------


class ConfigSweep(Workload):
    """Solved Hardy configs through the validated object API, and random
    full experiments through the numpy batch kernels."""

    name = "config-sweep"
    primary = ("configs_per_s", "solved Hardy configs through solve_hardy, config(), evaluate, "
               "delta_from_probabilities, delta_closed_form, check_hardy, hardy_inequality_lhs_rhs")
    secondary = ("batch_configs_per_s", "random experiments (4 setting pairs) through batch_probabilities + batch_correlation")
    latency_name = "config_block_ms"
    in_process = True
    CONFIGS = 3000
    BLOCK = 100
    BATCH = 500_000
    CHUNK = 250_000
    ORACLE_SAMPLE = 40

    def setup(self) -> None:
        import hardylab

        self.hl = hardylab
        self.variants = list(hardylab.HardyVariant)
        points = self._points(self.ctx.rng(2))
        self.blocks = {f"configs{i // self.BLOCK}": points[i:i + self.BLOCK] for i in range(0, len(points), self.BLOCK)}
        rng = self.ctx.rng(3)
        self.chunks = {f"batch{i}": self._batch_inputs(rng, self.CHUNK) for i in range(self.BATCH // self.CHUNK)}
        self.items = {key: len(block) for key, block in self.blocks.items()}
        self.items.update(dict.fromkeys(self.chunks, self.CHUNK))
        self.primary_ops, self.secondary_ops = list(self.blocks), list(self.chunks)
        self._run_block(points[:4], oracle=True)
        self.hl.batch_probabilities(*(a[:10] for a in self.chunks["batch0"]))

    def describe(self) -> str:
        return f"{self.CONFIGS} object-API configs in blocks of {self.BLOCK} and {self.BATCH} batch configs per round"

    def _points(self, rng) -> list[tuple[float, float, object]]:
        """(c1^2, beta0 in degrees, variant): the bulk of the partially
        entangled range, points near c1^2 = 0.5 and near beta0 = 0/90 deg,
        and both maximizers."""
        n = self.CONFIGS - 2
        kinds = rng.choice(4, size=n, p=[0.6, 0.15, 0.125, 0.125])
        points = [(0.177352, 17.5566), (0.822648, 72.4434)]
        for kind in kinds:
            if kind == 0:
                x = float(rng.uniform(0.02, 0.98))
                while abs(x - 0.5) < 1e-3:
                    x = float(rng.uniform(0.02, 0.98))
                points.append((x, float(rng.uniform(1.0, 89.0))))
            elif kind == 1:
                # Near c1^2 = 0.5 the Hardy probability shrinks like the
                # squared offset; these ranges keep it above 6e-10, clear
                # of check_hardy's 1e-10 zero tolerance.
                offset = 10.0 ** rng.uniform(-4.0, -2.0) * rng.choice((-1.0, 1.0))
                points.append((0.5 + float(offset), float(rng.uniform(5.0, 85.0))))
            else:
                near = float(10.0 ** rng.uniform(-2.0, 0.0))
                beta = near if kind == 2 else 90.0 - near
                x = float(rng.uniform(0.05, 0.4))
                points.append((x if rng.random() < 0.5 else 1.0 - x, beta))
        return [(x, b, self.variants[i % 4]) for i, (x, b) in enumerate(points)]

    def _run_block(self, points, oracle: bool) -> float:
        """Push points through the object API; check them; return seconds."""
        hl = self.hl
        outputs = []
        start = time.perf_counter()
        for x, beta_deg, variant in points:
            beta0 = math.radians(beta_deg)
            config = hl.solve_hardy(hl.make_state(x), beta0, variant).config()
            outputs.append((
                config,
                hl.evaluate(config).delta,
                hl.delta_from_probabilities(config),
                hl.delta_closed_form(x, beta0),
                hl.check_hardy(config, variant),
                hl.hardy_inequality_lhs_rhs(config),
            ))
        seconds = time.perf_counter() - start
        for index, ((x, beta_deg, variant), output) in enumerate(zip(points, outputs)):
            problems = self._check_config(variant, *output, oracle=oracle and index < self.ORACLE_SAMPLE)
            self.ctx.tally.record(f"config ({x!r}, {beta_deg!r}, {variant.value})", problems)
        return seconds

    def _check_config(self, variant, config, delta, delta_p, delta_c, check, lhs_rhs, oracle) -> list[str]:
        problems = []
        if not (abs(delta - delta_p) <= 1e-10 and abs(delta - delta_c) <= 1e-10):
            problems.append(f"CHSH routes disagree: {delta!r}, {delta_p!r}, {delta_c!r}")
        if not check.satisfied:
            problems.append(f"check_hardy not satisfied: {check}")
        if not (abs(delta - 2.0 - 4.0 * check.p_d) <= 1e-10 and 2.0 < delta <= checks.DELTA_BOUND + 1e-9):
            problems.append(f"delta {delta!r} is not 2 + 4 * {check.p_d!r} within the bound")
        if variant is self.variants[0]:
            lhs, rhs = lhs_rhs
            if not (abs(lhs - check.p_d) <= 1e-12 and 0.0 <= rhs <= 3e-10):
                problems.append(f"hardy_inequality_lhs_rhs = {lhs_rhs!r}")
        if oracle:
            c1, c2 = config.state.c1, config.state.c2
            settings = {
                11: (config.d11.beta, config.d11.delta),
                12: (config.d12.beta, config.d12.delta),
                21: (config.d21.beta, config.d21.delta),
                22: (config.d22.beta, config.d22.delta),
            }
            f1, f2 = variant.sign_factors
            want = checks.hardy_probabilities(c1, c2, settings, f1, f2)
            got = (check.p_a, check.p_b, check.p_c, check.p_d)
            if max(abs(a - b) for a, b in zip(want, got)) > 1e-12 or max(want[:3]) > 1e-10:
                problems.append(f"Hardy probabilities {got!r}, state vector gives {want!r}")
            if abs(checks.chsh_value(c1, c2, settings) - delta) > 1e-10:
                problems.append(f"delta {delta!r} differs from the state-vector CHSH value")
        return problems

    @staticmethod
    def _batch_inputs(rng, n):
        x = rng.uniform(0.0, 1.0, (n, 1))
        c1 = rng.choice((-1.0, 1.0), (n, 1)) * np.sqrt(x)
        c2 = rng.choice((-1.0, 1.0), (n, 1)) * np.sqrt(1.0 - x)
        beta = rng.uniform(-math.pi, math.pi, (n, 4))  # D11, D12, D21, D22
        phase = rng.uniform(-math.pi, math.pi, (n, 4))
        first, second = [0, 0, 1, 1], [2, 3, 2, 3]
        return c1, c2, beta[:, first], beta[:, second], phase[:, first] - phase[:, second]

    @staticmethod
    def _check_batch(args, probs, corr) -> list[str]:
        p_pp, p_mm, p_pm, p_mp = (np.asarray(p) for p in probs)
        corr = np.asarray(corr)
        problems = []
        if float(np.max(np.abs(p_pp + p_mm + p_pm + p_mp - 1.0))) > 1e-12:
            problems.append("probabilities do not sum to 1")
        if float(min(p.min() for p in (p_pp, p_mm, p_pm, p_mp))) < -1e-12:
            problems.append("negative probability")
        if float(np.max(np.abs(p_pp + p_mm - p_pm - p_mp - corr))) > 1e-12:
            problems.append("correlation disagrees with the probabilities")
        chsh = np.abs(corr[:, 0] + corr[:, 1] + corr[:, 2] - corr[:, 3])
        if float(chsh.max()) > checks.TSIRELSON + 1e-12:
            problems.append(f"|CHSH| = {float(chsh.max())!r} exceeds 2 sqrt 2")
        c1, c2, beta1, beta2, phase = args
        for row in range(0, len(c1), max(1, len(c1) // 8)):
            for pair in range(4):
                want = checks.correlation(float(c1[row, 0]), float(c2[row, 0]), (float(beta1[row, pair]), float(phase[row, pair])), (float(beta2[row, pair]), 0.0))
                if abs(want - float(corr[row, pair])) > 1e-12:
                    problems.append(f"row {row} pair {pair}: correlation {float(corr[row, pair])!r}, state vector {want!r}")
        return problems

    def round(self, traced: bool) -> Round:
        result = Round()
        for key, block in self.blocks.items():
            with result.bracket(key):
                result.times[key] = self._run_block(block, oracle=key == "configs0")
            result.latencies_ms.append(result.times[key] * 1e3)
        for key, args in self.chunks.items():
            with result.bracket(key, "array"):
                start = time.perf_counter()
                probs = self.hl.batch_probabilities(*args)
                corr = self.hl.batch_correlation(*args)
                result.times[key] = time.perf_counter() - start
            self.ctx.tally.record(f"batch {key}", self._check_batch(args, probs, corr))
        return result


# ---------- local-models ----------


class LocalModels(Workload):
    """LHV strategies parsed from text and simulated, and exact local
    polytope checks on points inside, outside and on a CHSH facet."""

    name = "local-models"
    primary = ("trials_per_s", "LHV trials (4 pairs x trials per pair, summed over strategies) per second of parse + simulate")
    secondary = ("polytope_checks_per_s", "is_locally_realizable calls per second over the inside/boundary/outside mix")
    latency_name = "polytope_check_ms"
    in_process = True
    MIXTURES = 8
    STOCHASTIC = 8
    TRIALS = 250_000
    POINTS = {"inside": 24, "boundary": 24, "outside": 6}

    def setup(self) -> None:
        import hardylab

        self.hl = hardylab
        # One worker: with two, a call's time follows how busy the other
        # vCPU of the shared host is, and drifts from run to run. The CLI's
        # threaded lhv-sim runs in cli-session.
        self.workers = 1
        self.strategies = self._strategies(self.ctx.rng(4))
        self.points = self._points(self.ctx.rng(5))
        self.tallies: dict[int, tuple] = {}
        self.items = {f"strategy{i}": 4 * self.TRIALS for i in range(len(self.strategies))}
        self.primary_ops = list(self.items)
        self.secondary_ops = [f"point{j}" for j in range(len(self.points))]
        self.items.update(dict.fromkeys(self.secondary_ops, 1))
        text, exact, seed = self.strategies[0]
        self._simulate(-1, text, exact, seed, 1000)
        self._check_point(self.points[0])

    def describe(self) -> str:
        points = ", ".join(f"{n} {kind}" for kind, n in self.POINTS.items())
        return (f"{self.MIXTURES} mixtures + {self.STOCHASTIC} stochastic strategies x {self.TRIALS} trials per pair "
                f"(simulate workers {self.workers}), polytope points {points} per round")

    def _strategies(self, rng):
        """(text, exact correlations, simulate seed) of each strategy: mixtures
        with exact Fraction weights over 2-16 assignments, and piecewise
        models with 1-32 segments."""
        labels = ["".join(bits) for bits in itertools.product("pm", repeat=4)]
        out = []
        for _ in range(self.MIXTURES):
            size = int(rng.integers(2, 17))
            chosen = rng.choice(16, size=size, replace=False)
            raw = [int(k) for k in rng.integers(1, 40, size=size)]
            total = sum(raw)
            components = [(Fraction(k, total), labels[i]) for k, i in zip(raw, chosen)]
            text = "type = mixture\n" + "".join(f"weight_{label} = {w.numerator}/{w.denominator}\n" for w, label in components)
            out.append((text, checks.mixture_correlations(components), int(rng.integers(0, 2**31))))
        for _ in range(self.STOCHASTIC):
            segments = int(rng.integers(1, 33))
            inner = np.sort(rng.choice(np.arange(1, 1024), size=segments - 1, replace=False)) / 1024.0
            points = [0.0, *map(float, inner), 1.0]
            masses = rng.integers(1, 100, size=segments)
            masses = masses / masses.sum()
            densities = [float(m / (hi - lo)) for m, lo, hi in zip(masses, points, points[1:])]
            responses = [tuple(float(v) for v in np.round(rng.uniform(0, 1, 4), 6)) for _ in range(segments)]
            text = "type = stochastic\n"
            text += "breakpoints = " + ", ".join(repr(p) for p in points) + "\n"
            text += "density = " + ", ".join(repr(d) for d in densities) + "\n"
            text += "".join(f"response_{i + 1} = " + ", ".join(repr(v) for v in row) + "\n" for i, row in enumerate(responses))
            out.append((text, checks.stochastic_correlations(points, densities, responses), int(rng.integers(0, 2**31))))
        return out

    def _simulate(self, number, text, exact, seed, trials) -> float:
        """Parse and simulate one strategy; check the tally; return seconds."""
        start = time.perf_counter()
        tally = self.hl.simulate(self.hl.strategy_from_text(text), trials, seed, workers=self.workers)
        seconds = time.perf_counter() - start
        problems = checks.check_tally(tally.counts, trials, exact) if tally.trials_per_pair == trials else ["wrong trials_per_pair"]
        if self.tallies.setdefault(number, tally.counts) != tally.counts:
            problems.append("tally differs from an earlier run with the same seed")
        self.ctx.tally.record(f"simulate seed {seed}", problems)
        return seconds

    def _points(self, rng):
        """Dyadic quadruples, exact in binary, of each polytope class."""
        out = []
        for kind, count in self.POINTS.items():
            found = 0
            while found < count:
                if kind == "boundary":
                    quad = [int(k) / 64 for k in rng.integers(-64, 65, size=3)]
                    facet = int(rng.integers(0, 8))
                    signs = [1, 1, 1, 1]
                    signs[facet % 4] = -1
                    total = 2 if facet < 4 else -2
                    quad.append((total - sum(s * q for s, q in zip(signs, quad))) / signs[3])
                    quad = tuple(quad)
                else:
                    quad = tuple(int(k) / 64 for k in rng.integers(-64, 65, size=4))
                if checks.polytope_class(quad) == kind and (kind != "boundary" or all(abs(q) < 1 for q in quad)):
                    out.append((quad, kind))
                    found += 1
        order = rng.permutation(len(out))
        return [out[i] for i in order]

    def _check_point(self, point) -> float:
        quad, kind = point
        start = time.perf_counter()
        verdict = self.hl.is_locally_realizable(*quad)
        seconds = time.perf_counter() - start
        self.ctx.tally.record(f"polytope {kind} {quad}", checks.check_polytope_verdict(quad, verdict))
        return seconds

    def round(self, traced: bool) -> Round:
        result = Round()
        for number, (text, exact, seed) in enumerate(self.strategies):
            with result.bracket(f"strategy{number}", "array"):
                result.times[f"strategy{number}"] = self._simulate(number, text, exact, seed, self.TRIALS)
        for number, point in enumerate(self.points):
            with result.bracket(f"point{number}"):
                result.times[f"point{number}"] = self._check_point(point)
            result.latencies_ms.append(result.times[f"point{number}"] * 1e3)
        return result


# ---------- cli-session ----------


@dataclass
class Invocation:
    argv: list[str]
    code: int = 0
    error: str | None = None
    check: object = None  # stdout text -> problems
    files: tuple[str, ...] = ()
    light: bool = True  # start-up bound: no scan, optimizer, verify or simulation


class CliSession(Workload):
    """Short CLI invocations cycling through every subcommand, including
    expected domain and usage errors, on seeded config and strategy files."""

    name = "cli-session"
    primary = ("invocations_per_s", "CLI invocations per second of one client, spawn to exit")
    secondary = ("light_invocations_per_s", "the same over start-up-bound invocations (no scan, optimize, verify, lhv-sim)")
    latency_name = "invocation_ms"
    TRIALS = 20000

    def setup(self) -> None:
        self.clients = min(2, self.ctx.nproc)
        self.invocations = self._invocations(self.ctx.rng(6))
        self.items = {f"invocation{i}": 1 for i in range(len(self.invocations))}
        self.primary_ops = list(self.items)
        self.secondary_ops = [f"invocation{i}" for i, inv in enumerate(self.invocations) if inv.light]
        self.reference: dict[int, tuple] = {}
        warm = self.ctx.run_cli(["--version"])
        self.ctx.tally.record("warm-up --version", checks.check_exit(warm.code, warm.stderr.decode(), 0, None))

    def describe(self) -> str:
        return f"{len(self.invocations)} invocations per round, {self.clients} closed-loop clients"

    def _write(self, name: str, text: str) -> str:
        (self.ctx.work / name).write_text(text, encoding="utf-8")
        return name

    def _config_file(self, name, x, settings) -> str:
        lines = [f"c1_squared = {x!r}"]
        for tag in (11, 12, 21, 22):
            beta, delta = settings[tag]
            lines.append(f"beta_{tag}_deg = {math.degrees(beta)!r}")
            if delta:
                lines.append(f"delta_{tag}_deg = {math.degrees(delta)!r}")
        return self._write(name, "\n".join(lines) + "\n")

    def _invocations(self, rng) -> list[Invocation]:
        hardy = []
        for i in range(3):
            x = float(rng.uniform(0.05, 0.45)) if i % 2 else float(rng.uniform(0.55, 0.95))
            settings = checks.hardy_settings(x, math.radians(float(rng.uniform(5.0, 85.0))))
            hardy.append((self._config_file(f"hardy{i}.cfg", x, settings), x, settings))
        random_cfgs = []
        for i in range(2):
            x = float(rng.uniform(0.05, 0.95))
            settings = {tag: (float(rng.uniform(-math.pi, math.pi)), float(rng.uniform(-math.pi, math.pi))) for tag in (11, 12, 21, 22)}
            settings = {tag: (math.radians(round(math.degrees(b), 6)), math.radians(round(math.degrees(d), 6))) for tag, (b, d) in settings.items()}
            random_cfgs.append((self._config_file(f"random{i}.cfg", x, settings), x, settings))
        bad = self._write("bad.cfg", "c1_squared = 0.3\nbeta_11_deg = 10\n")
        mixture = "type = mixture\nweight_ppmm = 1/3\nweight_pmpm = 1/6\nweight_mpmp = 1/4\nweight_mmpp = 1/4\n"
        mixture_exact = checks.mixture_correlations([(Fraction(1, 3), "ppmm"), (Fraction(1, 6), "pmpm"), (Fraction(1, 4), "mpmp"), (Fraction(1, 4), "mmpp")])
        density3 = (1.0 - 1.2 * 0.25 - 0.8 * 0.375) / 0.375
        stochastic = (f"type = stochastic\nbreakpoints = 0, 0.25, 0.625, 1\ndensity = 1.2, 0.8, {density3!r}\n"
                      "response_1 = 0.9, 0.2, 0.7, 0.4\nresponse_2 = 0.1, 0.6, 0.3, 0.85\nresponse_3 = 0.5, 0.95, 0.05, 0.5\n")
        stochastic_exact = checks.stochastic_correlations(
            [0.0, 0.25, 0.625, 1.0], [1.2, 0.8, density3],
            [(0.9, 0.2, 0.7, 0.4), (0.1, 0.6, 0.3, 0.85), (0.5, 0.95, 0.05, 0.5)])
        self._write("mixture.lhv", mixture)
        self._write("stochastic.lhv", stochastic)

        def probs_check(x, settings, pairs):
            def check(out):
                values = checks.key_values(out)
                c1, c2 = math.sqrt(x), math.sqrt(1.0 - x)
                problems = []
                for pair in pairs:
                    table = checks.pair_table(c1, c2, settings[10 + int(pair[0])], settings[20 + int(pair[1])])
                    for label, key in (("pp", (1, 1)), ("pm", (1, -1)), ("mp", (-1, 1)), ("mm", (-1, -1))):
                        problems += checks.check_close(values, f"p{pair}_{label}", table[key], 1e-10)
                return problems
            return check

        def correlation_check(x, settings, pair=None):
            def check(out):
                values = checks.key_values(out)
                c1, c2 = math.sqrt(x), math.sqrt(1.0 - x)
                pairs = [pair] if pair else ["11", "12", "21", "22"]
                problems = []
                for p in pairs:
                    want = checks.correlation(c1, c2, settings[10 + int(p[0])], settings[20 + int(p[1])])
                    problems += checks.check_close(values, f"e{p}", want, 1e-10)
                if pair is None:
                    delta = checks.chsh_value(c1, c2, settings)
                    problems += checks.check_close(values, "delta", delta, 1e-10)
                    problems += checks.check_equal(values, "violated", "true" if delta > 2.0 + 1e-9 else "false")
                return problems
            return check

        def hardy_check(x, settings, satisfied):
            def check(out):
                values = checks.key_values(out)
                problems = checks.check_equal(values, "satisfied", satisfied)
                if satisfied == "true":
                    p_d = checks.hardy_probabilities(math.sqrt(x), math.sqrt(1.0 - x), settings)[3]
                    problems += checks.check_close(values, "p_d", p_d, 1e-10)
                return problems
            return check

        def solve_check(x, beta_deg):
            p_d = checks.hardy_probabilities(math.sqrt(x), math.sqrt(1.0 - x), checks.hardy_settings(x, math.radians(beta_deg)))[3]

            def check(out):
                values = checks.key_values(out)
                return checks.check_equal(values, "satisfied", "true") + checks.check_close(values, "p_d", p_d, 1e-10)
            return check

        def scan_check(n1, n2, csv_name):
            def check(out):
                if csv_name is None:
                    return checks.check_scan_csv(out, n1, n2)
                csv_text = (self.ctx.work / csv_name).read_text(encoding="utf-8")
                problems = checks.check_scan_csv(csv_text, n1, n2) + checks.check_scan_stdout(out, n1 * n2, csv_text)
                return problems + checks.check_svg(str(self.ctx.work / "session.svg"), n1 * n2)
            return check

        def optimize_check(out):
            values = checks.key_values(out)
            return checks.check_close(values, "delta", checks.DELTA_BOUND, 1e-9) + checks.check_equal(values, "within_tolerance", "true")

        def verify_check(out):
            ok = [line for line in out.splitlines() if ": ok (" in line]
            return [] if len(ok) == 3 else [f"{len(ok)} of 3 verify checks ok"]

        def lhv_check(exact, trials):
            def check(out):
                values = checks.key_values(out)
                try:
                    counts = [[int(values[f"count_{p}_{o}"]) for o in ("pp", "pm", "mp", "mm")] for p in ("11", "12", "21", "22")]
                except (KeyError, ValueError):
                    return ["missing count lines"]
                return checks.check_equal(values, "trials_per_pair", str(trials)) + checks.check_tally(counts, trials, exact)
            return check

        def fixture_check(out):
            values = checks.key_values(out)
            return checks.check_equal(values, "margin", "0.0846") + checks.check_equal(values, "violated", "true")

        def inequality_config_check(x, settings):
            p = checks.hardy_probabilities(math.sqrt(x), math.sqrt(1.0 - x), settings)

            def check(out):
                values = checks.key_values(out)
                return (checks.check_close(values, "lhs", p[3], 1e-10) + checks.check_close(values, "rhs", 0.0, 1e-9)
                        + checks.check_equal(values, "violated", "true"))
            return check

        def values_check(numbers):
            margin = checks.inequality_margin(numbers)

            def check(out):
                values = checks.key_values(out)
                try:
                    got = Decimal(values.get("margin", "nan"))
                except ArithmeticError:
                    return ["margin is not a decimal"]
                return [] if got == margin else [f"margin {got} != {margin}"]
            return check

        def version_check(out):
            return [] if out.startswith("hardylab ") and out.count("\n") == 1 else [f"version output {out!r}"]

        variants = ["canonical", "all-flipped", "particle1-flipped", "particle2-flipped"]
        solves = [(float(rng.uniform(0.05, 0.45)), float(rng.uniform(3.0, 87.0)), variants[i + 1]) for i in range(3)]
        scan_dims = (int(rng.integers(21, 42)), int(rng.integers(19, 38)))
        stdout_dims = (int(rng.integers(11, 31)), int(rng.integers(11, 31)))
        numbers = [f"{v:.4f}" for v in (rng.uniform(0.05, 0.1), *rng.uniform(0.0, 0.01, 3))]
        errors = [f"{v:.4f}" for v in rng.uniform(0.0001, 0.001, 4)]
        (h0, x0, s0), (h1, x1, s1), (h2, x2, s2) = hardy
        (r0, rx0, rs0), (r1, rx1, rs1) = random_cfgs
        seeds = [int(v) for v in rng.integers(0, 10**6, 2)]
        run = [
            Invocation(["probs", "--config", h0], check=probs_check(x0, s0, ["11", "12", "21", "22"])),
            Invocation(["probs", "--config", r0, "--pair", "12"], check=probs_check(rx0, rs0, ["12"])),
            Invocation(["correlation", "--config", h1], check=correlation_check(x1, s1)),
            Invocation(["correlation", "--config", r1, "--pair", "21"], check=correlation_check(rx1, rs1, "21")),
            *[Invocation(["hardy-solve", "--c1-squared", repr(x), "--beta0-deg", repr(b), "--variant", v], check=solve_check(x, b))
              for x, b, v in solves],
            Invocation(["hardy-solve", "--c1-squared", "0.5", "--beta0-deg", "30"], code=1, error="maximally entangled"),
            Invocation(["hardy-solve", "--c1-squared", "1", "--beta0-deg", "30"], code=1, error="product state admits no Hardy solution"),
            Invocation(["hardy-solve", "--c1-squared", "0.3", "--beta0-deg", "90"], code=1, error="multiple of pi/2"),
            Invocation(["hardy-check", "--config", h2], check=hardy_check(x2, s2, "true")),
            Invocation(["hardy-check", "--config", r0, "--variant", "all-flipped"], check=hardy_check(rx0, rs0, "false")),
            Invocation(["scan", "--c1sq-steps", str(scan_dims[0]), "--beta0-steps", str(scan_dims[1]), "--out", "session.csv", "--svg", "session.svg"],
                       check=scan_check(*scan_dims, "session.csv"), files=("session.csv", "session.svg"), light=False),
            Invocation(["scan", "--c1sq-steps", str(stdout_dims[0]), "--beta0-steps", str(stdout_dims[1])],
                       check=scan_check(*stdout_dims, None), light=False),
            Invocation(["optimize"], check=optimize_check, light=False),
            Invocation(["verify"], check=verify_check, light=False),
            Invocation(["lhv-sim", "--strategy", "mixture.lhv", "--trials", str(self.TRIALS), "--seed", str(seeds[0])],
                       check=lhv_check(mixture_exact, self.TRIALS), light=False),
            Invocation(["lhv-sim", "--strategy", "stochastic.lhv", "--trials", str(self.TRIALS), "--seed", str(seeds[1])],
                       check=lhv_check(stochastic_exact, self.TRIALS), light=False),
            Invocation(["inequality"], check=fixture_check),
            Invocation(["inequality", "--config", h0], check=inequality_config_check(x0, s0)),
            Invocation(["inequality", "--values", *numbers, "--errors", *errors], check=values_check(numbers)),
            Invocation(["probs", "--config", bad], code=1, error="missing required keys"),
            Invocation(["hardy-solve", "--beta0-deg", "30"], code=2),
            Invocation(["--version"], check=version_check),
        ]
        return run

    def round(self, traced: bool) -> Round:
        work = self.ctx.work

        def invoke(numbered):
            number, invocation = numbered
            spans_path = work / f"invocation{number}.spans.json"
            with Bracket("interpreter", during=True) as bracket:
                child = self.ctx.run_cli(invocation.argv, str(spans_path) if traced else None)
            return child, (_load_spans(spans_path) if traced else None), bracket.scale

        with ThreadPoolExecutor(max_workers=self.clients) as pool:
            results = list(pool.map(invoke, enumerate(self.invocations)))
        result = Round()
        for number, (invocation, (child, spans, scale)) in enumerate(zip(self.invocations, results)):
            result.times[f"invocation{number}"] = child.seconds
            result.scales[f"invocation{number}"] = scale
            result.latencies_ms.append(child.seconds * 1e3)
            result.rss_mb = max(result.rss_mb, child.rss_mb)
            result.output_bytes += len(child.stdout) + len(child.stderr)
            result.output_bytes += sum((work / name).stat().st_size for name in invocation.files if (work / name).exists())
            if spans is not None:
                result.processes[f"invocation{number}"] = spans
            self.ctx.tally.record(" ".join(invocation.argv), self._check(number, invocation, child))
            if "session.svg" in invocation.files and (work / "session.svg").exists():
                result.svg_rects_per_pixel = (work / "session.svg").read_bytes().count(b"<rect") / checks.PLOT_PIXELS
        return result

    def _check(self, number: int, invocation: Invocation, child: Child) -> list[str]:
        stdout, stderr = child.stdout.decode(), child.stderr.decode()
        problems = checks.check_exit(child.code, stderr, invocation.code, invocation.error)
        if problems:
            return problems
        files = tuple(hashlib.sha256((self.ctx.work / name).read_bytes()).hexdigest() for name in invocation.files)
        signature = (child.code, child.stdout, child.stderr, files)
        if number in self.reference:
            return [] if self.reference[number] == signature else ["output differs from the first run of the same invocation"]
        if invocation.check is not None:
            problems = invocation.check(stdout)
        if not problems:
            self.reference[number] = signature
        return problems


WORKLOADS = {cls.name: cls for cls in (ScanExport, ConfigSweep, LocalModels, CliSession)}


def traced_round(workload: Workload, tracer: Tracer) -> Round:
    """Run one round with spans recorded (in process via tracer, or in
    the CLI children via bench/launch.py)."""
    if not workload.in_process:
        return workload.round(traced=True)
    tracer.install()
    try:
        result = workload.round(traced=True)
    finally:
        tracer.uninstall()
    result.processes = {"in-process": tracer.take()}
    return result
