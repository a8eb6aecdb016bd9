"""Compare the object API of two hardylab source trees bit for bit.

    python3 tools/compare_api.py OLD_SRC NEW_SRC [--count N] [--seed S]

OLD_SRC and NEW_SRC are directories holding a `hardylab` package (for
example the `src` directory of two checkouts). One child process per
tree builds the same seeded configs: Hardy-solved ones for every variant
and random full experiments with coefficient signs and phases. Each
config goes through correlation_set, is_locally_realizable (of that
set), evaluate, delta_from_probabilities, check_hardy (all four
variants), hardy_inequality_lhs_rhs and pair_distributions. A block of as
many seeded quadruples follows: dyadic floats, Fractions of mixed
denominators, and points on a local-polytope facet or one ulp off it,
each through is_locally_realizable. The child prints one line per config
or quadruple with every float as `float.hex` (an exception prints its
type and message), and the two streams are compared line by line. The
exit status is 1 when any line differs.

    python3 tools/compare_api.py --emit N --seed S

runs the child side under the current PYTHONPATH.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

SHOWN = 5
QUADRUPLE = "polytope "


def _hex(value) -> str:
    return value.hex() if isinstance(value, float) else repr(value)


def _configs(hl, count: int, seed: int):
    """(label, build) pairs, build() making the config: every other one
    Hardy-solved, the rest random. Building inside the caller's try lets a
    raise be compared like any other outcome."""
    rng = random.Random(seed)
    variants = list(hl.HardyVariant)
    for index in range(count):
        signs = rng.choice((1, -1)), rng.choice((1, -1))
        if index % 2 == 0:
            x = rng.uniform(0.02, 0.98)
            beta0 = math.radians(rng.uniform(0.5, 89.5))
            variant = variants[index // 2 % 4]
            label = f"solved {x!r} {beta0!r} {signs} {variant.value}"
            yield label, lambda: hl.solve_hardy(hl.make_state(x, *signs), beta0, variant).config()
        else:
            x = rng.uniform(0.0, 1.0)
            angles = [(rng.uniform(-7.0, 7.0), rng.uniform(-7.0, 7.0)) for _ in range(4)]
            label = f"random {x!r} {signs} {angles!r}"
            yield label, lambda: hl.ExperimentConfig(
                hl.make_state(x, *signs), *(hl.MeasurementSetting(*a) for a in angles)
            )


def _quadruples(count: int, seed: int):
    """Seeded correlation quadruples in [-1.125, 1.125] for
    is_locally_realizable: dyadic floats, Fractions, and dyadic points on
    one of the 16 facets (|e| = 1 or |S - 2 e| = 2) with one entry moved
    by an ulp or not."""
    rng = random.Random(seed)

    def dyadic() -> float:
        scale = 2 ** rng.randint(0, 12)
        return rng.randint(-(scale * 9 // 8), scale * 9 // 8) / scale

    def fraction() -> Fraction:
        q = rng.randint(1, 30)
        return Fraction(rng.randint(-(q * 9 // 8), q * 9 // 8), q)

    for index in range(count):
        if index % 3 == 0:
            yield tuple(dyadic() for _ in range(4))
        elif index % 3 == 1:
            yield tuple(fraction() for _ in range(4))
        else:
            quad = [dyadic() for _ in range(4)]
            solved, facet = rng.randrange(4), rng.randrange(5)
            if facet == 4:
                quad[solved] = rng.choice((1.0, -1.0))
            else:
                coefficients = [1, 1, 1, 1]
                coefficients[facet] = -1
                rest = sum(c * q for i, (c, q) in enumerate(zip(coefficients, quad)) if i != solved)
                sign = 1 if rest >= 0 else -1  # the nearer facet of the pair
                quad[solved] = (2 * sign - rest) / coefficients[solved]
            moved, direction = rng.randrange(4), rng.choice((-math.inf, None, math.inf))
            if direction is not None:
                quad[moved] = math.nextafter(quad[moved], direction)
            yield tuple(quad)


def _values(hl, config) -> list:
    values = [config.state.c1, config.state.c2]
    for setting in (config.d11, config.d12, config.d21, config.d22):
        values += (setting.beta, setting.delta)
    correlations = list(hl.correlation_set(config).__dict__.values())
    values += correlations
    values.append(hl.is_locally_realizable(*correlations))
    result = hl.evaluate(config)
    values += [result.delta, result.violated, *result.correlations.__dict__.values()]
    values.append(hl.delta_from_probabilities(config))
    for variant in hl.HardyVariant:
        values += hl.check_hardy(config, variant).__dict__.values()
    values += hl.hardy_inequality_lhs_rhs(config)
    for dist in hl.pair_distributions(config):
        values += dist.__dict__.values()
    return values


def emit(count: int, seed: int) -> None:
    import hardylab as hl

    for label, build in _configs(hl, count, seed):
        try:
            line = " ".join(map(_hex, _values(hl, build())))
        except Exception as exc:  # a raise is an outcome to compare, not a crash
            line = f"{type(exc).__name__}: {exc}"
        print(f"{label} | {line}")
    for quad in _quadruples(count, seed):
        try:
            line = repr(hl.is_locally_realizable(*quad))
        except Exception as exc:
            line = f"{type(exc).__name__}: {exc}"
        print(f"{QUADRUPLE}{' '.join(map(_hex, quad))} | {line}")


def _child(src: Path, count: int, seed: int) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, __file__, "--emit", str(count), "--seed", str(seed)]
    return subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path, nargs="?")
    parser.add_argument("new_src", type=Path, nargs="?")
    parser.add_argument("--count", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=20240601)
    parser.add_argument("--emit", type=int, metavar="N")
    args = parser.parse_args()
    if args.emit is not None:
        emit(args.emit, args.seed)
        return 0
    if args.old_src is None or args.new_src is None:
        parser.error("OLD_SRC and NEW_SRC are required")
    old = _child(args.old_src.resolve(), args.count, args.seed)
    new = _child(args.new_src.resolve(), args.count, args.seed)
    lines = {"configs": 0, "quadruples": 0}
    differing = dict.fromkeys(lines, 0)
    with old, new:
        for a, b in itertools.zip_longest(old.stdout, new.stdout):
            kind = "quadruples" if (a or b).startswith(QUADRUPLE) else "configs"
            lines[kind] += 1
            if a != b:
                differing[kind] += 1
                if sum(differing.values()) <= SHOWN:
                    print(f"DIFFERENT\n    old: {a!r}\n    new: {b!r}")
    codes = old.returncode, new.returncode
    print(f"{differing['quadruples']} of {lines['quadruples']} polytope quadruples differ")
    print(f"{differing['configs']} of {lines['configs']} configs differ; child exit codes {codes[0]}, {codes[1]}")
    complete = lines["configs"] == lines["quadruples"] == args.count
    return 1 if any(differing.values()) or any(codes) or not complete else 0

if __name__ == "__main__":
    sys.exit(main())
