"""Compare the object API of two hardylab source trees bit for bit.

    python3 tools/compare_api.py OLD_SRC NEW_SRC [--count N] [--seed S]

OLD_SRC and NEW_SRC are directories holding a `hardylab` package (for
example the `src` directory of two checkouts). One child process per
tree builds the same seeded configs: Hardy-solved ones for every variant
and random full experiments with coefficient signs and phases. Each
config goes through correlation_set, evaluate, delta_from_probabilities,
check_hardy (all four variants), hardy_inequality_lhs_rhs and
pair_distributions. The child prints one line per config with every
float as `float.hex` (an exception prints its type and message), and the
two streams are compared line by line. The exit status is 1 when any
line differs.

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
from pathlib import Path

SHOWN = 5


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


def _values(hl, config) -> list:
    values = [config.state.c1, config.state.c2]
    for setting in (config.d11, config.d12, config.d21, config.d22):
        values += (setting.beta, setting.delta)
    values += hl.correlation_set(config).__dict__.values()
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
    differing = lines = 0
    with old, new:
        for a, b in itertools.zip_longest(old.stdout, new.stdout):
            lines += 1
            if a != b:
                differing += 1
                if differing <= SHOWN:
                    print(f"DIFFERENT\n    old: {a!r}\n    new: {b!r}")
    codes = old.returncode, new.returncode
    print(f"{differing} of {lines} configs differ; child exit codes {codes[0]}, {codes[1]}")
    return 1 if differing or any(codes) or lines != args.count else 0


if __name__ == "__main__":
    sys.exit(main())
