"""Compare the CLI of two hardylab source trees byte for byte.

    python3 tools/compare_cli.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding a `hardylab` package (for
example the `src` directory of two checkouts). Every case below runs as
`python -m hardylab.cli ...` once per tree, in the same scratch
directory, so that the paths printed in manifests agree. The exit code,
stdout, stderr and every written file are compared. Each case prints
`same` or `DIFFERENT` (with the first differing stdout/stderr lines), and
the exit status is 1 when any case differs.
"""

from __future__ import annotations

import argparse
import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIGS: dict[str, str | bytes] = {
    # Solved Hardy config for c1^2 = 0.25, beta0 = 30 deg.
    "solved.cfg": (
        "c1_squared = 0.25\nbeta_11_deg = 60\nbeta_12_deg = 30\n"
        "beta_21_deg = -45\nbeta_22_deg = -18.43494882292201\n"
    ),
    # e11 is 0 up to rounding, so its two routes print differently.
    "pair.cfg": (
        "c1_squared = 0.3\nbeta_11_deg = 45\nbeta_12_deg = 30\n"
        "beta_21_deg = 0\nbeta_22_deg = 17\n"
    ),
    "phases.cfg": (
        "# signs and phases\nc1_squared = 0.7\nsign_c1 = -1\nsign_c2 = 1\n"
        "beta_11_deg = 12.5\nbeta_12_deg = -71\nbeta_21_deg = 33\nbeta_22_deg = 101\n"
        "delta_11_deg = 10\ndelta_12_deg = -40\ndelta_21_deg = 95\ndelta_22_deg = 0\n"
    ),
    "bad_line.cfg": "c1_squared = 0.3\nbeta_11_deg 45\n",
    "unknown_key.cfg": "c1_squared = 0.3\nbeta_13_deg = 1\n",
    "repeated_key.cfg": "c1_squared = 0.3\n\n# note\nc1_squared = 0.4\n",
    "not_number.cfg": "c1_squared = 0.3\nbeta_11_deg = abc\n",
    "missing_key.cfg": "c1_squared = 0.3\nbeta_11_deg = 1\n",
    "not_utf8.cfg": b"c1_squared = 0.3\xff\n",
    "mixture.lhv": (
        "type = mixture\nweight_ppmm = 1/3\nweight_mmpp = 1/6\n"
        "weight_pmpm = 0.25\nweight_mpmp = 1/4\n"
    ),
    "stochastic.lhv": (
        "type = stochastic\nbreakpoints = 0, 0.25, 1\ndensity = 2, 0.6666666666666666\n"
        "response_1 = 0.9, 0.1, 0.8, 0.3\nresponse_2 = 0.2, 0.7, 0.4, 0.5\n"
    ),
    "bad_line.lhv": "type = mixture\nweight_ppmm\n",
    "repeated.lhv": "type = mixture\nweight_ppmm = 1\n  # c\nweight_ppmm = 1\n",
    "unknown_type.lhv": "type = other\n",
    "missing_type.lhv": "weight_ppmm = 1\n",
    "unknown_key.lhv": "type = mixture\nweight_ppmm = 1\nbogus = 2\n",
    # An exact weight beyond the float range.
    "huge_weight.lhv": "type = mixture\nweight_pppp = 1e400\n",
    "not_utf8.lhv": b"type = mixture\xff\n",
}


def _dyadic_stochastic() -> str:
    """40 segments on multiples of 1/4096, in 20 pairs of equal width with
    densities (0, 2), (0.5, 1.5) or (1, 1): the cumulative masses are
    exact, and many fall on the edges of the sampler's lookup bins."""
    halves = [4 + 7 * i + i * i % 13 for i in range(19)]
    halves.append(2048 - sum(halves))
    cuts = list(itertools.accumulate(w for w in halves for _ in (0, 1)))
    densities = [d for i in range(20) for d in ((0.0, 2.0), (0.5, 1.5), (1.0, 1.0))[i % 3]]
    lines = [
        "type = stochastic",
        "breakpoints = 0.0, " + ", ".join(repr(c / 4096) for c in cuts),
        "density = " + ", ".join(map(repr, densities)),
    ]
    lines += [
        f"response_{i + 1} = " + ", ".join(str(i * step % 100 / 100) for step in (13, 29, 41, 53))
        for i in range(40)
    ]
    return "\n".join(lines) + "\n"


CONFIGS["dyadic40.lhv"] = _dyadic_stochastic()
# All 16 assignments, weights 1/136 to 16/136.
CONFIGS["mixture16.lhv"] = "type = mixture\n" + "".join(
    f"weight_{''.join(label)} = {i + 1}/136\n"
    for i, label in enumerate(itertools.product("pm", repeat=4))
)

PAIRS = ("11", "12", "21", "22")
VARIANTS = ("canonical", "all-flipped", "particle1-flipped", "particle2-flipped")


def cases() -> list[tuple[list[str], tuple[str, ...]]]:
    """(argv, files the run writes) for every compared invocation."""
    out: list[tuple[list[str], tuple[str, ...]]] = []
    for config in ("solved.cfg", "pair.cfg", "phases.cfg"):
        for command in ("probs", "correlation"):
            out.append(([command, "--config", config], ()))
            out.extend(([command, "--config", config, "--pair", p], ()) for p in PAIRS)
        for variant in VARIANTS:
            out.append((["hardy-check", "--config", config, "--variant", variant], ()))
            for tol in ("1", "-1", "nan", "1e400"):
                argv = ["hardy-check", "--config", config, "--variant", variant, "--tol", tol]
                out.append((argv, ()))
        out.append((["inequality", "--config", config], ()))
    for variant in VARIANTS:
        for c1sq, beta0 in (("0.25", "30"), ("0.177352", "17.5566"), ("0.8", "-50")):
            argv = ["hardy-solve", "--c1-squared", c1sq, "--beta0-deg", beta0, "--variant", variant]
            out.append((argv, ()))
    out.append((["hardy-solve", "--c1-squared", "0.5", "--beta0-deg", "30"], ()))
    # The variant choices come from the parser, before any solver loads.
    out.append((["hardy-solve", "--c1-squared", "0.25", "--beta0-deg", "30", "--variant", "bogus"], ()))
    out.append((["hardy-check", "--help"], ()))
    # The edges of the Hardy domain: refused as maximally entangled within
    # 5e-10 of c1^2 = 0.5, solved at 5e-9, refused as a product state at
    # 1e-19; beta0 = 1e-8 deg and 90 - 1e-8 deg are degenerate, 1e-7 deg
    # is not, and a non-finite beta0 is refused.
    for c1sq in ("0.4999999995", "0.5000000005", "0.499999995", "0.500000005", "1e-19"):
        out.append((["hardy-solve", "--c1-squared", c1sq, "--beta0-deg", "30"], ()))
    for beta0 in ("1e-8", "1e-7", "89.99999999", "nan", "inf", "-inf"):
        out.append((["hardy-solve", "--c1-squared", "0.3", "--beta0-deg", beta0], ()))
    out.append((["inequality"], ()))
    out.append((["inequality", "--values", "0.1", "0.01", "0.02", "0.03"], ()))
    out.append((["inequality", "--values", "0.1", "0.01", "0.02", "0.03",
                 "--errors", "0.01", "0.001", "0.002", "0.003"], ()))
    # Errors whose squares overflow a float; the last pair's root does too.
    for errors in (("1e200", "1e200", "0", "0"), ("1e308",) * 4):
        out.append((["inequality", "--values", "0.1", "0", "0", "0", "--errors", *errors], ()))
    out.append((["scan", "--out", "grid.csv", "--svg", "grid.svg"], ("grid.csv", "grid.svg")))
    out.append((["scan", "--c1sq-steps", "241", "--beta0-steps", "201",
                 "--out", "big.csv", "--svg", "big.svg"], ("big.csv", "big.svg")))
    out.append((["scan", "--c1sq-steps", "7", "--beta0-steps", "5"], ()))
    # The benchmark's scan shapes: large with SVG, thin CSV-only, and odd
    # step counts whose axes hit c1^2 = 0.5 and the beta0 ends.
    out.append((["scan", "--c1sq-steps", "354", "--beta0-steps", "318",
                 "--out", "large.csv", "--svg", "large.svg"], ("large.csv", "large.svg")))
    out.append((["scan", "--c1sq-steps", "7982", "--beta0-steps", "11",
                 "--out", "thin.csv"], ("thin.csv",)))
    out.append((["scan", "--c1sq-steps", "225", "--beta0-steps", "193",
                 "--out", "degenerate.csv", "--svg", "degenerate.svg"],
                ("degenerate.csv", "degenerate.svg")))
    out.append((["scan", "--c1sq-steps", "101", "--beta0-steps", "37"], ()))
    # Rows wider than one CSV block, so blocks split rows mid-way.
    out.append((["scan", "--c1sq-steps", "3", "--beta0-steps", "9001"], ()))
    out.append((["optimize"], ()))
    out.append((["optimize", "--c1sq-steps", "41", "--beta0-steps", "37"], ()))
    out.append((["verify"], ()))
    for strategy in ("mixture.lhv", "stochastic.lhv"):
        for seed in ("0", "7", "123456", "-1"):
            argv = ["lhv-sim", "--strategy", strategy, "--trials", "5000", "--seed", seed]
            out.append((argv, ()))
    # The benchmark's trial count, through the sampler's lookup table.
    for strategy in ("dyadic40.lhv", "mixture16.lhv"):
        for seed in ("1", "2024"):
            argv = ["lhv-sim", "--strategy", strategy, "--trials", "250000", "--seed", seed]
            out.append((argv, ()))
    for name in CONFIGS:
        if name.endswith(".cfg") and name not in ("solved.cfg", "pair.cfg", "phases.cfg"):
            out.append((["probs", "--config", name], ()))
        if name.endswith(".lhv") and name not in (
            "mixture.lhv", "stochastic.lhv", "dyadic40.lhv", "mixture16.lhv"
        ):
            out.append((["lhv-sim", "--strategy", name], ()))
    return out


def run_case(src: Path, work: Path, argv: list[str], files: tuple[str, ...]):
    for name in files:
        (work / name).unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "hardylab.cli", *argv],
        cwd=work, env=env, capture_output=True, check=False,
    )
    written = tuple((work / name).read_bytes() if (work / name).exists() else None for name in files)
    return proc.returncode, proc.stdout, proc.stderr, written


def first_difference(a: bytes, b: bytes) -> str:
    for old, new in zip(a.splitlines(), b.splitlines()):
        if old != new:
            return f"{old.decode()!r} -> {new.decode()!r}"
    return f"{len(a.splitlines())} lines -> {len(b.splitlines())} lines"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    args = parser.parse_args()
    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, text in CONFIGS.items():
            data = text if isinstance(text, bytes) else text.encode("utf-8")
            (work / name).write_bytes(data)
        for argv, files in cases():
            old = run_case(args.old_src.resolve(), work, argv, files)
            new = run_case(args.new_src.resolve(), work, argv, files)
            label = " ".join(argv)
            if old == new:
                print(f"same       {label}")
                continue
            differing += 1
            print(f"DIFFERENT  {label}")
            if old[0] != new[0]:
                print(f"    exit code {old[0]} -> {new[0]}")
            for stream, a, b in (("stdout", old[1], new[1]), ("stderr", old[2], new[2])):
                if a != b:
                    print(f"    {stream}: {first_difference(a, b)}")
            for path, a, b in zip(files, old[3], new[3]):
                if a != b:
                    print(f"    file {path} differs")
    print(f"{differing} of {len(cases())} cases differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
