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
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIGS = {
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
}

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
    out.append((["inequality"], ()))
    out.append((["inequality", "--values", "0.1", "0.01", "0.02", "0.03"], ()))
    out.append((["inequality", "--values", "0.1", "0.01", "0.02", "0.03",
                 "--errors", "0.01", "0.001", "0.002", "0.003"], ()))
    out.append((["scan", "--out", "grid.csv", "--svg", "grid.svg"], ("grid.csv", "grid.svg")))
    out.append((["scan", "--c1sq-steps", "241", "--beta0-steps", "201",
                 "--out", "big.csv", "--svg", "big.svg"], ("big.csv", "big.svg")))
    out.append((["scan", "--c1sq-steps", "7", "--beta0-steps", "5"], ()))
    out.append((["optimize"], ()))
    out.append((["verify"], ()))
    for strategy in ("mixture.lhv", "stochastic.lhv"):
        for seed in ("0", "7", "123456", "-1"):
            argv = ["lhv-sim", "--strategy", strategy, "--trials", "5000", "--seed", seed]
            out.append((argv, ()))
    for name in CONFIGS:
        if name.endswith(".cfg") and name not in ("solved.cfg", "pair.cfg", "phases.cfg"):
            out.append((["probs", "--config", name], ()))
        if name.endswith(".lhv") and name not in ("mixture.lhv", "stochastic.lhv"):
            out.append((["lhv-sim", "--strategy", name], ()))
    return out


def run_case(src: Path, work: Path, argv: list[str], files: tuple[str, ...]):
    for name in files:
        (work / name).unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(src), HARDY_LAB_THREADS="1")
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
            (work / name).write_text(text, encoding="utf-8")
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
