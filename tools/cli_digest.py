"""Digest of every file the otflow command line writes, for bitwise checks.

Run from anywhere:

    python3 tools/cli_digest.py

The program is imported from ``src/`` of the checkout the script sits in.
Each of seventeen commands runs in its own interpreter, with PYTHONPATH=src,
into its own temporary directory.  For each command the script prints one
line with its exit code and arguments, then one ``sha256  path`` line per
file it wrote, paths relative to its output directory, sorted.  Two
checkouts write the same files exactly when their outputs are equal, so a
change meant to keep every output bitwise can be checked by diffing the
output of this script on both.  About 12 s on one core of a 2-vCPU VM.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

UNIFORM_01 = '{"kind": "uniform", "lo": 0.0, "hi": 1.0}'
# a target whose map has T'' != 0, so the two seed kinds give different fields
LINEAR_01 = '{"kind": "piecewise_linear", "x": [0.0, 1.0], "density": [0.5, 1.5]}'
GAUSS_01 = '{"kind": "gaussian", "mean": 0.0, "std": 1.0}'
BALL_1 = '{"kind": "ball", "center": [0.0, 0.0], "radius": 1.0}'
BALL_2 = '{"kind": "ball", "center": [0.0, 0.0], "radius": 2.0}'
BALL3_1 = '{"kind": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0}'
BALL3_2 = '{"kind": "ball", "center": [0.0, 0.0, 0.0], "radius": 2.0}'
PRODUCT_U01 = ('{"kind": "product", "factors": [' + GAUSS_01
               + ', {"kind": "uniform", "lo": 0.0, "hi": 1.0}]}')
PRODUCT_U13 = ('{"kind": "product", "factors": [' + GAUSS_01
               + ', {"kind": "uniform", "lo": 1.0, "hi": 3.0}]}')

PAIR = ["--mu0", UNIFORM_01, "--mu1", LINEAR_01]
EXAMPLES = ("affine", "gaussian", "bad-fixed-point", "accumulating-c1",
            "accumulating-cinf")

COMMANDS = (
    [["map", *PAIR],
     ["field", *PAIR],
     ["field", *PAIR, "--seed-kind", "cubic"],
     ["field", *PAIR, "--eps", "0.1"],
     ["flow", *PAIR],
     ["verify", *PAIR]]
    + [["example", name] for name in EXAMPLES]
    # a clip cuts this build's forward march at its first depth, so its
    # Osgood walk stops after the seed
    + [["example", "affine", "--alpha", "2", "--beta", "0.5"],
       ["example", "accumulating-cinf", "--seed-kind", "cubic"],
       ["sudakov", "--mu0", BALL_1, "--mu1", BALL_2],
       ["sudakov", "--mu0", PRODUCT_U01, "--mu1", PRODUCT_U13],
       # the one family whose ray and slice directions are random draws
       ["sudakov", "--mu0", BALL3_1, "--mu1", BALL3_2],
       ["pathology", "--variant", "both"]])


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run(argv: list) -> tuple:
    """(exit code, [(sha256, relative path)]) of one command."""
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    with tempfile.TemporaryDirectory() as out:
        code = subprocess.run([sys.executable, "-m", "otflow.cli", *argv, "--out", out],
                              env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode
        files = []
        for base, _, names in os.walk(out):
            for name in names:
                path = os.path.join(base, name)
                files.append((_sha256(path), os.path.relpath(path, out)))
    return code, sorted(files, key=lambda f: f[1])


def main() -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "otflow")):
        print(f"cli_digest: no src/otflow under {ROOT}", file=sys.stderr)
        return 2
    for argv in COMMANDS:
        code, files = run(argv)
        print(f"exit {code}  {' '.join(argv)}", flush=True)
        for digest, path in files:
            print(f"{digest}  {path}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
