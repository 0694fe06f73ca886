"""Workload definitions shared by the runner, the worker and the golden recorder.

Each workload is a closed loop with one client: an operation is one
in-process ``fourierpath.cli.main([...])`` call, or a fixed sequence of
them, and the next operation starts when the previous one has returned.

This module imports neither numpy nor fourierpath at import time, because
the worker times exactly those imports as ``setup_s``.
"""

from __future__ import annotations

import math
from pathlib import Path

CERTIFY = "certify-liss758-m100"
SIMULATE = "simulate-liss758-full"
SPECTRAL = "spectral-csv-2062"
WORKLOADS = (CERTIFY, SIMULATE, SPECTRAL)

SIGMA1, SIGMA2 = 0.1, 0.15
LISSAJOUS_N, LISSAJOUS_A, LISSAJOUS_B = 758, 3, 2
_LISSAJOUS = ("--synth", f"lissajous,{LISSAJOUS_N},{LISSAJOUS_A},{LISSAJOUS_B}",
              "--sigma1", str(SIGMA1), "--sigma2", str(SIGMA2))
START = (-1.0, 2.0, 0.0)
_START = ("--x0", "-1", "--y0", "2")

CERTIFY_M, CERTIFY_RUNS, CERTIFY_DT, CERTIFY_DURATION = 100, 3, 2e-3, 2.0
CERTIFY_ARGS = ("certify", *_LISSAJOUS, "--window-m", str(CERTIFY_M), *_START,
                "--duration", str(CERTIFY_DURATION), "--dt", str(CERTIFY_DT),
                "--runs", str(CERTIFY_RUNS))

SIMULATE_DT, SIMULATE_DURATION = 1e-3, 3.0
SIMULATE_STEPS = round(SIMULATE_DURATION / SIMULATE_DT)
SIMULATE_ARGS = ("simulate", *_LISSAJOUS, *_START,
                 "--duration", str(SIMULATE_DURATION), "--dt", str(SIMULATE_DT),
                 "--stride", "1")

# RK4 steps one operation integrates, for steps_per_s
STEPS_PER_OP = {CERTIFY: CERTIFY_RUNS * round(CERTIFY_DURATION / CERTIFY_DT),
                SIMULATE: SIMULATE_STEPS}

# 2062 = 2 * 1031 with 1031 prime, so the transform takes the chirp path.
# At this size one operation takes about 1 s, so a run holds 20 or more
# warm operations.
SPECTRAL_N = 2062
SPECTRAL_M_LIST = ("10", "100", "1000", "full")
SPECTRAL_SAMPLES = 512
_SPECTRAL_NOISE = ("--sigma1", str(SIGMA1), "--sigma2", str(SIGMA2))

# The sim workloads draw their noise seed from a fixed pool, so their
# outputs can be checked against values recorded in golden.json.
GOLDEN_POOL = 16
GOLDEN_ARGS = {CERTIFY: CERTIFY_ARGS, SIMULATE: SIMULATE_ARGS}


def noise_seed(workload: str, seed: int, op_index: int) -> int:
    """The ``--seed`` passed to the CLI for one operation of a run."""
    if workload in GOLDEN_ARGS:
        return (seed + op_index) % GOLDEN_POOL
    return (seed * 1_000_003 + op_index) % 2**32


def op_commands(workload: str, seed: int, op_index: int, out: Path,
                input_csv: Path | None) -> list[list[str]]:
    """The CLI argument lists one operation runs, in order."""
    noise = ["--seed", str(noise_seed(workload, seed, op_index))]
    if workload in GOLDEN_ARGS:
        return [[*GOLDEN_ARGS[workload], *noise, "--out-dir", str(out)]]
    if workload == SPECTRAL:
        source = ["--input", str(input_csv), *_SPECTRAL_NOISE, *noise]
        return [
            ["transform", *source, "--out-dir", str(out / "transform")],
            ["reconstruct", *source, "--m-list", ",".join(SPECTRAL_M_LIST),
             "--samples", str(SPECTRAL_SAMPLES), "--out-dir", str(out / "reconstruct")],
            ["sweep", *source, "--out-dir", str(out / "sweep")],
        ]
    raise ValueError(f"unknown workload {workload!r}")


def make_inputs(workload: str, seed: int, work: Path) -> Path | None:
    """Write the workload's input files under ``work``; return the CSV path.

    The spectral input is a closed curve with seed-chosen frequencies and
    phase plus a seed-drawn high-frequency ripple, so its spectrum has a
    real tail and the sweep's minimum is not at the largest width.
    """
    if workload != SPECTRAL:
        return None
    import numpy as np

    rng = np.random.default_rng(seed)
    a, b = (int(v) for v in rng.integers(1, 6, size=2))
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    t = 2.0 * math.pi * np.arange(SPECTRAL_N) / SPECTRAL_N
    x = np.cos(a * t + phase) + 0.02 * rng.standard_normal(SPECTRAL_N)
    y = np.sin(b * t) + 0.02 * rng.standard_normal(SPECTRAL_N)
    target = work / "input.csv"
    with open(target, "w", newline="\n") as fh:
        fh.write("x,y\n")
        for xi, yi in zip(x.tolist(), y.tolist()):
            fh.write(f"{xi!r},{yi!r}\n")
    return target
