"""Output checks against references computed here with plain numpy.

Nothing in this module imports fourierpath: every reference is rebuilt
from the documented conventions (forward transform with the 1/N factor,
signed index set, window keeps 2|k| <= m, PCG64 noise drawn x block then
y block) or, for the closed-loop numbers, read from ``golden.json``.
``check_op`` returns a list of problems; an empty list means the
operation's outputs are correct.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import workloads as wl

TWO_PI = 2.0 * math.pi
# Closed-loop values are compared with golden.json to this relative
# tolerance: far above the rounding differences a different BLAS kernel
# can cause, far below any change in what is integrated.
GOLDEN_RTOL = 1e-7
# Spectral outputs are compared with the numpy references to this share
# of the data's own scale (largest coefficient, total energy, ...).
REL_TOL = 1e-9
GOLDEN_FILE = Path(__file__).with_name("golden.json")


class References:
    """Reference data for one run: the input points and the golden values."""

    def __init__(self, workload: str, input_csv: Path | None):
        self.workload = workload
        self.input = None
        if input_csv is not None:
            self.input = np.loadtxt(input_csv, delimiter=",", skiprows=1)
        self.golden = None
        if workload in wl.GOLDEN_ARGS:
            data = json.loads(GOLDEN_FILE.read_text()).get(workload, {})
            if data.get("argv") != list(wl.GOLDEN_ARGS[workload]):
                raise ValueError(f"golden.json does not match the {workload} "
                                 "workload definition; rerun golden.py")
            self.golden = data["values"]


def lissajous_points() -> np.ndarray:
    t = TWO_PI * np.arange(wl.LISSAJOUS_N) / wl.LISSAJOUS_N
    return np.column_stack((np.cos(wl.LISSAJOUS_A * t), np.sin(wl.LISSAJOUS_B * t)))


def add_noise(points: np.ndarray, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    z1 = rng.standard_normal(points.shape[0])
    z2 = rng.standard_normal(points.shape[0])
    return np.column_stack((points[:, 0] + wl.SIGMA1 * z1, points[:, 1] + wl.SIGMA2 * z2))


def spectrum(points: np.ndarray):
    """(k, a, n): np.fft coefficients over the signed index set, k ascending."""
    n = points.shape[0]
    a = np.fft.fft(points[:, 0] + 1j * points[:, 1]) / n
    k = np.fft.fftfreq(n, 1.0 / n).astype(np.int64)
    if n % 2 == 0:
        k[n // 2] = n // 2  # the half-rate bin is stored at +N/2
    order = np.argsort(k)
    return k[order], a[order], n


def sweep(k, a, n, m_max):
    """p_bar(m) and tail(m) for m = 1..m_max from cumulative energy.

    Index k enters the window at width 2|k|, so the energy kept at width m
    is the cumulative energy of the indices with entry width <= m.
    """
    entry = 2 * np.abs(k)
    energy = np.abs(a) ** 2
    order = np.argsort(entry, kind="stable")
    kept = np.concatenate(([0.0], np.cumsum(energy[order])))
    m = np.arange(1, m_max + 1)
    tail = energy.sum() - kept[np.searchsorted(entry[order], m, side="right")]
    tail = np.maximum(tail, 0.0)
    noise = TWO_PI * (m * m) / (n * n) * (wl.SIGMA1**2 + wl.SIGMA2**2)
    return noise + TWO_PI * tail, tail


def curve(k, a, width, samples):
    """Truncated curve x + iy at theta_j = 2*pi*j/samples, j < samples.

    Folding the coefficients modulo ``samples`` turns the evaluation into
    one inverse FFT of length ``samples``.
    """
    keep = np.ones(k.size, bool) if width is None else 2 * np.abs(k) <= width
    folded = np.zeros(samples, np.complex128)
    np.add.at(folded, k[keep] % samples, a[keep])
    return samples * np.fft.ifft(folded)


def check_op(refs: References, seed: int, op: dict) -> list[str]:
    """Problems found in one operation's record and output files."""
    if op["error"] is not None:
        return [f"op {op['index']}: {op['error']}"]
    noise_seed = wl.noise_seed(refs.workload, seed, op["index"])
    out = Path(op["out"])
    check = {wl.CERTIFY: _check_certify, wl.SIMULATE: _check_simulate,
             wl.SPECTRAL: _check_spectral}[refs.workload]
    try:
        problems = check(refs, noise_seed, out, op["stdout"])
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
    return [f"op {op['index']}: {p}" for p in problems]


def _close(name, got, want, rtol, atol=0.0):
    got, want = np.asarray(got, float), np.asarray(want, float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape}, expected {want.shape}"]
    err = np.abs(got - want)
    bad = ~(err <= atol + rtol * np.abs(want))
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        return [f"{name}: {bad.sum()} value(s) off, first at {i}: "
                f"{float(got.flat[i])!r} vs {float(want.flat[i])!r}"]
    return []


def stdout_fields(stdout: str) -> dict:
    """key=value tokens printed by a command."""
    return dict(tok.split("=", 1) for tok in stdout.split() if "=" in tok)


def _csv(path: Path, header: str) -> np.ndarray:
    with open(path) as fh:
        if fh.readline().strip() != header:
            raise ValueError(f"{path.name}: header is not {header!r}")
        return np.loadtxt(fh, delimiter=",", ndmin=2)


def _sweep_csv(path: Path, k, a, n, m_max) -> list[str]:
    with open(path) as fh:
        if fh.readline().strip() != "m,p_bar,f_backward,tail_energy":
            return [f"{path.name}: bad header"]
        rows = [line.rstrip("\n").split(",") for line in fh]
    if len(rows) != m_max:
        return [f"{path.name}: {len(rows)} rows, expected {m_max}"]
    if rows[0][2] != "":
        return [f"{path.name}: f_backward of m=1 is not empty"]
    table = np.array([[float(v or "nan") for v in row] for row in rows])
    p_ref, tail_ref = sweep(k, a, n, m_max)
    scale = TWO_PI * (np.sum(np.abs(a) ** 2) + wl.SIGMA1**2 + wl.SIGMA2**2)
    atol = REL_TOL * scale
    return (_close(f"{path.name} m", table[:, 0], np.arange(1, m_max + 1), 0.0)
            + _close(f"{path.name} p_bar", table[:, 1], p_ref, 0.0, atol)
            + _close(f"{path.name} f_backward", table[1:, 2], np.diff(p_ref), 0.0, atol)
            + _close(f"{path.name} tail_energy", table[:, 3], tail_ref, 0.0, atol / TWO_PI))


def _check_spectral(refs, noise_seed, out, stdouts) -> list[str]:
    noisy = add_noise(refs.input, noise_seed)
    k, a, n = spectrum(noisy)
    scale = float(np.max(np.abs(a)))
    problems = []

    table = _csv(out / "transform" / "spectrum.csv", "k,re,im,magnitude")
    problems += _close("spectrum.csv k", table[:, 0], k, 0.0)
    problems += _close("spectrum.csv re", table[:, 1], a.real, 0.0, REL_TOL * scale)
    problems += _close("spectrum.csv im", table[:, 2], a.imag, 0.0, REL_TOL * scale)
    problems += _close("spectrum.csv magnitude", table[:, 3], np.abs(a), 0.0,
                       REL_TOL * scale)
    info = stdout_fields(stdouts[0])
    problems += _close("transform N", int(info["N"]), n, 0.0)
    problems += _close("transform total_energy", float(info["total_energy"]),
                       np.sum(np.abs(a) ** 2), REL_TOL)

    samples = wl.SPECTRAL_SAMPLES
    theta = TWO_PI * np.arange(samples) / samples
    atol = REL_TOL * float(np.sum(np.abs(a)))
    for label in wl.SPECTRAL_M_LIST:
        name = f"reconstruction_{label}.csv"
        table = _csv(out / "reconstruct" / name, "theta,x,y")
        want = curve(k, a, None if label == "full" else int(label), samples)
        problems += _close(f"{name} theta", table[:, 0], theta, 1e-15)
        problems += _close(f"{name} x", table[:, 1], want.real, 0.0, atol)
        problems += _close(f"{name} y", table[:, 2], want.imag, 0.0, atol)
        if label == "full":
            # the full curve passes through every input sample it is
            # evaluated at: theta_j = 2*pi*j/samples hits sample j*n/samples
            j = np.flatnonzero((np.arange(samples) * n) % samples == 0)
            problems += _close(f"{name} through samples", table[j, 1:],
                               noisy[j * n // samples], 0.0, atol)

    problems += _sweep_csv(out / "sweep" / "sweep.csv", k, a, n, n)
    p_ref, _ = sweep(k, a, n, n)
    info = stdout_fields(stdouts[2])
    m_star = int(info["m_star"])
    # near-ties are common, so accept any width whose reference bound is
    # the minimum to within the comparison tolerance
    atol = REL_TOL * TWO_PI * (np.sum(np.abs(a) ** 2) + wl.SIGMA1**2 + wl.SIGMA2**2)
    if not (1 <= m_star <= n and p_ref[m_star - 1] <= p_ref.min() + atol):
        problems.append(f"sweep m_star={m_star} does not minimise p_bar "
                        f"(reference minimum at m={int(np.argmin(p_ref)) + 1})")
    else:
        problems += _close("sweep p_bar", float(info["p_bar"]), p_ref[m_star - 1], 0.0, atol)
    return problems


def _check_certify(refs, noise_seed, out, stdouts) -> list[str]:
    golden = refs.golden[str(noise_seed)]
    report = json.loads((out / "report.json").read_text())
    k, a, n = spectrum(lissajous_points())
    p_ref, _ = sweep(k, a, n, n)
    m = wl.CERTIFY_M
    problems = []
    if report["m"] != m or report["runs"] != wl.CERTIFY_RUNS:
        problems.append(f"report.json m/runs = {report['m']}/{report['runs']}")
    problems += _close("report.json delta", report["delta"], p_ref[m - 1], REL_TOL)
    problems += _close("report.json p_bar", report["p_bar"], p_ref[m - 1], REL_TOL)
    problems += _close("report.json f_backward", report["f_backward"],
                       p_ref[m - 1] - p_ref[m - 2], REL_TOL, 1e-15)
    problems += _close("report.json e_ms_per_run", report["e_ms_per_run"],
                       golden["e_ms_per_run"], GOLDEN_RTOL)
    problems += _close("report.json p_integral", report["p_integral"],
                       golden["p_integral"], GOLDEN_RTOL)
    problems += _close("report.json e_ms_final", report["e_ms_final"],
                       np.mean(report["e_ms_per_run"]), 1e-12)
    if report["passed"] != (report["e_ms_final"] <= max(report["delta"], 1e-12)):
        problems.append("report.json passed disagrees with e_ms_final and delta")
    if not (out / "report.txt").is_file():
        problems.append("report.txt missing")
    problems += _sweep_csv(out / "sweep.csv", k, a, n, n)
    info = stdout_fields(stdouts[0])
    problems += _close("stdout e_ms_final", float(info["e_ms_final"]),
                       report["e_ms_final"], 0.0)
    return problems


def _check_simulate(refs, noise_seed, out, stdouts) -> list[str]:
    golden = refs.golden[str(noise_seed)]
    info = stdout_fields(stdouts[0])
    rows = wl.SIMULATE_STEPS + 1
    problems = []
    if int(info["rows"]) != rows:
        problems.append(f"stdout rows={info['rows']}, expected {rows}")
    for key in ("final_V1", "final_e"):
        problems += _close(f"stdout {key}", float(info[key]), golden[key], GOLDEN_RTOL)

    table = _csv(out / "trajectory.csv", "t,x,y,theta,phi1,phi2,V1,e_inst")
    if table.shape != (rows, 8):
        return problems + [f"trajectory.csv shape {table.shape}, expected ({rows}, 8)"]
    t, x, y, th, phi1, phi2, v1, e = table.T
    problems += _close("trajectory t", t, wl.SIMULATE_DT * np.arange(rows), 1e-12)
    problems += _close("trajectory start", table[0, 1:4], wl.START, 0.0)
    problems += _close("trajectory final V1/e", table[-1, 6:8],
                       [float(info["final_V1"]), float(info["final_e"])], 0.0)
    problems += _close("trajectory V1", v1, phi1**2 + phi2**2, 1e-12, 1e-300)
    # offsets from the followed curve (full noisy spectrum), error against
    # the clean curve, which is exactly (cos 3t, sin 2t)
    k, a, _ = spectrum(add_noise(lissajous_points(), noise_seed))
    followed = np.exp(1j * np.multiply.outer(np.mod(th, TWO_PI), k)) @ a
    atol = 1e-9 * float(np.sum(np.abs(a)))
    problems += _close("trajectory phi1", phi1, x - followed.real, 0.0, atol)
    problems += _close("trajectory phi2", phi2, y - followed.imag, 0.0, atol)
    e_ref = (x - np.cos(wl.LISSAJOUS_A * th)) ** 2 + (y - np.sin(wl.LISSAJOUS_B * th)) ** 2
    problems += _close("trajectory e_inst", e, e_ref, 1e-6, 1e-12)
    return problems
