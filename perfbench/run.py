"""End-to-end and per-layer benchmark of the fourierpath command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from
its ``src`` directory, nothing is installed.  With ``--trace 0`` the run
measures the end-to-end metrics; with ``--trace 1`` it measures the
per-layer metrics and the tracing overhead.  Every operation's outputs are
checked after its timer stopped.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
README.md in this directory for the metrics, workloads and predictions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# One BLAS/OpenMP thread, fixed before numpy loads here or in any worker.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import workloads as wl  # noqa: E402

WORKERS = 7           # fresh processes per run, each with one cold operation
SETUP_PER_WORKER = 1  # extra fresh process that only imports, for setup_s
MIN_WARM_OPS = 3      # per worker, so a run pools at least 21 warm samples
# About the time of worker.calibrate() on a quiet 2-vCPU Intel Xeon VM,
# where the benchmark was tuned.  Timings are reported as seconds on a
# host where the kernel takes this long:
# wall time * CALIB_REF_S / the host's calibration time around it.
CALIB_REF_S = 0.008
CALIB_REACH = 2  # operations on either side whose calibrations are pooled
PROCESS_TIMEOUT_S = 150


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "fourierpath" / "cli.py").is_file():
        print(f"error: no fourierpath sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    import checks  # imports numpy, after the thread count is fixed

    work = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        input_csv = wl.make_inputs(args.workload, args.seed, work)
        records, warm_s = [], 0.0
        for w in range(WORKERS):
            # setup-only processes are spread over the run, like the workers
            setup = [] if args.trace else [spawn_worker(["--setup-only"])
                                           for _ in range(SETUP_PER_WORKER)]
            # each worker gets an equal share of the warm time still unused
            share = max(0.0, args.seconds - warm_s) / (WORKERS - w)
            result = work / f"worker{w}.json"
            spawn_worker(["--workload", args.workload, "--seed", str(args.seed),
                          "--work", str(work), "--first-op", str(w * 1001),
                          "--budget", str(share), "--min-warm", str(MIN_WARM_OPS),
                          "--trace", str(args.trace), "--result", str(result)])
            records.append(json.loads(result.read_text()) | {"setup": setup})
            warm_s += sum(op["wall_s"] for op in records[-1]["ops"][1:])

        refs = checks.References(args.workload, input_csv)
        ops = [op for rec in records for op in rec["ops"]]
        per_op = [checks.check_op(refs, args.seed, op) for op in ops]
        problems = [p for found in per_op for p in found]
        failed = sum(1 for found in per_op if found)
        if args.trace:
            metrics, table = _layer_metrics(records)
            spans = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.json"
            spans.write_text(json.dumps([rec["spans"] for rec in records]))
        else:
            metrics, table = _end_to_end_metrics(args.workload, records, len(ops), failed)
    except subprocess.CalledProcessError as exc:
        print(f"error: a benchmark process failed:\n{exc.stderr}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired as exc:
        print(f"error: a benchmark process timed out after {exc.timeout} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{WORKERS} fresh processes, {len(ops)} operations, {failed} failed")
    for name, value, unit in table:
        print(f"  {name:<36} {value:>14.6g} {unit}")
    for p in problems[:20]:
        print(f"  FAILED {p}")
    print("env: " + json.dumps(_environment(args)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit in metrics},
    }))
    return 0


def spawn_worker(extra: list[str]) -> dict | None:
    """Run worker.py in a fresh process; return its JSON line, if it prints one."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *extra],
                          capture_output=True, text=True, env=env,
                          timeout=PROCESS_TIMEOUT_S, check=True)
    return json.loads(proc.stdout) if proc.stdout.strip() else None


def local_calibration(calibs: list[float], i: int) -> float:
    """Host calibration time around operation ``i`` of a worker.

    One calibration alone is noisy, and the host drifts over seconds, so
    this is the median of the calibrations taken before the operation
    itself and the CALIB_REACH operations on either side of it.
    """
    return statistics.median(calibs[max(0, i - CALIB_REACH):i + CALIB_REACH + 1])


def _end_to_end_metrics(workload, records, attempted, failed):
    # every timing is taken to the reference host speed of its neighbourhood
    warm, cold, setup = [], [], []
    for rec in records:
        calibs = [op["calib_s"] for op in rec["ops"]]
        times = [CALIB_REF_S * op["wall_s"] / local_calibration(calibs, i)
                 for i, op in enumerate(rec["ops"])]
        cold.append(times[0])
        warm += times[1:]
        # the worker's own imports and the setup-only processes just before it
        imports = rec["setup"] + [{"import_s": rec["import_s"],
                                   "calib_s": rec["import_calib_s"]}]
        c = statistics.median(p["calib_s"] for p in imports)
        setup += [CALIB_REF_S * p["import_s"] / c for p in imports]
    # inclusive quantiles interpolate linearly, as numpy's percentile does
    p90 = statistics.quantiles(warm, n=10, method="inclusive")[8]
    metrics = [
        ("setup_s", statistics.median(setup), "s"),
        ("first_op_s", statistics.median(cold), "s"),
        ("op_s.p50", statistics.median(warm), "s"),
        ("op_s.p90", p90, "s"),
        ("peak_rss_mb", statistics.median(rec["peak_rss_mb"] for rec in records), "MB"),
    ]
    table = list(metrics)
    table.insert(4, ("op_s.samples", len(warm), "count"))
    if workload in wl.STEPS_PER_OP:
        table.append(("steps_per_s", wl.STEPS_PER_OP[workload] * len(warm) / sum(warm),
                      "1/s"))
    table.append(("fail_rate", failed / attempted, "ratio"))
    # printed only: the unscaled timings and the host speed they were taken at
    table += [
        ("wall.setup_s", statistics.median(
            [p["import_s"] for rec in records for p in rec["setup"]]
            + [rec["import_s"] for rec in records]), "s"),
        ("wall.first_op_s", statistics.median(rec["ops"][0]["wall_s"] for rec in records),
         "s"),
        ("wall.op_s.p50", statistics.median(
            op["wall_s"] for rec in records for op in rec["ops"][1:]), "s"),
        ("host.calib_ms", 1e3 * statistics.median(
            op["calib_s"] for rec in records for op in rec["ops"]), "ms"),
    ]
    return metrics, table


def _layer_metrics(records):
    traced = [op for rec in records for op in rec["ops"] if op["traced"]]
    untraced = [op["wall_s"] for rec in records for op in rec["ops"][1:]
                if not op["traced"]]
    n = len(traced)
    stats = {}
    for rec in records:
        for name, s in rec["trace"].items():
            acc = stats.setdefault(name, dict.fromkeys(s, 0))
            for key, value in s.items():
                acc[key] += value

    def per_op(name, key):
        return stats[name][key] / n

    steps = stats["sim.integrate"]["units"]
    metrics = [
        ("pathdata.load_s", per_op("pathdata.load", "total_s"), "s"),
        ("pathdata.load_rows", per_op("pathdata.load", "units"), "count"),
        ("pathdata.add_noise_calls", per_op("pathdata.add_noise", "calls"), "count"),
        ("pathdata.add_noise_s", per_op("pathdata.add_noise", "total_s"), "s"),
        ("fft.calls", per_op("fft", "calls"), "count"),
        ("fft.points", per_op("fft", "units"), "count"),
        ("fft.self_s", per_op("fft", "self_s"), "s"),
        ("spectrum.dft_s", per_op("spectrum.dft", "total_s"), "s"),
        ("spectrum.apply_window_s", per_op("spectrum.apply_window", "total_s"), "s"),
        ("spectrum.tail_energy_calls", per_op("spectrum.tail_energy", "calls"), "count"),
        ("spectrum.tail_energy_s", per_op("spectrum.tail_energy", "total_s"), "s"),
        ("trigpath.eval_calls", per_op("trigpath.eval", "calls"), "count"),
        ("trigpath.eval_s", per_op("trigpath.eval", "total_s"), "s"),
        ("trigpath.eval_with_deriv_calls", per_op("trigpath.eval_with_deriv", "calls"),
         "count"),
        ("trigpath.eval_with_deriv_s", per_op("trigpath.eval_with_deriv", "total_s"), "s"),
        ("trigpath.term_evals", per_op("trigpath.eval", "units")
         + per_op("trigpath.eval_with_deriv", "units"), "count"),
        ("gvf.field_calls", per_op("gvf.field", "calls"), "count"),
        ("gvf.field_self_s", per_op("gvf.field", "self_s"), "s"),
        ("sim.integrate_calls", per_op("sim.integrate", "calls"), "count"),
        ("sim.steps", per_op("sim.integrate", "units"), "count"),
        ("sim.integrate_s", per_op("sim.integrate", "total_s"), "s"),
        ("sim.self_s", per_op("sim.integrate", "self_s"), "s"),
        ("sim.us_per_step",
         1e6 * stats["sim.integrate"]["total_s"] / steps if steps else 0.0, "us"),
        ("sim.write_csv_s", per_op("sim.write_csv", "total_s"), "s"),
        ("sim.rows_written", per_op("sim.write_csv", "units"), "count"),
        ("analysis.certify_s", per_op("analysis.certify", "total_s"), "s"),
        ("analysis.reconstruction_mse_s",
         per_op("analysis.reconstruction_mse", "total_s"), "s"),
        ("analysis.window_sweep_s", per_op("analysis.window_sweep", "total_s"), "s"),
        ("analysis.select_window_s", per_op("analysis.select_window", "total_s"), "s"),
        ("analysis.p_bar_calls", per_op("analysis.p_bar", "calls"), "count"),
        ("cli.main_s", per_op("cli.main", "total_s"), "s"),
        ("cli.self_s", per_op("cli.main", "self_s"), "s"),
        ("cli.bytes_written", sum(op["bytes_written"] for op in traced) / n, "bytes"),
        ("trace.overhead", statistics.median(op["wall_s"] for op in traced)
         / statistics.median(untraced), "ratio"),
    ]
    # printed only: each layer's self time as a share of cli.main, which
    # is what the README's prediction table quotes
    shares = {}
    for name, s in stats.items():
        layer = name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + s["self_s"]
    main_s = stats["cli.main"]["total_s"]
    table = metrics + [("trace.samples", n, "count")]
    table += [(f"share.{layer}", self_s / main_s, "ratio")
              for layer, self_s in shares.items()]
    return metrics, table


def _environment(args) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _git_sha() -> str:
    # never look for a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


if __name__ == "__main__":
    sys.exit(main())
