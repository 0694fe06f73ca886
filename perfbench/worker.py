"""One fresh benchmark process: import, one cold operation, then warm ones.

    python worker.py --setup-only
    python worker.py --workload W --seed S --work DIR --first-op I
                     --budget SECONDS --min-warm N --trace 0|1 --result FILE

With ``--setup-only`` it prints the seconds its own imports of numpy and
fourierpath took, and one calibration time, and exits.  Otherwise it
runs the cold operation, then warm operations until ``--budget`` seconds
of warm work are used up and at least ``--min-warm`` of them have run,
and writes one JSON record per operation plus its peak resident memory
to ``--result``.  A calibration runs before each operation, outside its
timing.  With ``--trace 1`` every other warm operation runs with the
tracer installed.  The caller puts ``src`` on PYTHONPATH and fixes the
BLAS thread count in the environment.
"""

import time

_T0 = time.perf_counter()
import numpy  # noqa: E402  (timed together with the package)
import fourierpath  # noqa: E402,F401
import fourierpath.cli as cli  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402


def calibrate() -> float:
    """Seconds a fixed kernel takes in this process, right now.

    The host's speed drifts by a fifth over tens of seconds on a shared
    machine.  The kernel mixes a pure-Python loop with small numpy calls,
    as the operations do, so the runner can divide each timing by the
    calibrations taken around it and cancel most of that drift.
    """
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    a = numpy.arange(1.0, 2001.0)
    for _ in range(300):
        a = numpy.sqrt(a * 1.0001 + 0.5)
    return time.perf_counter() - start


def run_op(workload, seed, index, work, input_csv, tracer=None):
    """Run one operation; return its record.  Only the CLI calls are timed."""
    out = work / f"op{index:06d}"
    commands = workloads.op_commands(workload, seed, index, out, input_csv)
    stdouts, error = [], None
    calib_s = calibrate()
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        for argv in commands:
            buf, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            stdouts.append(buf.getvalue())
            if code != 0:
                error = err.getvalue().strip() or f"exit code {code}"
                break
    except (Exception, SystemExit) as exc:  # a failed operation is data, not a crash
        error = f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    if tracer is not None:
        tracer.uninstall()
        tracer.op_span(start, end)
    written = sum(f.stat().st_size for f in out.rglob("*") if f.is_file())
    return {"index": index, "wall_s": end - start, "calib_s": calib_s,
            "traced": tracer is not None,
            "stdout": stdouts, "error": error, "out": str(out),
            "bytes_written": written}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--work", type=Path)
    ap.add_argument("--first-op", type=int, default=0)
    ap.add_argument("--budget", type=float)
    ap.add_argument("--min-warm", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", type=Path)
    args = ap.parse_args()
    if args.setup_only:
        print(json.dumps({"import_s": IMPORT_S, "calib_s": calibrate()}))
        return 0

    import_calib_s = calibrate()
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()  # resolves every boundary or fails here
    input_csv = args.work / "input.csv" if (args.work / "input.csv").exists() else None
    index = args.first_op
    ops = [run_op(args.workload, args.seed, index, args.work, input_csv)]
    warm_start = time.perf_counter()
    # once the minimum has run, start another warm operation only if it
    # should end within the budget
    while True:
        index += 1
        traced = tracer is not None and (index - args.first_op) % 2 == 0
        ops.append(run_op(args.workload, args.seed, index, args.work, input_csv,
                          tracer if traced else None))
        elapsed = time.perf_counter() - warm_start
        if tracer is not None and not traced:
            continue  # end on a traced operation, so both kinds are sampled
        enough = len(ops) - 1 >= args.min_warm
        if enough and elapsed + ops[-1]["wall_s"] > args.budget:
            break

    record = {
        "import_s": IMPORT_S,
        "import_calib_s": import_calib_s,
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.check_hits(args.workload)
        record["trace"] = {
            name: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s,
                   "units": s.units}
            for name, s in tracer.stats.items()
        }
        record["spans"] = tracer.spans
    args.result.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
