"""Self-test of the output checks: clean outputs pass, corrupted ones fail.

    python3 perfbench/selftest.py

For each workload it runs one cold and one warm operation in a fresh
worker, checks that both pass, then damages one output file at a time
(a changed number, a dropped row) and checks that every damaged copy is
flagged.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run  # fixes the BLAS thread count before numpy loads

import checks
import workloads as wl


def _bump_csv(rel, column, delta=1e-4):
    """Add ``delta`` to one field in the middle row of a CSV file."""
    def corrupt(out: Path):
        path = out / rel
        lines = path.read_text().splitlines(keepends=True)
        row = len(lines) // 2
        fields = lines[row].rstrip("\n").split(",")
        fields[column] = repr(float(fields[column]) + delta)
        lines[row] = ",".join(fields) + "\n"
        path.write_text("".join(lines))
    return corrupt


def _drop_last_row(rel):
    def corrupt(out: Path):
        path = out / rel
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    return corrupt


def _scale_report(key, factor):
    def corrupt(out: Path):
        path = out / "report.json"
        report = json.loads(path.read_text())
        if isinstance(report[key], list):
            report[key][0] *= factor
        else:
            report[key] *= factor
        path.write_text(json.dumps(report))
    return corrupt


CORRUPTIONS = {
    wl.SPECTRAL: {
        "spectrum.csv re": _bump_csv("transform/spectrum.csv", 1),
        "reconstruction_full.csv x": _bump_csv("reconstruct/reconstruction_full.csv", 1),
        "reconstruction_100.csv y": _bump_csv("reconstruct/reconstruction_100.csv", 2),
        "sweep.csv p_bar": _bump_csv("sweep/sweep.csv", 1),
        "sweep.csv truncated": _drop_last_row("sweep/sweep.csv"),
    },
    wl.CERTIFY: {
        "report.json delta": _scale_report("delta", 1 + 1e-6),
        "report.json e_ms_per_run": _scale_report("e_ms_per_run", 1.001),
        "sweep.csv tail_energy": _bump_csv("sweep.csv", 3),
    },
    wl.SIMULATE: {
        "trajectory.csv phi1": _bump_csv("trajectory.csv", 4),
        "trajectory.csv e_inst": _bump_csv("trajectory.csv", 7),
        "trajectory.csv truncated": _drop_last_row("trajectory.csv"),
    },
}


def main() -> int:
    seed = 7
    errors = []
    for workload, corruptions in CORRUPTIONS.items():
        work = run.ROOT / ".perfbench" / f"selftest-{workload}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            input_csv = wl.make_inputs(workload, seed, work)
            result = work / "worker.json"
            run.spawn_worker(["--workload", workload, "--seed", str(seed),
                              "--work", str(work), "--budget", "0",
                              "--result", str(result)])
            ops = json.loads(result.read_text())["ops"]
            refs = checks.References(workload, input_csv)
            for op in ops:
                errors += [f"{workload}: clean output flagged: {p}"
                           for p in checks.check_op(refs, seed, op)]
            op = ops[-1]
            pristine = work / "pristine"
            shutil.copytree(op["out"], pristine)
            for what, corrupt in corruptions.items():
                shutil.rmtree(op["out"])
                shutil.copytree(pristine, op["out"])
                corrupt(Path(op["out"]))
                flagged = checks.check_op(refs, seed, op)
                print(f"{workload}: {what}: "
                      f"{'flagged: ' + flagged[0] if flagged else 'NOT FLAGGED'}")
                if not flagged:
                    errors.append(f"{workload}: corrupted {what} was not flagged")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    for e in errors:
        print(f"FAIL {e}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
