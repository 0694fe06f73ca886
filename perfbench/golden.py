"""Record the closed-loop values the output checks compare against.

    PYTHONPATH=src python3 perfbench/golden.py

Runs the certify and simulate operations once for every noise seed of the
pool, with the benchmark's BLAS thread count, and writes ``golden.json``.
Rerun it only when the workload definition changes, or when a change is
meant to alter these numbers.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import run  # noqa: F401  (fixes the BLAS thread count before numpy loads)

import fourierpath.cli as cli  # noqa: E402

import checks  # noqa: E402
import workloads as wl  # noqa: E402


def record(workload: str, tmp: Path) -> dict:
    values = {}
    for i in range(wl.GOLDEN_POOL):
        out = tmp / f"{workload}-{i}"
        (argv,) = wl.op_commands(workload, 0, i, out, None)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            if cli.main(argv) != 0:
                raise SystemExit(f"{workload} seed {i} failed")
        seed = str(wl.noise_seed(workload, 0, i))
        if workload == wl.CERTIFY:
            report = json.loads((out / "report.json").read_text())
            values[seed] = {"e_ms_per_run": report["e_ms_per_run"],
                            "p_integral": report["p_integral"]}
        else:
            info = checks.stdout_fields(buf.getvalue())
            values[seed] = {"final_V1": float(info["final_V1"]),
                            "final_e": float(info["final_e"])}
    return {"argv": list(wl.GOLDEN_ARGS[workload]), "values": values}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        golden = {w: record(w, Path(tmp)) for w in wl.GOLDEN_ARGS}
    target = Path(__file__).with_name("golden.json")
    target.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
