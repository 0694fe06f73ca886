"""One benchmark operation per workload, checked by the benchmark's own output
checks, so a change that breaks a pinned output (the closed-loop goldens
among them) fails here, not only in a benchmark run; and the checks' own
self-test.  ``perfbench/checks.py``, ``selftest.py`` and ``workloads.py`` are
run or imported, never edited."""

import subprocess
import sys
from pathlib import Path

import pytest

from fourierpath import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

with pytest.MonkeyPatch.context() as _mp:
    _mp.syspath_prepend(str(PERFBENCH))
    import checks
    import workloads


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_operation_passes_the_benchmark_checks(workload, tmp_path, capsys):
    input_csv = workloads.make_inputs(workload, 0, tmp_path)
    out = tmp_path / "op"
    stdouts = []
    for argv in workloads.op_commands(workload, 0, 0, out, input_csv):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 0, captured.err
        stdouts.append(captured.out)
    op = {"index": 0, "error": None, "out": str(out), "stdout": stdouts}
    assert checks.check_op(checks.References(workload, input_csv), 0, op) == []


def test_checks_pass_clean_outputs_and_flag_every_corrupted_one():
    # a repair of a check must keep flagging every corruption the self-test makes
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.endswith("selftest passed\n")
