"""One traced benchmark operation per workload, so a refactor that drops or
renames a boundary the benchmark's tracer predicts fails here, not only in a
benchmark run.  ``perfbench/tracing.py`` and ``workloads.py`` are imported,
never edited."""

from pathlib import Path

import pytest

from fourierpath import cli

with pytest.MonkeyPatch.context() as _mp:
    _mp.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing
    import workloads


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_operation_hits_every_predicted_boundary(workload, tmp_path, capsys):
    input_csv = workloads.make_inputs(workload, 0, tmp_path)
    commands = workloads.op_commands(workload, 0, 0, tmp_path / "op", input_csv)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        codes = [cli.main(argv) for argv in commands]
    finally:
        tracer.uninstall()
    assert codes == [0] * len(commands), capsys.readouterr().err
    tracer.check_hits(workload)
