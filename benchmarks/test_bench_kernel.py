"""Bench: kernel events/sec across workload shapes.

Runs the full ``kernel_bench`` trajectory (the same code path that
emits ``BENCH_kernel.json``) and asserts its shape: every shape
measured, nothing degenerate, and each fingerprint consistent with
the work it reports.  Throughput itself is not gated — a shared runner
only ever subtracts, and unevenly.
"""

from __future__ import annotations

from repro.experiments.kernel_bench import SHAPES, run_kernel_bench

#: Rounds per shape; 2 absorbs a one-off stall.
BENCH_REPS = 2


def test_bench_kernel(benchmark, artifact_writer):
    result = benchmark.pedantic(run_kernel_bench, rounds=1, iterations=1,
                                kwargs={"reps": BENCH_REPS})
    artifact_writer("kernel", result.render())
    print(result.render())

    # Every shape measured, nothing degenerate.
    assert result.shapes() == list(SHAPES)
    for shape in result.shapes():
        cell = result.cell(shape)
        assert cell.events > 0
        assert cell.best_s > 0
        assert cell.events_per_s > 0
        assert cell.peak_queue > 0
        # run_kernel_bench already raised if rounds diverged; the
        # fingerprint must also record the events the cell counts.
        assert f"processed={cell.events}" in cell.fingerprint
