"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pod_churn --seed 1 --seconds 30 \\
        --trace 0

``--trace 0`` repeats the workload for ``--seconds`` of host time and
reports the end-to-end metrics, with host times scaled to a nominal
host speed (see :mod:`perfbench.hostspeed`); ``--trace 1`` runs it
once untraced and once with every layer's entry points wrapped, and
reports the per-layer metrics (plus a Chrome trace file under ``perfbench/out/``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 1 when a correctness check fails and 2 when the program cannot be
imported.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent

#: Repetitions per run at most (each repeats every part of the inputs).
MAX_REPS = 50

#: End-to-end metrics and their units, in print order.
END_TO_END = (("ops_per_s", "1/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("sim_p50_us", "us"),
              ("sim_p99_us", "us"), ("sim_avail_pct", "%"))

#: Per-name call counts and times the traced run reports, by metric.
NAMED_COUNTS = {
    "orchestration.availability_scans": (
        "ResourceRegistry.compute_availability",
        "ResourceRegistry.memory_availability"),
    "orchestration.shard_lookups": ("ShardedSdmController.shard_of_rack",),
    "software.vms_reads": ("Hypervisor.vms",),
    "software.hotplugs": ("Hypervisor.hotplug_dimm",
                          "Hypervisor.unplug_dimm"),
    "memory.allocs": ("SegmentAllocator.allocate",),
    "memory.frees": ("SegmentAllocator.free",),
    "federation.snapshots": ("GlobalPlacer.snapshot",),
}

#: How per-part program counters combine into one run's value.
_MAX_COUNTERS = {"sim.peak_queue", "cluster.queue_wait_p99_us",
                 "memory.peak_fragmentation"}
_MEAN_COUNTERS = {"cluster.utilization", "federation.migration_commit_frac",
                  "faults.readmit_ok_frac", "maintenance.drain_commit_frac",
                  "topology.compile_s", "datamover.hit_ratio"}

#: Program counters every workload reports (0 where the layer is idle).
PROGRAM_COUNTERS = (
    "sim.events", "sim.peak_queue", "sim.events_per_op",
    "cluster.queue_wait_p99_us", "cluster.utilization",
    "memory.peak_fragmentation", "memory.leaked_segments",
    "federation.spills", "federation.leaked_claims",
    "federation.migrations", "federation.migration_commit_frac",
    "federation.rebalance_passes", "faults.fired",
    "faults.readmit_ok_frac", "faults.downtime_s",
    "maintenance.segments_moved", "maintenance.rollback_moves",
    "maintenance.drain_commit_frac", "topology.compile_s",
    "datamover.hit_ratio", "datamover.bytes_moved",
    "datamover.inversions")


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name in ("sim.events_per_op",):
        return "1/op"
    if name.endswith(("_frac", "_ratio", ".utilization", "fragmentation",
                      ".overhead")):
        return "ratio"
    if name.endswith("bytes_moved"):
        return "B"
    return "count"


class Repetition:
    """One pass over every part of a workload's inputs."""

    def __init__(self) -> None:
        #: Seconds of each part's set-up and timed run (scaled to the
        #: nominal host speed when the repetition was run with *scale*).
        self.setup_s: list[float] = []
        self.run_s: list[float] = []
        #: Unscaled host seconds of each part's set-up plus run.
        self.host_s: list[float] = []
        self.outcomes: list = []

    @property
    def issued(self) -> int:
        return sum(o.issued for o in self.outcomes)

    @property
    def work(self) -> int:
        return sum(o.work for o in self.outcomes)

    @property
    def digests(self) -> list[str]:
        return [o.digest for o in self.outcomes]


def run_once(workload, seed: int, scale: bool = False,
             last: Optional[Repetition] = None) -> Repetition:
    """Set up and run every part once; set-up is timed apart from the
    run, and each part's correctness checks run after its timed run.

    With *scale*, the host speed is sampled before each part's set-up,
    between set-up and run, and after the run, and each time is scaled
    by the mean of the two samples around it.  A sample lasts a share of
    the part's host time in *last*, the previous repetition."""
    from perfbench.hostspeed import (
        MIN_SAMPLE_S,
        NOMINAL_UNIT_S,
        SAMPLE_SHARE,
        unit_seconds,
    )

    rep = Repetition()
    for part in range(workload.parts):
        gc.collect()
        sample_s = MIN_SAMPLE_S if last is None else max(
            MIN_SAMPLE_S, SAMPLE_SHARE * last.host_s[part])
        before = unit_seconds(sample_s) if scale else NOMINAL_UNIT_S
        started = perf_counter()
        state = workload.setup(seed, part)
        setup_s = perf_counter() - started
        between = unit_seconds(sample_s) if scale else NOMINAL_UNIT_S
        started = perf_counter()
        outcome = workload.run(state)
        run_s = perf_counter() - started
        after = unit_seconds(sample_s) if scale else NOMINAL_UNIT_S
        rep.setup_s.append(setup_s * 2 * NOMINAL_UNIT_S / (before + between))
        rep.run_s.append(run_s * 2 * NOMINAL_UNIT_S / (between + after))
        rep.host_s.append(setup_s + run_s)
        workload.check(state, outcome)
        rep.outcomes.append(outcome)
    return rep


def _part_total(per_rep: list[list[float]], statistic) -> float:
    """Sum over parts of *statistic* of each part's times across the
    repetitions."""
    return sum(statistic(times) for times in zip(*per_rep))


def check_repeatable(reps: list[Repetition], CheckError) -> None:
    first = reps[0].digests
    for index, rep in enumerate(reps[1:], start=2):
        if rep.digests != first:
            raise CheckError(
                f"repetition {index} simulated a different result than "
                f"repetition 1 from the same seed")


def _percentile_us(values: list[float], q: float) -> float:
    import numpy as np
    return float(np.percentile(values, q)) * 1e6


def end_to_end(reps: list[Repetition], peak_rss_mb: float
               ) -> dict[str, float]:
    outcomes = reps[0].outcomes
    served = [o for o in outcomes if o.error is None] or outcomes
    latencies = [s for o in served for s in o.latencies_s]
    tenant_s = sum(o.tenant_s for o in outcomes)
    downtime = sum(o.downtime_s for o in outcomes)
    return {
        # Host-speed-scaled times; each part's median repetition.
        "ops_per_s": reps[0].work / _part_total([r.run_s for r in reps],
                                                statistics.median),
        "setup_s": _part_total([r.setup_s for r in reps],
                               statistics.median),
        "peak_rss_mb": peak_rss_mb,
        "sim_p50_us": _percentile_us(latencies, 50),
        "sim_p99_us": _percentile_us(latencies, 99),
        "sim_avail_pct": (100.0 * (1.0 - downtime / tenant_s)
                          if tenant_s else 100.0),
    }


def program_counters(rep: Repetition) -> dict[str, float]:
    values: dict[str, float] = {}
    for name in PROGRAM_COUNTERS:
        parts = [o.counters[name] for o in rep.outcomes
                 if name in o.counters]
        if not parts:
            values[name] = 0.0
        elif name in _MAX_COUNTERS:
            values[name] = float(max(parts))
        elif name in _MEAN_COUNTERS:
            values[name] = float(statistics.fmean(parts))
        else:
            values[name] = float(sum(parts))
    values["sim.events_per_op"] = values["sim.events"] / max(rep.work, 1)
    values["faults.downtime_s"] = float(
        sum(o.downtime_s for o in rep.outcomes))
    return values


def per_layer(workload, seed: int, out_dir: Path, CheckError
              ) -> tuple[Repetition, dict[str, float]]:
    """One untraced and one traced repetition; per-layer metrics."""
    from perfbench.tracer import LAYERS, UNATTRIBUTED, Instrumentation, \
        Tracer

    plain = run_once(workload, seed)
    plain_s = sum(plain.host_s)

    tracer = Tracer()
    with Instrumentation(tracer):
        traced = tracer.run(lambda: run_once(workload, seed))
    traced_s = sum(traced.host_s)
    if traced.digests != plain.digests:
        raise CheckError("the traced run simulated a different result "
                         "than the untraced run")

    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = tracer.self_s[layer]
        metrics[f"{layer}.calls"] = float(tracer.calls[layer])
    metrics[f"{UNATTRIBUTED}.self_s"] = tracer.self_s[UNATTRIBUTED]
    for metric, names in NAMED_COUNTS.items():
        metrics[metric] = float(sum(tracer.name_calls[n] for n in names))
    metrics["orchestration.availability_s"] = sum(
        tracer.name_s[n]
        for n in NAMED_COUNTS["orchestration.availability_scans"])
    metrics.update(program_counters(plain))
    metrics["trace.overhead"] = traced_s / plain_s
    path = tracer.write_chrome_trace(
        out_dir / f"{workload.name}-seed{seed}.trace.json")
    print(f"trace: {len(tracer.spans)} spans "
          f"({tracer.dropped_spans} beyond the cap) -> {path}",
          file=sys.stderr)
    return plain, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        from perfbench.workloads import WORKLOADS, CheckError
    except ImportError as exc:
        print(f"cannot import the simulator from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; known: "
                     f"{', '.join(WORKLOADS)}")

    try:
        if args.trace:
            first, metrics = per_layer(workload, args.seed,
                                       ROOT / "perfbench" / "out",
                                       CheckError)
            units = {name: layer_unit(name) for name in metrics}
        else:
            started = perf_counter()
            reps = [run_once(workload, args.seed, scale=True)]
            # Peak RSS after one pass over the inputs: later passes only
            # add allocator fragmentation that grows with the pass count.
            peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF)
                           .ru_maxrss / 1024.0)
            while len(reps) < MAX_REPS and (
                    len(reps) < 2
                    or perf_counter() - started < args.seconds):
                reps.append(run_once(workload, args.seed, scale=True,
                                     last=reps[-1]))
            check_repeatable(reps, CheckError)
            first = reps[0]
            metrics = end_to_end(reps, peak_rss_mb)
            units = dict(END_TO_END)
    except CheckError as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1

    attempted = first.issued
    failed = sum(o.issued if o.error or o.violations else o.rejected
                 for o in first.outcomes)
    for part, outcome in enumerate(first.outcomes):
        if outcome.error:
            print(f"part {part} aborted (all its operations count as "
                  f"failed): {outcome.error}", file=sys.stderr)
        for violation in outcome.violations:
            print(f"part {part} conservation violated (all its operations "
                  f"count as failed): {violation}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name:40s} {value:16.6g} {units[name]}")
    print(f"{'fail_frac':40s} {failed / attempted:16.6g}")
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
