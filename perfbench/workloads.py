"""The benchmark's three seeded workloads.

Each workload turns a seed into inputs (tenant traces, fault plans,
access streams) and drives them through the ``repro`` library API:

* ``pod_churn`` — one 4-rack pod, one SDM-C shard per rack, behind the
  event-driven :class:`~repro.cluster.control_plane.ControlPlane`,
  serving a Poisson tenant trace (boots, runtime scale-up/down, some
  migrations, departures) near the pod's admission capacity.  The
  controller-bound shape: orchestration does the most host work.
* ``federation_faults`` — a compiled three-pod ``M`` topology with a
  hot home pod, ``least-loaded`` spill, the idle-window rebalancer, a
  seeded scripted fault plan over all five fault classes with
  self-healing, and a maintenance window that drains the hot pod
  mid-trace.  The only workload that drives federation, faults,
  maintenance and topology.
* ``datamover_mix`` — the data path: ``DataMover.read``/``write`` over
  cross-rack segments under line, page and adaptive granularity, with
  caches cold, plus :class:`~repro.datamover.traffic.MoverTrafficSim`
  link contention.  Orchestration and federation do no work here.

A workload is split into *parts*, each an independent input drawn from
the seed, so one run pools enough simulated samples for its latency
percentiles.  ``setup(seed, part)`` builds everything before the timed
region; ``run(state)`` is the timed region and returns an
:class:`Outcome`; ``check(state, outcome)`` raises
:class:`CheckError` when the run is not a valid measurement, and records
trace-end conservation violations (program defects) on the outcome.
"""

from __future__ import annotations

import hashlib
import math
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Optional

import numpy as np

from repro.cluster.control_plane import ControlPlane
from repro.cluster.trace import TenantTrace, bursty_trace, poisson_trace
from repro.core.builder import PodBuilder
from repro.datamover.mover import MoverConfig
from repro.datamover.traffic import MoverTrafficSim
from repro.errors import ReproError
from repro.faults import FaultInjector, FaultPlan
from repro.federation.parallel import federation_fingerprint
from repro.federation.rebalancer import FederationRebalancer
from repro.orchestration.placement import make_placement_policy
from repro.orchestration.requests import VmAllocationRequest
from repro.orchestration.sdm_controller import SdmTimings
from repro.sim.rng import RngRegistry
from repro.topology import compile_spec, template
from repro.units import gbps, gib, mib, milliseconds


class CheckError(Exception):
    """A correctness check on the program's outputs failed."""


@dataclass
class Outcome:
    """What one timed run of one part produced."""

    #: Operations the inputs issued (control-plane requests or memory
    #: transactions); for an aborted run, every operation of its input.
    issued: int
    #: Issued operations the program refused or lost.
    rejected: int
    #: Modelled latency (s) of each served main operation, timed from
    #: the operation's arrival.
    latencies_s: list[float]
    #: Digest of the simulated result: records, final clock, events.
    digest: str
    #: The exception that aborted the run, if one did.
    error: Optional[str] = None
    #: Tenant-seconds hosted and tenant-seconds unavailable.
    tenant_s: float = 0.0
    downtime_s: float = 0.0
    #: Per-layer counters read from the program after the run.
    counters: dict[str, float] = field(default_factory=dict)
    #: Conservation violations the trace-end audit found.  A part with
    #: any counts all of its operations as failed.
    violations: list[str] = field(default_factory=list)
    #: Operations the program actually received in the timed run (the
    #: throughput numerator); ``issued`` unless the run aborted.
    work: Optional[int] = None

    def __post_init__(self) -> None:
        if self.work is None:
            self.work = self.issued


def _digest(*parts: Any) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode("utf-8"))
        digest.update(b"\x1f")
    return digest.hexdigest()


def _record_digest(records, clock: float, events: int) -> str:
    return _digest(clock, events, [
        (r.tenant_id, r.kind, r.submitted_s, r.started_s, r.completed_s,
         r.ok, r.note, r.queue_depth_at_submit) for r in records])


def _check_accounting(records) -> int:
    """Every issued request was served or refused, none is pending;
    returns how many were refused."""
    pending = [r for r in records if not r.done]
    if pending:
        raise CheckError(
            f"{len(pending)} request(s) still pending at trace end, e.g. "
            f"{pending[0].kind} of {pending[0].tenant_id}")
    return sum(1 for r in records if not r.ok)


def _audit_conservation(system, departed: set[str],
                        outcome: "Outcome") -> None:
    """Record conservation violations on *outcome*: allocator books that
    do not balance, and memory still held by departed tenants."""
    sdm = system.sdm
    entries = sdm.registry.memory_entries
    for entry in entries:
        try:
            entry.allocator.check_invariants()
        except ReproError as exc:
            outcome.violations.append(
                f"allocator of {entry.brick.brick_id}: {exc}")
    allocated = sum(e.allocator.allocated_bytes for e in entries)
    live = sdm.live_segments
    if allocated != sum(s.size for s in live):
        outcome.violations.append(
            f"allocators hold {allocated} bytes but live segments "
            f"{sum(s.size for s in live)}")
    leaked = sorted((s.vm_id, s.segment_id) for s in live
                    if s.vm_id in departed)
    outcome.counters["memory.leaked_segments"] = (
        outcome.counters.get("memory.leaked_segments", 0) + len(leaked))
    if leaked:
        outcome.violations.append(
            f"{len(leaked)} segment(s) still held by departed tenants, "
            f"e.g. {leaked[0][1]} of {leaked[0][0]}")


def _describe(exc: BaseException) -> str:
    """``Type: message (file:line)`` of the frame that raised *exc*."""
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return (f"{type(exc).__name__}: {exc} "
            f"({Path(frame.filename).name}:{frame.lineno})")


def _departed(records) -> set[str]:
    return {r.tenant_id for r in records if r.kind == "depart" and r.ok}


def _tenant_seconds(records) -> float:
    """Tenant-seconds hosted: from each admitted boot to its served
    depart (trace end for tenants still hosted)."""
    end = max((r.completed_s for r in records), default=0.0)
    booted: dict[str, float] = {}
    total = 0.0
    for record in sorted(records, key=lambda r: r.completed_s):
        if record.kind == "boot" and record.ok:
            booted.setdefault(record.tenant_id, record.completed_s)
        elif record.kind == "depart" and record.ok:
            start = booted.pop(record.tenant_id, None)
            if start is not None:
                total += record.completed_s - start
    return total + sum(end - start for start in booted.values())


# ---------------------------------------------------------------------------
# pod_churn
# ---------------------------------------------------------------------------

class PodChurn:
    """Poisson tenant churn through one sharded pod's control plane."""

    name = "pod_churn"
    #: Many short parts: the host-speed samples taken around a part
    #: bracket it closely when it takes a fraction of a second.
    parts = 24
    racks = 4
    #: Resident VMs booted per rack before the timed run.
    residents_per_rack = 16
    tenants = 250
    #: Near the admission capacity: about 3 % of boots are refused, and
    #: boots queue at the shard locks often enough that the median
    #: includes waiting.
    arrival_rate_hz = 40.0
    migrate_fraction = 0.05
    #: Dispatcher workers (the ``cluster_scale`` count).
    workers = 32
    #: SDM-C service at pod scale (the ``cluster_scale`` timings):
    #: per-request dispatch, so the critical section saturates first.
    timings = SdmTimings(reservation_s=milliseconds(5),
                         config_generation_s=milliseconds(10),
                         power_on_s=milliseconds(500))

    def setup(self, seed: int, part: int) -> dict:
        system = (PodBuilder("churn")
                  .with_racks(self.racks)
                  .with_compute_bricks(4, cores=16, local_memory=gib(4))
                  .with_memory_bricks(3, modules=4, module_size=gib(4))
                  .with_section_size(mib(128))
                  .with_sdm_timings(self.timings)
                  .with_policy(make_placement_policy("spread"))
                  .with_controller_shards(self.racks)
                  .build())
        for index in range(self.residents_per_rack * self.racks):
            system.boot_vm(VmAllocationRequest(
                f"resident-{index}", vcpus=1, ram_bytes=mib(256)))
        plane = ControlPlane(system, max_batch=1, workers=self.workers,
                             offload=True)
        trace = poisson_trace(
            self.tenants, self.arrival_rate_hz, vcpus=1,
            ram_bytes=gib(1), mean_lifetime_s=2.0, scale_fraction=0.5,
            scale_bytes=gib(1), migrate_fraction=self.migrate_fraction,
            seed=seed, name=f"churn{part}")
        return {"plane": plane, "trace": trace}

    def run(self, state: dict) -> Outcome:
        plane: ControlPlane = state["plane"]
        try:
            stats = plane.serve_trace(state["trace"])
        except Exception as exc:
            # As on federation_faults: a program defect raising out of
            # serve_trace fails every operation of the trace.
            issued = state["trace"].request_count()
            return Outcome(
                issued=issued, rejected=issued,
                work=len(plane.stats.records),
                latencies_s=[r.latency_s for r in plane.stats.records
                             if r.kind == "boot" and r.ok],
                digest=_digest(_describe(exc), plane.sim.now,
                               plane.sim.events_processed),
                error=_describe(exc))
        records = stats.records
        return Outcome(
            issued=len(records), rejected=_check_accounting(records),
            latencies_s=[r.latency_s for r in records
                         if r.kind == "boot" and r.ok],
            digest=_record_digest(records, plane.sim.now,
                                  plane.sim.events_processed),
            tenant_s=_tenant_seconds(records),
            counters=_plane_counters([stats], plane.sim))

    def check(self, state: dict, outcome: Outcome) -> None:
        plane: ControlPlane = state["plane"]
        if outcome.error is not None:
            return  # an aborted run leaves in-flight state by design
        _audit_conservation(plane.system, _departed(plane.stats.records),
                            outcome)


def _plane_counters(plane_stats, sim) -> dict[str, float]:
    waits = [r.wait_s for stats in plane_stats for r in stats.records
             if r.ok and not math.isnan(r.wait_s)]
    busy = sum(s.busy_s for s in plane_stats)
    capacity = sum(s.duration_s * s.worker_count for s in plane_stats)
    return {
        "sim.events": sim.events_processed,
        "sim.peak_queue": sim.queue_peak_size,
        "cluster.queue_wait_p99_us": (
            float(np.percentile(waits, 99)) * 1e6 if waits else 0.0),
        "cluster.utilization": busy / capacity if capacity else 0.0,
        "memory.peak_fragmentation": max(
            (s.peak_fragmentation for s in plane_stats), default=0.0),
    }


# ---------------------------------------------------------------------------
# federation_faults
# ---------------------------------------------------------------------------

#: Nominal outage length of each fault class in the scripted plan; each
#: drawn outage lasts 0.5-1.5x this.  Target pools are enumerated from
#: the compiled topology, so any pod, brick, rack or shard can be hit.
FAULT_DURATIONS_S = {"memory_brick": 8.0, "rack_uplink": 6.0,
                     "switch": 5.0, "shard": 10.0, "pod": 12.0}


class FederationFaults:
    """Faults, self-healing and a rolling drain on a compiled topology."""

    name = "federation_faults"
    #: Long parts keep the few boots an outage strands well under 1 %
    #: of a part; four of them keep one unlucky part from setting p99.
    parts = 4
    template = "M"
    tenants = 1500
    #: Deployment waves (geometric bursts, mean 4 tenants) at a mean
    #: rate near the fault-free admission capacity of template M, so
    #: boots queue at the pods' controllers.
    arrival_rate_hz = 8.0
    mean_burst = 4.0
    #: Share of tenants whose home is the first (hot, drained) pod.
    hot_share = 0.75

    def setup(self, seed: int, part: int) -> dict:
        rngs = RngRegistry(seed)
        trace = bursty_trace(
            self.tenants, self.arrival_rate_hz,
            mean_burst_size=self.mean_burst, vcpus=1, ram_bytes=gib(2),
            mean_lifetime_s=1.2, scale_fraction=0.2, scale_bytes=gib(1),
            migrate_fraction=0.1, seed=seed, name=f"fed{part}")
        horizon = trace.duration_s
        started = perf_counter()
        spec = template(self.template).override(
            domains=[], maintenance={"windows": [
                {"pod": "pod0", "at_s": round(0.5 * horizon, 3)}]})
        topo = compile_spec(spec, rebalancer=FederationRebalancer(
            interval_s=0.25, imbalance_threshold=0.2))
        compile_s = perf_counter() - started
        federation = topo.federation
        pods = sorted(federation.pods)
        home_rng = rngs.stream(f"bench.fed{part}.home")
        homes = {}
        for tenant in trace.tenants:
            if home_rng.random() < self.hot_share:
                homes[tenant.tenant_id] = pods[0]
            else:
                homes[tenant.tenant_id] = pods[
                    1 + int(home_rng.integers(len(pods) - 1))]
        plan = self._fault_plan(federation, horizon,
                                rngs.stream(f"bench.fed{part}.faults"))
        injector = FaultInjector(federation, classes=(), seed=seed,
                                 self_heal=True, plan=plan).install()
        supervisor = topo.supervisor()
        supervisor.install_fence(injector)
        reports = topo.install_maintenance(supervisor)
        # Lifecycle requests (scale, migrate, depart) reach the pods
        # through ``federation.submit``; record them so accounting
        # covers exactly what the trace issued, not the background
        # migrations and re-admissions the federation submits itself.
        lifecycle: list = []
        submit = federation.submit

        def submit_and_record(kind, tenant_id, **payload):
            request = submit(kind, tenant_id, **payload)
            lifecycle.append(request.record)
            return request
        federation.submit = submit_and_record
        return {"federation": federation, "trace": trace, "homes": homes,
                "injector": injector, "reports": reports,
                "compile_s": compile_s, "lifecycle": lifecycle}

    def _fault_plan(self, federation, horizon: float, rng) -> FaultPlan:
        """One outage of each fault class at a seeded time and target."""
        plan = FaultPlan()
        pods = sorted(federation.pods)
        for klass in sorted(FAULT_DURATIONS_S):
            at_s = float(rng.uniform(0.1, 0.9)) * horizon
            pod_id = pods[int(rng.integers(len(pods)))]
            sdm = federation.pods[pod_id].system.sdm
            if klass == "memory_brick":
                pool = sorted(e.brick.brick_id
                              for e in sdm.registry.memory_entries)
            elif klass == "rack_uplink":
                pool = sorted({e.rack_id
                               for e in sdm.registry.memory_entries})
            elif klass == "shard":
                pool = sdm.shard_names()
            else:  # switch and pod outages target the pod itself
                pool = [""]
            pick = pool[int(rng.integers(len(pool)))]
            target = f"{pod_id}:{pick}" if pick else pod_id
            duration = (FAULT_DURATIONS_S[klass]
                        * float(rng.uniform(0.5, 1.5)))
            plan.add(round(at_s, 6), klass, target, round(duration, 6))
        return plan

    def run(self, state: dict) -> Outcome:
        federation = state["federation"]
        trace: TenantTrace = state["trace"]
        homes = state["homes"]
        injector = state["injector"]
        error = None
        try:
            stats = federation.serve_trace(
                trace, home_of=lambda spec: homes[spec.tenant_id])
        except Exception as exc:
            # Program defects can raise out of serve_trace (a
            # maintenance window opening on a failed pod, for one) and
            # abort the whole run: every operation of the trace then
            # counts as failed.
            error = _describe(exc)
            stats = federation.stats
        issued = stats.admission_records + state["lifecycle"]
        downtime = injector.metrics.finalize()
        counters = self._counters(state, stats)
        if error is not None:
            planned = trace.request_count()
            return Outcome(
                issued=planned, rejected=planned,
                work=len(issued),
                latencies_s=[r.latency_s for r in stats.admission_records
                             if r.ok],
                digest=_digest(error, federation.sim.now,
                               federation.sim.events_processed),
                error=error, tenant_s=_tenant_seconds(issued),
                downtime_s=downtime, counters=counters)
        return Outcome(
            issued=len(issued), rejected=_check_accounting(issued),
            latencies_s=[r.latency_s for r in stats.admission_records
                         if r.ok],
            digest=_digest(federation_fingerprint(stats),
                           federation.sim.now,
                           federation.sim.events_processed, downtime),
            tenant_s=_tenant_seconds(issued), downtime_s=downtime,
            counters=counters)

    def _counters(self, state: dict, stats) -> dict[str, float]:
        federation = state["federation"]
        injector = state["injector"]
        reports = state["reports"]
        planes = [federation.pods[p].plane.stats
                  for p in sorted(federation.pods)]
        counters = _plane_counters(planes, federation.sim)
        moves = stats.migrations + stats.migration_rollbacks
        readmits = (injector.metrics.readmissions
                    + injector.metrics.readmission_failures)
        counters.update({
            "federation.spills": stats.spills,
            "federation.migrations": stats.migrations,
            "federation.migration_commit_frac": (
                stats.migrations / moves if moves else 0.0),
            "federation.rebalance_passes": (
                federation.rebalancer.report.passes),
            "faults.fired": injector.metrics.fault_count(),
            "faults.readmit_ok_frac": (
                injector.metrics.readmissions / readmits
                if readmits else 0.0),
            "maintenance.segments_moved": sum(
                r.segments_moved for r in reports),
            "maintenance.rollback_moves": sum(
                r.rollback_moves for r in reports),
            "maintenance.drain_commit_frac": (
                sum(r.committed for r in reports) / len(reports)
                if reports else 0.0),
            "topology.compile_s": state["compile_s"],
        })
        return counters

    def check(self, state: dict, outcome: Outcome) -> None:
        if outcome.error is not None:
            return  # an aborted run leaves in-flight state by design
        federation = state["federation"]
        departed: set[str] = set()
        for pod in federation.pods.values():
            departed |= _departed(pod.plane.stats.records)
        for pod_id in sorted(federation.pods):
            _audit_conservation(federation.pods[pod_id].system, departed,
                                outcome)
        placer = federation.placer
        held = sorted(t for t in departed
                      if placer.ledger_claim(t) is not None)
        held += sorted(c.tenant_id for c in placer.pending_claims
                       if c.tenant_id in departed)
        outcome.counters["federation.leaked_claims"] = len(held)
        if held:
            outcome.violations.append(
                f"placer still holds {len(held)} claim(s) of departed "
                f"tenants, e.g. {held[0]}")


# ---------------------------------------------------------------------------
# datamover_mix
# ---------------------------------------------------------------------------

class DatamoverMix:
    """Cold-cache data-path traffic over cross-rack segments."""

    name = "datamover_mix"
    #: Many short parts: the host-speed samples taken around a part
    #: bracket it closely when it takes a fraction of a second.
    parts = 24
    #: Granularity policies, each on a fresh (cold) mover.
    policies = ("line", "page", "adaptive")
    accesses_per_policy = 500
    #: Probability the next access continues the current line walk.
    locality = 0.6
    write_share = 0.25
    #: Open-loop arrival rate (simulated) near the memory controller's
    #: capacity, so misses queue at the dMEMBRICK.
    arrival_rate_hz = 7e6
    traffic_clients = 4
    traffic_accesses = 90

    def setup(self, seed: int, part: int) -> dict:
        system = (PodBuilder("dm")
                  .with_racks(2)
                  .with_compute_bricks(2, cores=8, local_memory=gib(2))
                  .with_memory_bricks(1, modules=1, module_size=gib(8))
                  .build())
        for index in range(8):
            try:
                system.boot_vm(VmAllocationRequest(
                    f"dm-vm-{index}", vcpus=1, ram_bytes=gib(4)))
            except ReproError:
                break  # the memory-poor pod is full
        windows: dict[str, list] = {}
        for segment in system.sdm.live_segments:
            record = system.sdm.segment_record(segment.segment_id)
            hop_path = record.circuit.hop_path
            if hop_path is not None and hop_path.crosses_racks:
                windows.setdefault(segment.compute_brick_id, []).append(
                    (record.entry.base, record.entry.size, hop_path))
        if not windows:
            raise CheckError("no cross-rack segment to drive")
        brick_id = max(sorted(windows), key=lambda b: len(windows[b]))
        segments = windows[brick_id]
        rng = RngRegistry(seed).stream(f"bench.dm{part}.mix")
        count = self.accesses_per_policy
        gaps = rng.exponential(1.0 / self.arrival_rate_hz,
                               size=count * len(self.policies))
        times = np.cumsum(gaps).tolist()
        addresses, writes = [], []
        base = size = address = 0
        for _ in range(count):
            if address == 0 or rng.random() >= self.locality:
                base, size, _hop = segments[int(rng.integers(
                    len(segments)))]
                address = base + int(rng.integers(size // 4096)) * 4096
            else:
                address += 64
                if address >= base + size:
                    address = base
            addresses.append(address)
            writes.append(bool(rng.random() < self.write_share))
        return {"system": system, "brick_id": brick_id,
                "hop_path": segments[0][2], "addresses": addresses,
                "writes": writes, "times": times,
                "traffic_seed": int(rng.integers(2**31))}

    def run(self, state: dict) -> Outcome:
        system = state["system"]
        addresses, writes = state["addresses"], state["writes"]
        times = state["times"]
        latencies: list[float] = []
        hits = misses = accesses = moved = 0
        fingerprint = []
        for index, policy in enumerate(self.policies):
            mover = system.attach_data_mover(
                state["brick_id"], MoverConfig(
                    granularity=policy, prefetch="stride",
                    prefetch_depth=4))
            offset = index * len(addresses)
            for step, (address, is_write) in enumerate(
                    zip(addresses, writes)):
                now = times[offset + step]
                if is_write:
                    mover.write(address, now=now)
                else:
                    mover.read(address, now=now)
            stats = mover.stats
            latencies.extend(stats.demand_latencies_s)
            hits += stats.demand_hits
            misses += stats.demand_misses
            accesses += stats.demand_accesses
            moved += (stats.demand_fill_bytes + stats.prefetch_bytes
                      + stats.writeback_bytes)
            fingerprint.append((policy, stats.demand_hits,
                                stats.demand_latency_s, stats.writebacks,
                                stats.prefetch_fills))
        traffic = MoverTrafficSim(
            hop_path=state["hop_path"], link_rate_bps=gbps(10),
            discipline="priority", prefetch_depth=4,
            write_fraction=self.write_share, seed=state["traffic_seed"])
        result = traffic.run(client_count=self.traffic_clients,
                             accesses_per_client=self.traffic_accesses,
                             locality=0.85)
        issued = len(addresses) * len(self.policies) + result.accesses
        served = accesses + len(result.demand_latencies_s)
        state["mover_accounting"] = (hits, misses, accesses)
        state["traffic"] = result
        traffic_hits = round(result.hit_ratio * result.accesses)
        return Outcome(
            issued=issued, rejected=issued - served,
            latencies_s=latencies,
            digest=_digest(fingerprint, result.duration_s,
                           result.demand_latencies_s,
                           sorted((k.value, v)
                                  for k, v in result.served.items())),
            counters={
                "datamover.hit_ratio": (
                    (hits + traffic_hits) / (accesses + result.accesses)),
                "datamover.bytes_moved": moved,
                "datamover.inversions": result.priority_inversions,
            })

    def check(self, state: dict, outcome: Outcome) -> None:
        hits, misses, accesses = state["mover_accounting"]
        if hits + misses != accesses:
            raise CheckError(
                f"mover hits {hits} + misses {misses} != accesses "
                f"{accesses}")
        if accesses != len(state["addresses"]) * len(self.policies):
            raise CheckError(
                f"mover served {accesses} of "
                f"{len(state['addresses']) * len(self.policies)} accesses")
        result = state["traffic"]
        if len(result.demand_latencies_s) != result.accesses:
            raise CheckError(
                f"traffic sim served {len(result.demand_latencies_s)} of "
                f"{result.accesses} accesses")
        if result.priority_inversions:
            raise CheckError(
                f"priority discipline shows {result.priority_inversions} "
                f"inversion(s)")


WORKLOADS = {w.name: w for w in (PodChurn(), FederationFaults(),
                                 DatamoverMix())}
