"""Admission availability and p99 during a full-pod rolling drain.

The availability sweep measures unplanned failures; this driver
measures the dominant *planned* availability consumer — rolling
maintenance — and its interaction with correlated failures.  The same
multi-tenant Poisson traffic as the availability sweep (identical
trace, identical skewed home-pod distribution) runs three times:

* **baseline** — no drain, no faults: the availability reference;
* **drain** — a :class:`~repro.maintenance.supervisor.
  MaintenanceSupervisor` rolls the hot pod out of service mid-trace
  (rack by rack, verified delta migration); the placer spills new
  arrivals to the surviving pods, so the headline is **zero admission
  unavailability**: the admitted fraction holds >= 99.9 % of the
  baseline cell's, with bounded p99 inflation;
* **drain+faults** — the same drain while correlated rack power
  domains (:func:`~repro.faults.domains.rack_power_domains`) fail on
  their own MTBF clock *and* a scripted domain outage lands inside
  the drain scope mid-drain: the fence aborts the drain, in-flight
  moves roll back, and the conservation check (allocated bytes ==
  live segments, no leaked holds or claims) still passes.

Every cell is deterministic per seed: the drain schedule is fixed,
domain draws come from dedicated ``faults.domain.*`` RNG streams, and
the conservation audit runs after the clock drains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.tables import render_table
from repro.cluster.trace import poisson_trace
from repro.errors import ConfigurationError
from repro.experiments.availability import (
    ARRIVAL_RATE_HZ,
    POD_COUNT,
    TENANT_COUNT,
)
from repro.experiments.federation import (
    HOT_POD_SHARE,
    MEAN_LIFETIME_S,
    TENANT_RAM_BYTES,
    TENANT_VCPUS,
    _audit_indexes,
    _home_of,
)
from repro.faults import FaultInjector
from repro.faults.domains import Hazard, coerce_hazard
from repro.maintenance import DrainReport
from repro.topology import TopologySpec, compile_spec, load_spec
from repro.units import to_milliseconds

#: The compiled topology of every cell when ``--topology`` is absent.
#: Template ``M`` carries this study's whole shape declaratively: the
#: federation the driver used to hand-build, the rack-power and
#: pod-network domain layers (60 s MTBF / 4 s MTTR), and the rolling
#: drain schedule (``pod0`` — the hot pod, the hardest case for
#: zero-downtime claims — at t=4 s, mid-ramp with the pod well
#: populated).
DEFAULT_TOPOLOGY = "M"

#: Fallback drain schedule when a ``--topology`` spec declares no
#: maintenance windows: drain the hot pod at the template ``M`` time.
DRAIN_POD = "pod0"
DRAIN_AT_S = 4.0

#: The scripted correlated outage of the drain+faults cell: the drain
#: pod's first rack's power domain trips this long after the drain
#: starts (mid-evacuation), and stays down this long.
OUTAGE_AFTER_S = 0.2
OUTAGE_DURATION_S = 5.0

#: Domain-layer choices of the ``--domains`` flag (``both`` = every
#: layer the spec declares).
DOMAIN_SETS = ("rack-power", "pod-network", "both")

#: The headline floor: the drain cell's admitted fraction must hold at
#: least this share of the baseline cell's.
AVAILABILITY_FLOOR = 0.999


@dataclass
class MaintenanceCell:
    """Measurements of one (drain schedule, fault schedule) run."""

    label: str
    drained: bool
    faults_enabled: bool
    admitted: int
    rejected: int
    spills: int
    p50_boot_ms: float
    p99_boot_ms: float
    duration_s: float
    drain_committed: bool = False
    drain_aborted: bool = False
    abort_reason: str = ""
    segments_moved: int = 0
    bytes_moved: int = 0
    tenants_migrated: int = 0
    rollback_moves: int = 0
    verify_failures: int = 0
    racks_retired: int = 0
    drain_duration_s: float = 0.0
    fault_count: int = 0
    domain_outages: int = 0
    conserved: bool = True

    @property
    def admitted_fraction(self) -> float:
        total = self.admitted + self.rejected
        return self.admitted / total if total else 0.0


@dataclass
class MaintenanceResult:
    """The three-cell drain study."""

    tenant_count: int
    arrival_rate_hz: float
    drain_pod: str
    pod_count: int = POD_COUNT
    drain_at_s: float = DRAIN_AT_S
    cells: list[MaintenanceCell] = field(default_factory=list)

    def cell(self, label: str) -> MaintenanceCell:
        for candidate in self.cells:
            if candidate.label == label:
                return candidate
        raise KeyError(f"no cell {label!r}")

    def availability_ratio(self, label: str) -> float:
        """*label*'s admitted fraction over the baseline's."""
        base = self.cell("baseline").admitted_fraction
        if base == 0.0:
            return 1.0
        return self.cell(label).admitted_fraction / base

    def p99_inflation(self, label: str) -> float:
        """*label*'s p99 admission latency over the baseline's."""
        base = self.cell("baseline").p99_boot_ms
        if base == 0.0:
            return 1.0
        return self.cell(label).p99_boot_ms / base

    def rows(self) -> list[tuple]:
        rows = []
        for cell in self.cells:
            if not cell.drained:
                drain = "-"
            elif cell.drain_committed:
                drain = f"committed/{cell.racks_retired}r"
            elif cell.drain_aborted:
                drain = "rolled back"
            else:
                drain = "incomplete"
            rows.append((
                cell.label,
                cell.admitted,
                cell.rejected,
                f"{cell.admitted_fraction:.1%}",
                f"{cell.p99_boot_ms:.1f}",
                drain,
                cell.tenants_migrated,
                cell.segments_moved,
                cell.rollback_moves,
                cell.fault_count,
                "yes" if cell.conserved else "NO",
            ))
        return rows

    def render(self) -> str:
        table = render_table(
            ["cell", "ok", "rej", "admit", "p99 (ms)", "drain",
             "migr", "segs", "rolled", "faults", "conserved"],
            self.rows(),
            title=f"Rolling maintenance: full drain of {self.drain_pod} "
                  f"({self.tenant_count} tenants at "
                  f"{self.arrival_rate_hz:g}/s over {self.pod_count} "
                  f"pods, drain at t={self.drain_at_s:g}s)")
        lines = [table]
        try:
            drain = self.cell("drain")
        except KeyError:
            drain = None
        if drain is not None and drain.drained:
            ratio = self.availability_ratio("drain")
            lines.append(
                f"drain vs baseline: admission availability "
                f"{ratio:.2%} of no-drain"
                + (f" (>= {AVAILABILITY_FLOOR:.1%} floor)"
                   if ratio >= AVAILABILITY_FLOOR else
                   f" (BELOW the {AVAILABILITY_FLOOR:.1%} floor)")
                + f", p99 {self.p99_inflation('drain'):.2f}x, "
                f"{drain.tenants_migrated} tenants and "
                f"{drain.segments_moved} segments moved in "
                f"{drain.drain_duration_s:.1f}s")
        try:
            faulted = self.cell("drain+faults")
        except KeyError:
            faulted = None
        if faulted is not None:
            verdict = ("rolled back cleanly" if faulted.drain_aborted
                       else "committed despite faults"
                       if faulted.drain_committed else "incomplete")
            lines.append(
                f"drain+faults: {faulted.fault_count} fault(s) across "
                f"{faulted.domain_outages} correlated domain outage(s); "
                f"drain {verdict} ({faulted.rollback_moves} moves "
                f"unwound); conservation "
                f"{'holds' if faulted.conserved else 'VIOLATED'}")
        lines.append(
            "(a draining pod leaves the admission pool but keeps "
            "serving; the placer spills newcomers to its peers, so "
            "planned maintenance consumes zero admission availability)")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# one cell
# ---------------------------------------------------------------------------

def _conserved(federation) -> bool:
    """Post-run conservation audit: allocator state matches the live
    segment set everywhere, and no hold or claim leaked."""
    try:
        for pod in federation.pods.values():
            entries = pod.system.sdm.registry.memory_entries
            allocated = sum(e.allocator.allocated_bytes for e in entries)
            live = sum(s.size for s in pod.system.sdm.live_segments)
            if allocated != live:
                return False
            for entry in entries:
                entry.allocator.check_invariants()
            if getattr(pod.system.sdm, "pending_holds", []) != []:
                return False
        return federation.placer.pending_claims == []
    except Exception:
        return False


def _run_cell(spec: TopologySpec, label: str, seed: int, *,
              drain: bool = False,
              faults: bool = False,
              kinds: Optional[tuple[str, ...]] = ("rack-power",),
              hazard: Optional[Hazard] = None,
              audit_index: bool = False) -> MaintenanceCell:
    topo = compile_spec(spec)
    federation = topo.federation
    if audit_index:
        _audit_indexes(federation)
    supervisor = topo.supervisor()
    injector: Optional[FaultInjector] = None
    if faults:
        injector = FaultInjector(
            federation, classes=(), seed=seed, self_heal=True,
            domains=topo.failure_domains(kinds=kinds, hazard=hazard),
        ).install()
        supervisor.install_fence(injector)

    reports: list[DrainReport] = []
    if drain:
        reports = topo.install_maintenance(supervisor)
        if injector is not None:
            # The guaranteed in-scope outage: the first drained pod's
            # first rack's power domain trips while it evacuates.
            window = topo.maintenance_windows[0]
            registry = federation.pods[window.pod].system.sdm.registry
            first_rack = min(e.rack_id
                             for e in registry.memory_entries)

            def outage_proc():
                yield federation.sim.timeout(
                    window.at_s + OUTAGE_AFTER_S)
                injector.fire_domain(
                    f"power.{window.pod}.{first_rack}",
                    repair_after_s=OUTAGE_DURATION_S, scripted=True)
            federation.sim.process(outage_proc())

    trace = poisson_trace(
        TENANT_COUNT, ARRIVAL_RATE_HZ, vcpus=TENANT_VCPUS,
        ram_bytes=TENANT_RAM_BYTES, mean_lifetime_s=MEAN_LIFETIME_S,
        scale_fraction=0.0, seed=seed, name=f"fed-a{ARRIVAL_RATE_HZ:g}")
    stats = federation.serve_trace(
        trace, home_of=_home_of(sorted(federation.pods), HOT_POD_SHARE))
    # Let the drain, repairs and domain clears finish on the same
    # clock (the MTBF loops exit at their next wake-up once stopped).
    if injector is not None:
        injector.stop()
    federation.sim.run()

    cell = MaintenanceCell(
        label=label,
        drained=drain,
        faults_enabled=faults,
        admitted=stats.boots_admitted,
        rejected=stats.boots_rejected,
        spills=stats.spills,
        p50_boot_ms=to_milliseconds(
            stats.admission_latency_percentile(50)),
        p99_boot_ms=to_milliseconds(
            stats.admission_latency_percentile(99)),
        duration_s=stats.duration_s,
        conserved=_conserved(federation),
    )
    if reports:
        cell.drain_committed = all(r.committed for r in reports)
        cell.drain_aborted = any(r.aborted for r in reports)
        cell.abort_reason = next(
            (r.abort_reason for r in reports if r.aborted), "")
        cell.segments_moved = sum(r.segments_moved for r in reports)
        cell.bytes_moved = sum(r.bytes_moved for r in reports)
        cell.tenants_migrated = sum(r.tenants_migrated for r in reports)
        cell.rollback_moves = sum(r.rollback_moves for r in reports)
        cell.verify_failures = sum(r.verify_failures for r in reports)
        cell.racks_retired = sum(len(r.racks_retired) for r in reports)
        cell.drain_duration_s = sum(r.duration_s for r in reports)
    if injector is not None:
        cell.fault_count = injector.metrics.fault_count()
        cell.domain_outages = injector.domain_outages_fired
    return cell


def run_maintenance(seed: int = 2018,
                    drain: Optional[str] = None,
                    hazard: Optional[str] = None,
                    domains: Optional[str] = None,
                    workers: Optional[int] = None,
                    sync_window: Optional[float] = None,
                    topology: Optional[str] = None
                    ) -> MaintenanceResult:
    """Baseline vs drain vs drain-under-correlated-faults.

    The topology, the correlated domain layers and the rolling-drain
    schedule all come compiled from one spec (*topology*, the CLI
    ``--topology`` flag; default template ``M``).  *drain* (``--drain``)
    overrides the schedule to a single drain of the named pod at the
    spec's first window time; *hazard* (``--hazard``,
    ``weibull:<scale>:<shape>`` or ``exponential:<mean>``) overrides
    the background domains' inter-arrival distribution; *domains*
    (``--domains``: ``rack-power``, ``pod-network`` or ``both``)
    filters which of the spec's domain layers fail in the drain+faults
    cell.
    """
    if workers is not None or sync_window is not None:
        raise ConfigurationError(
            "the maintenance study only runs on the serial federation "
            "backend: the drain supervisor and domain faults reach "
            "into pod internals that are process-local under "
            "--workers; drop --workers/--sync-window here")
    spec = load_spec(topology if topology is not None
                     else DEFAULT_TOPOLOGY)
    domain_set = domains if domains is not None else "rack-power"
    if domain_set not in DOMAIN_SETS:
        raise ConfigurationError(
            f"unknown domain set {domain_set!r}; known: "
            f"{', '.join(DOMAIN_SETS)}")
    kinds = None if domain_set == "both" else (domain_set,)
    hazard_fn = coerce_hazard(hazard) if hazard is not None else None

    # The drain schedule is the spec's; --drain (or a spec with no
    # windows) replaces it with a single drain of the named pod.
    drain_at_s = (spec.maintenance[0].at_s if spec.maintenance
                  else DRAIN_AT_S)
    drain_pod = drain if drain is not None else (
        spec.maintenance[0].pod if spec.maintenance else DRAIN_POD)
    if not drain_pod.startswith("pod"):
        raise ConfigurationError(
            f"--drain must name a pod (pod0..pod{spec.pods - 1}), "
            f"got {drain_pod!r}")
    if drain is not None or not spec.maintenance:
        spec = spec.override(maintenance={"windows": [
            {"pod": drain_pod, "at_s": drain_at_s}]})

    result = MaintenanceResult(
        tenant_count=TENANT_COUNT,
        arrival_rate_hz=ARRIVAL_RATE_HZ,
        drain_pod=drain_pod,
        pod_count=spec.pods,
        drain_at_s=drain_at_s,
    )
    result.cells.append(_run_cell(spec, "baseline", seed))
    result.cells.append(_run_cell(spec, "drain", seed, drain=True))
    result.cells.append(_run_cell(
        spec, "drain+faults", seed, drain=True, faults=True,
        kinds=kinds, hazard=hazard_fn))
    return result
