"""System-wide resource inventory and availability accounting.

The registry is the SDM controller's world model: which bricks exist,
their capacities, which rack holds them, and what is currently reserved.
Memory bricks carry a :class:`~repro.memory.allocator.SegmentAllocator`;
compute bricks are tracked through their kernels/hypervisors.  Entries
record their rack so placement can score interconnect distance at pod
scale; single-rack deployments may leave ``rack_id`` empty.

**Capacity index.**  Placement asks for availability snapshots on every
request, but a request changes one or two bricks.  The registry
therefore keeps one snapshot per brick and rebuilds only the *dirty*
ones.  A brick is marked dirty by everything a snapshot field reads:

* its power state (:class:`~repro.hardware.power.Powered`);
* the hypervisor's VM set (spawn, terminate, evict, adopt);
* the kernel's RAM reservation and the hotplug online section count;
* the memory allocator (every allocate and free);
* the registry's own ``failed`` flag and lifecycle transitions.

The first four notify through :class:`~repro.watch.Watched`; the
registry subscribes at registration.  :meth:`ResourceRegistry.
check_index` compares every cached snapshot with a full rescan, and
``audit_index = True`` runs it before every query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from repro.errors import OrchestrationError
from repro.hardware.bricks import ComputeBrick, MemoryBrick
from repro.hardware.power import PowerState
from repro.memory.allocator import SegmentAllocator
from repro.orchestration.lifecycle import BrickLifecycle, BrickState
from repro.software.agent import SdmAgent
from repro.software.hypervisor import Hypervisor
from repro.software.pages import DEFAULT_SECTION_BYTES
from repro.watch import Watched


@dataclass
class ComputeEntry:
    """Registry record of one compute brick."""

    brick: ComputeBrick
    hypervisor: Hypervisor
    agent: SdmAgent
    #: Rack holding the brick ("" in single-rack deployments that never
    #: told the registry about topology).
    rack_id: str = ""
    #: Ironic-style provisioning state; only ``active`` bricks receive
    #: new placements.  Registration walks it straight to active so the
    #: default flow is unchanged.
    lifecycle: BrickLifecycle = field(default=None)  # type: ignore[assignment]
    _failed: bool = field(default=False, init=False, repr=False)

    @property
    def failed(self) -> bool:
        """True while the brick (or its rack's uplink) has failed;
        failed bricks are excluded from placement until repaired.
        Only the registry writes it, so the capacity index sees every
        change."""
        return self._failed


@dataclass
class MemoryEntry:
    """Registry record of one memory brick."""

    brick: MemoryBrick
    allocator: SegmentAllocator
    rack_id: str = ""
    #: Ironic-style provisioning state (see :mod:`repro.orchestration.
    #: lifecycle`); the allocator's ``accepting`` gate shadows it.
    lifecycle: BrickLifecycle = field(default=None)  # type: ignore[assignment]
    _failed: bool = field(default=False, init=False, repr=False)

    @property
    def failed(self) -> bool:
        """True while the brick has failed or is unreachable; such
        bricks never host new segments.  Only the registry writes it,
        so the capacity index sees every change."""
        return self._failed


@dataclass(frozen=True, slots=True)
class ComputeAvailability:
    """Snapshot of a compute brick's free capacity."""

    brick_id: str
    free_cores: int
    free_ram_bytes: int
    powered: bool
    hosts_vms: bool
    rack_id: str = ""


@dataclass(frozen=True, slots=True)
class MemoryAvailability:
    """Snapshot of a memory brick's free capacity."""

    brick_id: str
    free_bytes: int
    largest_span_bytes: int
    utilization: float
    powered: bool
    rack_id: str = ""


def _compute_snapshot(entry: ComputeEntry) -> Optional[ComputeAvailability]:
    """*entry*'s snapshot, ``None`` when it takes no placements."""
    if entry.failed or not entry.lifecycle.placeable:
        return None
    hypervisor = entry.hypervisor
    return ComputeAvailability(
        brick_id=entry.brick.brick_id,
        free_cores=entry.brick.core_count - hypervisor.cores_in_use(),
        free_ram_bytes=hypervisor.kernel.available_bytes,
        powered=entry.brick.is_powered,
        hosts_vms=hypervisor.hosts_vms,
        rack_id=entry.rack_id,
    )


def _memory_snapshot(entry: MemoryEntry) -> Optional[MemoryAvailability]:
    """*entry*'s snapshot, ``None`` when it takes no placements."""
    if entry.failed or not entry.lifecycle.placeable:
        return None
    return MemoryAvailability(
        brick_id=entry.brick.brick_id,
        free_bytes=entry.allocator.free_bytes,
        largest_span_bytes=entry.allocator.largest_free_span,
        utilization=entry.allocator.utilization,
        powered=entry.brick.is_powered,
        rack_id=entry.rack_id,
    )


def _fragmentation(entry: MemoryEntry) -> Optional[float]:
    """*entry*'s free-space fragmentation, ``None`` when failed."""
    return None if entry.failed else entry.allocator.fragmentation


class ResourceRegistry(Watched):
    """Inventory of every brick the SDM controller manages.

    Registering a brick notifies the registry's own watchers (derived
    per-rack maps, such as the sharded controller's, rebuild then).
    """

    def __init__(self, segment_alignment: int = DEFAULT_SECTION_BYTES) -> None:
        self.segment_alignment = segment_alignment
        self._compute: dict[str, ComputeEntry] = {}
        self._memory: dict[str, MemoryEntry] = {}
        #: When True every availability query first runs
        #: :meth:`check_index` (a test and smoke-bench aid).
        self.audit_index = False
        # The capacity index (see the module docstring).  Snapshot dicts
        # keep registration order; ``None`` marks a brick that takes no
        # placements.  The dirty sets are filled by watcher callbacks,
        # so they are cleared in place, never rebound.
        self._compute_snapshots: dict[str, Optional[ComputeAvailability]] = {}
        self._compute_view: list[ComputeAvailability] = []
        self._compute_dirty: set[str] = set()
        self._memory_snapshots: dict[str, Optional[MemoryAvailability]] = {}
        self._memory_fragmentation: dict[str, Optional[float]] = {}
        self._memory_view: list[MemoryAvailability] = []
        self._mean_fragmentation = 0.0
        self._memory_dirty: set[str] = set()

    # -- registration -------------------------------------------------------------

    def register_compute(self, brick: ComputeBrick, hypervisor: Hypervisor,
                         agent: SdmAgent, rack_id: str = "") -> ComputeEntry:
        brick_id = brick.brick_id
        if brick_id in self._compute:
            raise OrchestrationError(
                f"compute brick {brick_id} already registered")
        entry = ComputeEntry(brick, hypervisor, agent, rack_id=rack_id)
        entry.lifecycle = BrickLifecycle(brick_id)
        entry.lifecycle.activate()
        self._compute[brick_id] = entry
        self._compute_snapshots[brick_id] = None
        mark = partial(self._compute_dirty.add, brick_id)
        for source in (brick, hypervisor, hypervisor.kernel,
                       hypervisor.kernel.hotplug):
            source.add_watcher(mark)
        mark()
        self._changed()
        return entry

    def register_memory(self, brick: MemoryBrick,
                        rack_id: str = "") -> MemoryEntry:
        brick_id = brick.brick_id
        if brick_id in self._memory:
            raise OrchestrationError(
                f"memory brick {brick_id} already registered")
        allocator = SegmentAllocator(
            brick.capacity_bytes, alignment=self.segment_alignment)
        entry = MemoryEntry(brick, allocator, rack_id=rack_id)
        entry.lifecycle = BrickLifecycle(brick_id)
        entry.lifecycle.activate()
        self._memory[brick_id] = entry
        self._memory_snapshots[brick_id] = None
        self._memory_fragmentation[brick_id] = None
        mark = partial(self._memory_dirty.add, brick_id)
        brick.add_watcher(mark)
        allocator.add_watcher(mark)
        mark()
        self._changed()
        return entry

    # -- lookups ----------------------------------------------------------------------

    def compute(self, brick_id: str) -> ComputeEntry:
        try:
            return self._compute[brick_id]
        except KeyError:
            raise OrchestrationError(
                f"unknown compute brick {brick_id!r}") from None

    def memory(self, brick_id: str) -> MemoryEntry:
        try:
            return self._memory[brick_id]
        except KeyError:
            raise OrchestrationError(
                f"unknown memory brick {brick_id!r}") from None

    def rack_of(self, brick_id: str) -> str:
        """Rack holding *brick_id* (compute or memory), "" if untagged."""
        entry = self._compute.get(brick_id) or self._memory.get(brick_id)
        if entry is None:
            raise OrchestrationError(f"unknown brick {brick_id!r}")
        return entry.rack_id

    @property
    def compute_entries(self) -> list[ComputeEntry]:
        return list(self._compute.values())

    @property
    def memory_entries(self) -> list[MemoryEntry]:
        return list(self._memory.values())

    # -- availability snapshots ---------------------------------------------------------

    def compute_availability(self) -> list[ComputeAvailability]:
        """Free capacity of every healthy compute brick, in
        registration order (a fresh list the caller may modify)."""
        if self.audit_index:
            self.check_index()
        if self._compute_dirty:
            self._refresh_compute()
        return self._compute_view.copy()

    def memory_availability(self) -> list[MemoryAvailability]:
        """Free capacity of every healthy memory brick, in
        registration order (a fresh list the caller may modify)."""
        if self.audit_index:
            self.check_index()
        if self._memory_dirty:
            self._refresh_memory()
        return self._memory_view.copy()

    def mean_fragmentation(self) -> float:
        """Mean free-space fragmentation across memory bricks that have
        not failed (lifecycle-parked ones included); 0 when none."""
        if self.audit_index:
            self.check_index()
        if self._memory_dirty:
            self._refresh_memory()
        return self._mean_fragmentation

    def _refresh_compute(self) -> None:
        snapshots = self._compute_snapshots
        for brick_id in self._compute_dirty:
            snapshots[brick_id] = _compute_snapshot(self._compute[brick_id])
        self._compute_dirty.clear()
        self._compute_view = [s for s in snapshots.values()
                              if s is not None]

    def _refresh_memory(self) -> None:
        snapshots = self._memory_snapshots
        fragmentation = self._memory_fragmentation
        for brick_id in self._memory_dirty:
            entry = self._memory[brick_id]
            snapshots[brick_id] = _memory_snapshot(entry)
            fragmentation[brick_id] = _fragmentation(entry)
        self._memory_dirty.clear()
        self._memory_view = [s for s in snapshots.values() if s is not None]
        values = [f for f in fragmentation.values() if f is not None]
        self._mean_fragmentation = (sum(values) / len(values)
                                    if values else 0.0)

    def check_index(self) -> None:
        """Audit the capacity index against a full rescan.

        Raises :class:`~repro.errors.OrchestrationError` naming the
        first brick whose cached snapshot (or fragmentation) differs
        from the one a rescan builds — a mutation that bypassed the
        dirty marking.  Dirty bricks are refreshed first, exactly as a
        query would.
        """
        self._refresh_compute()
        self._refresh_memory()
        stale = [
            (brick_id, self._compute_snapshots[brick_id], fresh)
            for brick_id, entry in self._compute.items()
            if (fresh := _compute_snapshot(entry))
            != self._compute_snapshots[brick_id]]
        stale += [
            (brick_id, self._memory_snapshots[brick_id], fresh)
            for brick_id, entry in self._memory.items()
            if (fresh := _memory_snapshot(entry))
            != self._memory_snapshots[brick_id]]
        stale += [
            (brick_id, self._memory_fragmentation[brick_id], fresh)
            for brick_id, entry in self._memory.items()
            if (fresh := _fragmentation(entry))
            != self._memory_fragmentation[brick_id]]
        if stale:
            brick_id, cached, fresh = stale[0]
            raise OrchestrationError(
                f"capacity index is stale for {brick_id}: cached "
                f"{cached!r}, rescan {fresh!r} ({len(stale)} stale "
                f"record(s))")

    # -- lifecycle ------------------------------------------------------------------

    def transition_memory(self, brick_id: str,
                          state: BrickState) -> MemoryEntry:
        """Legal-checked lifecycle transition for a memory brick.

        Syncs the allocator's ``accepting`` gate with the new state and
        powers the brick down when it enters maintenance (the TCO lever:
        a serviced brick draws no power) and back up when it returns to
        the available pool.
        """
        entry = self.memory(brick_id)
        entry.lifecycle.transition(state)
        self._memory_dirty.add(brick_id)
        entry.allocator.accepting = entry.lifecycle.accepting
        if state is BrickState.MAINTENANCE:
            entry.brick.power_off()
        elif state is BrickState.AVAILABLE:
            entry.brick.power_on()
        return entry

    def transition_compute(self, brick_id: str,
                           state: BrickState) -> ComputeEntry:
        """Legal-checked lifecycle transition for a compute brick."""
        entry = self.compute(brick_id)
        entry.lifecycle.transition(state)
        self._compute_dirty.add(brick_id)
        return entry

    def lifecycle_of(self, brick_id: str) -> BrickLifecycle:
        """Lifecycle record for any registered brick."""
        entry = self._compute.get(brick_id) or self._memory.get(brick_id)
        if entry is None:
            raise OrchestrationError(f"unknown brick {brick_id!r}")
        return entry.lifecycle

    def _set_memory_failed(self, brick_id: str, failed: bool) -> MemoryEntry:
        entry = self.memory(brick_id)
        entry._failed = failed
        self._memory_dirty.add(brick_id)
        return entry

    def _set_compute_failed(self, brick_id: str,
                            failed: bool) -> ComputeEntry:
        entry = self.compute(brick_id)
        entry._failed = failed
        self._compute_dirty.add(brick_id)
        return entry

    def mark_memory_failed(self, brick_id: str) -> MemoryEntry:
        """Exclude a failed memory brick from all future placement."""
        entry = self._set_memory_failed(brick_id, True)
        entry.brick.power_off()
        return entry

    def restore_memory(self, brick_id: str) -> MemoryEntry:
        """Return a repaired memory brick to the placement pool."""
        entry = self._set_memory_failed(brick_id, False)
        entry.brick.power_on()
        return entry

    def mark_memory_unreachable(self, brick_id: str) -> MemoryEntry:
        """Exclude a healthy but cut-off memory brick from placement.

        Unlike :meth:`mark_memory_failed` the brick keeps its content
        and its power: only its rack's uplink is down.
        """
        return self._set_memory_failed(brick_id, True)

    def mark_memory_reachable(self, brick_id: str) -> MemoryEntry:
        """Undo :meth:`mark_memory_unreachable` (no power change)."""
        return self._set_memory_failed(brick_id, False)

    def mark_compute_failed(self, brick_id: str) -> ComputeEntry:
        """Exclude a failed compute brick from all future placement.

        The brick keeps its registered state (hypervisor, VMs) — a
        repaired brick resumes serving its tenants where it stopped —
        but no new placement lands on it while failed.
        """
        return self._set_compute_failed(brick_id, True)

    def restore_compute(self, brick_id: str) -> ComputeEntry:
        """Return a repaired compute brick to the placement pool."""
        return self._set_compute_failed(brick_id, False)

    # -- power management ------------------------------------------------------------------

    def power_off_idle_bricks(self) -> list[str]:
        """Power down every brick with no allocation; returns their ids.

        This is the TCO lever of §VI: "evaluate the number of unutilized
        individually powered units that can be powered off".
        """
        powered_off: list[str] = []
        for entry in self._compute.values():
            if not entry.hypervisor.hosts_vms and entry.brick.is_powered:
                entry.brick.power_off()
                powered_off.append(entry.brick.brick_id)
        for entry in self._memory.values():
            if entry.allocator.allocation_count == 0 and entry.brick.is_powered:
                entry.brick.power_off()
                powered_off.append(entry.brick.brick_id)
        return powered_off

    def ensure_powered(self, brick_id: str) -> bool:
        """Power a brick on if needed; returns True when it was off."""
        if brick_id in self._compute:
            brick = self._compute[brick_id].brick
        elif brick_id in self._memory:
            brick = self._memory[brick_id].brick
        else:
            raise OrchestrationError(f"unknown brick {brick_id!r}")
        was_off = brick.power_state is PowerState.OFF
        brick.power_on()
        return was_off
