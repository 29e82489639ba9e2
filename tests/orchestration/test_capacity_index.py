"""The registry's capacity index and the sharded controller's rack maps.

The registry caches one availability snapshot per brick and rebuilds
only bricks marked dirty; the sharded controller caches its rack ->
shard maps until a registration or a shard failure/restore.  These
tests hold both caches to a from-scratch reference after every kind of
mutation:

* unit tests of the index contract (order, fresh lists, read-only
  ``failed``, the audit catching a mutation that bypasses the marking);
* a hypothesis state machine over random sequences of spawn,
  terminate, scale-up/down, migration, direct allocate/free, direct
  RAM reserve/release, direct hotplug online/offline, brick failure
  and unreachability, lifecycle transitions, power changes and shard
  failure/restore, auditing the index after every step;
* ``shard_of_rack``/``rack_is_served`` against an independent
  re-implementation of the takeover ring across ``fail_shard`` and
  ``restore_shard``.
"""

from __future__ import annotations

import bisect
import zlib

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.builder import PodBuilder
from repro.errors import OrchestrationError, ReproError
from repro.orchestration.lifecycle import LEGAL_TRANSITIONS, BrickState
from repro.orchestration.registry import (
    ComputeAvailability,
    MemoryAvailability,
)
from repro.orchestration.requests import VmAllocationRequest
from repro.orchestration.sharding import RING_REPLICAS
from repro.units import gib, mib

SECTION = mib(128)


def build_pod(racks=3, shard_count=None):
    return (PodBuilder("idx")
            .with_racks(racks)
            .with_compute_bricks(2, cores=4, local_memory=gib(2))
            .with_memory_bricks(1, modules=2, module_size=gib(2))
            .with_section_size(SECTION)
            .with_controller_shards(shard_count)
            .build())


# -- from-scratch references (the pre-index implementation) ----------------

def rescan_compute(registry) -> list[ComputeAvailability]:
    return [
        ComputeAvailability(
            brick_id=e.brick.brick_id,
            free_cores=e.brick.core_count - e.hypervisor.cores_in_use(),
            free_ram_bytes=e.hypervisor.kernel.available_bytes,
            powered=e.brick.is_powered,
            hosts_vms=bool(e.hypervisor.vms),
            rack_id=e.rack_id)
        for e in registry.compute_entries
        if not e.failed and e.lifecycle.placeable]


def rescan_memory(registry) -> list[MemoryAvailability]:
    return [
        MemoryAvailability(
            brick_id=e.brick.brick_id,
            free_bytes=e.allocator.free_bytes,
            largest_span_bytes=e.allocator.largest_free_span,
            utilization=e.allocator.utilization,
            powered=e.brick.is_powered,
            rack_id=e.rack_id)
        for e in registry.memory_entries
        if not e.failed and e.lifecycle.placeable]


def rescan_fragmentation(registry) -> float:
    entries = [e for e in registry.memory_entries if not e.failed]
    if not entries:
        return 0.0
    return sum(e.allocator.fragmentation for e in entries) / len(entries)


def reference_shard(sdm, rack_id: str, failed: dict[str, bool]) -> str:
    """Round-robin home shard, or the CRC32 ring's takeover shard."""
    registry = sdm.registry
    racks = sorted({e.rack_id for e in registry.compute_entries}
                   | {e.rack_id for e in registry.memory_entries})
    count = sdm._shard_count or max(1, len(racks))
    home = {rack: f"shard{index % count}"
            for index, rack in enumerate(racks)}
    shard = home.get(rack_id, "shard0")
    if not failed.get(shard, False):
        return shard
    live = sorted(set(home.values()) - set(failed))
    if not live:
        raise OrchestrationError("every controller shard is down")
    ring = sorted((zlib.crc32(f"{name}#{replica}".encode("utf-8")), name)
                  for name in live for replica in range(RING_REPLICAS))
    point = zlib.crc32(rack_id.encode("utf-8"))
    return ring[bisect.bisect_left(ring, (point, "")) % len(ring)][1]


def assert_matches_rescan(sdm) -> None:
    registry = sdm.registry
    sdm.check_index()
    assert registry.compute_availability() == rescan_compute(registry)
    assert registry.memory_availability() == rescan_memory(registry)
    assert registry.mean_fragmentation() == rescan_fragmentation(registry)


def assert_shards_match_reference(sdm) -> None:
    failed = {name: sdm._failed_shards[name] for name in sdm.failed_shards}
    racks = sorted(rack for racks in sdm.shard_members().values()
                   for rack in racks)
    for rack_id in racks + ["unknown-rack"]:
        try:
            expected = reference_shard(sdm, rack_id, failed)
        except OrchestrationError:
            with pytest.raises(OrchestrationError, match="every"):
                sdm.shard_of_rack(rack_id)
            continue
        assert sdm.shard_of_rack(rack_id) == expected, rack_id
        assert sdm.rack_is_served(rack_id) == (expected not in failed)
    sdm.check_index()


# -- the index contract -------------------------------------------------------

class TestIndexContract:
    def test_snapshots_follow_boots_and_terminations(self):
        system = build_pod()
        registry = system.sdm.registry
        assert_matches_rescan(system.sdm)
        info = system.boot_vm(VmAllocationRequest(
            "vm-0", vcpus=2, ram_bytes=gib(3)))
        assert_matches_rescan(system.sdm)
        hosted = {c.brick_id: c for c in registry.compute_availability()}
        assert hosted[info.brick_id].hosts_vms
        assert hosted[info.brick_id].free_cores == 2
        system.terminate_vm("vm-0")
        assert_matches_rescan(system.sdm)

    def test_registration_order_and_fresh_lists(self):
        registry = build_pod().sdm.registry
        first = registry.compute_availability()
        assert [c.brick_id for c in first] == [
            e.brick.brick_id for e in registry.compute_entries]
        first.clear()
        assert len(registry.compute_availability()) == 6
        memory = registry.memory_availability()
        memory.sort(key=lambda m: m.brick_id, reverse=True)
        assert [m.brick_id for m in registry.memory_availability()] == [
            e.brick.brick_id for e in registry.memory_entries]

    def test_failed_flag_is_owned_by_the_registry(self):
        registry = build_pod().sdm.registry
        entry = registry.memory_entries[0]
        with pytest.raises(AttributeError):
            entry.failed = True
        brick_id = entry.brick.brick_id
        registry.mark_memory_unreachable(brick_id)
        assert entry.failed and entry.brick.is_powered
        assert brick_id not in {
            m.brick_id for m in registry.memory_availability()}
        registry.mark_memory_reachable(brick_id)
        assert not entry.failed and entry.brick.is_powered
        registry.mark_memory_failed(brick_id)
        assert entry.failed and not entry.brick.is_powered
        registry.restore_memory(brick_id)
        assert brick_id in {
            m.brick_id for m in registry.memory_availability()}

    def test_audit_catches_a_mutation_that_bypasses_the_marking(self):
        system = build_pod()
        registry = system.sdm.registry
        registry.compute_availability()
        kernel = system.stacks[0].kernel
        kernel._reserved_bytes += gib(1)  # white-box: no notification
        with pytest.raises(OrchestrationError, match="stale"):
            registry.check_index()

    def test_audit_mode_checks_before_every_query(self):
        system = build_pod()
        registry = system.sdm.registry
        registry.audit_index = True
        registry.memory_availability()
        allocator = registry.memory_entries[0].allocator
        allocator._allocated_bytes += SECTION  # white-box: no notification
        with pytest.raises(OrchestrationError, match="stale"):
            registry.memory_availability()

    def test_mean_fragmentation_counts_parked_but_not_failed_bricks(self):
        system = build_pod()
        registry = system.sdm.registry
        ids = [e.brick.brick_id for e in registry.memory_entries]
        allocator = registry.memory(ids[0]).allocator
        offsets = [allocator.allocate(SECTION) for _ in range(4)]
        allocator.free(offsets[1])
        assert registry.mean_fragmentation() == rescan_fragmentation(
            registry) > 0
        registry.transition_memory(ids[0], BrickState.DRAINING)
        assert registry.mean_fragmentation() == rescan_fragmentation(
            registry) > 0
        registry.mark_memory_failed(ids[0])
        assert registry.mean_fragmentation() == 0.0

    def test_idle_power_off_uses_presence_not_the_vm_list(self):
        system = build_pod()
        system.boot_vm(VmAllocationRequest("vm-0", vcpus=1,
                                           ram_bytes=gib(1)))
        host = system.hosting("vm-0").brick_id
        powered_off = system.sdm.registry.power_off_idle_bricks()
        assert host not in powered_off
        assert_matches_rescan(system.sdm)


# -- the random-walk property -------------------------------------------------

class CapacityIndexMachine(RuleBasedStateMachine):
    """Random mutations of a three-rack, three-shard pod; the index must
    equal a from-scratch rescan after every step."""

    def __init__(self):
        super().__init__()
        self.system = build_pod()
        self.sdm = self.system.sdm
        self.registry = self.sdm.registry
        self.vm_counter = 0
        self.live_vms: list[str] = []
        self.segments: dict[str, list[str]] = {}
        #: (memory brick id, offset) of direct allocator grants.
        self.grants: list[tuple[str, int]] = []
        #: (compute brick id, base) of directly hotplugged ranges.
        self.hotplugged: list[tuple[str, int]] = []
        #: Compute brick ids holding a direct one-section reservation.
        self.reservations: list[str] = []
        self.hotplug_base = 1 << 40

    def _compute_ids(self):
        return [e.brick.brick_id for e in self.registry.compute_entries]

    def _memory_ids(self):
        return [e.brick.brick_id for e in self.registry.memory_entries]

    # -- tenant operations ----------------------------------------------------

    @rule(vcpus=st.integers(1, 3), ram_gib=st.integers(1, 3))
    def spawn(self, vcpus, ram_gib):
        vm_id = f"vm-{self.vm_counter}"
        self.vm_counter += 1
        try:
            self.system.boot_vm(VmAllocationRequest(
                vm_id, vcpus=vcpus, ram_bytes=gib(ram_gib)))
        except ReproError:
            return
        self.live_vms.append(vm_id)
        self.segments[vm_id] = []

    @precondition(lambda self: self.live_vms)
    @rule(data=st.data())
    def terminate(self, data):
        vm_id = data.draw(st.sampled_from(self.live_vms))
        self.system.terminate_vm(vm_id)
        self.live_vms.remove(vm_id)
        del self.segments[vm_id]

    @precondition(lambda self: self.live_vms)
    @rule(data=st.data())
    def scale_up(self, data):
        vm_id = data.draw(st.sampled_from(self.live_vms))
        try:
            result = self.system.scale_up(vm_id, SECTION)
        except ReproError:
            return
        self.segments[vm_id].append(result.segment.segment_id)

    @precondition(lambda self: any(self.segments.values()))
    @rule(data=st.data())
    def scale_down(self, data):
        vm_id = data.draw(st.sampled_from(
            [v for v in self.live_vms if self.segments[v]]))
        segment_id = self.segments[vm_id].pop()
        try:
            self.system.scale_down(vm_id, segment_id)
        except ReproError:
            self.segments[vm_id].append(segment_id)

    @precondition(lambda self: self.live_vms)
    @rule(data=st.data())
    def migrate(self, data):
        vm_id = data.draw(st.sampled_from(self.live_vms))
        target = data.draw(st.sampled_from(self._compute_ids()))
        try:
            self.system.migrate_vm(vm_id, target)
        except ReproError:
            pass

    # -- direct allocator and hotplug mutations -------------------------------

    @rule(data=st.data(), sections=st.integers(1, 4))
    def allocate(self, data, sections):
        brick_id = data.draw(st.sampled_from(self._memory_ids()))
        try:
            offset = self.registry.memory(brick_id).allocator.allocate(
                sections * SECTION)
        except ReproError:
            return
        self.grants.append((brick_id, offset))

    @precondition(lambda self: self.grants)
    @rule(data=st.data())
    def free(self, data):
        grant = data.draw(st.sampled_from(self.grants))
        self.grants.remove(grant)
        self.registry.memory(grant[0]).allocator.free(grant[1])

    @rule(data=st.data())
    def hotplug_online(self, data):
        brick_id = data.draw(st.sampled_from(self._compute_ids()))
        hotplug = self.registry.compute(brick_id).hypervisor.kernel.hotplug
        base = self.hotplug_base
        self.hotplug_base += SECTION
        hotplug.add_memory(base, SECTION)
        hotplug.online(base, SECTION)
        self.hotplugged.append((brick_id, base))

    @precondition(lambda self: self.hotplugged)
    @rule(data=st.data())
    def hotplug_offline(self, data):
        brick_id, base = data.draw(st.sampled_from(self.hotplugged))
        kernel = self.registry.compute(brick_id).hypervisor.kernel
        if kernel.available_bytes < SECTION:
            return  # guests lean on it; the kernel would refuse
        self.hotplugged.remove((brick_id, base))
        kernel.hotplug.offline(base, SECTION)
        kernel.hotplug.remove_memory(base, SECTION)

    @rule(data=st.data())
    def reserve_ram(self, data):
        brick_id = data.draw(st.sampled_from(self._compute_ids()))
        kernel = self.registry.compute(brick_id).hypervisor.kernel
        try:
            kernel.reserve_ram(SECTION)
        except ReproError:
            return
        self.reservations.append(brick_id)

    @precondition(lambda self: self.reservations)
    @rule(data=st.data())
    def release_ram(self, data):
        brick_id = data.draw(st.sampled_from(self.reservations))
        self.reservations.remove(brick_id)
        self.registry.compute(brick_id).hypervisor.kernel.release_ram(
            SECTION)

    # -- failure, reachability, lifecycle, power ----------------------------

    @rule(data=st.data(), failed=st.booleans())
    def memory_failure(self, data, failed):
        brick_id = data.draw(st.sampled_from(self._memory_ids()))
        if failed:
            self.registry.mark_memory_failed(brick_id)
        else:
            self.registry.restore_memory(brick_id)

    @rule(data=st.data(), reachable=st.booleans())
    def memory_reachability(self, data, reachable):
        brick_id = data.draw(st.sampled_from(self._memory_ids()))
        if reachable:
            self.registry.mark_memory_reachable(brick_id)
        else:
            self.registry.mark_memory_unreachable(brick_id)

    @rule(data=st.data(), failed=st.booleans())
    def compute_failure(self, data, failed):
        brick_id = data.draw(st.sampled_from(self._compute_ids()))
        if failed:
            self.registry.mark_compute_failed(brick_id)
        else:
            self.registry.restore_compute(brick_id)

    @rule(data=st.data(), memory=st.booleans())
    def lifecycle_transition(self, data, memory):
        ids = self._memory_ids() if memory else self._compute_ids()
        brick_id = data.draw(st.sampled_from(ids))
        state = self.registry.lifecycle_of(brick_id).state
        target = data.draw(st.sampled_from(
            sorted(LEGAL_TRANSITIONS[state], key=lambda s: s.value)))
        if memory:
            self.registry.transition_memory(brick_id, target)
        else:
            self.registry.transition_compute(brick_id, target)

    @rule()
    def power_off_idle(self):
        self.registry.power_off_idle_bricks()

    @rule(data=st.data(), on=st.booleans())
    def power(self, data, on):
        brick_id = data.draw(st.sampled_from(
            self._compute_ids() + self._memory_ids()))
        if on:
            self.registry.ensure_powered(brick_id)
        else:
            bricks = self.system.compute_bricks + self.system.memory_bricks
            next(b for b in bricks if b.brick_id == brick_id).power_off()

    @rule(data=st.data(), takeover=st.booleans())
    def fail_shard(self, data, takeover):
        live = self.sdm.live_shards()
        if not live or (takeover and len(live) < 2):
            return
        self.sdm.fail_shard(data.draw(st.sampled_from(live)),
                            takeover=takeover)

    @precondition(lambda self: self.sdm.failed_shards)
    @rule(data=st.data())
    def restore_shard(self, data):
        self.sdm.restore_shard(data.draw(st.sampled_from(
            self.sdm.failed_shards)))

    # -- the invariant -------------------------------------------------------

    @invariant()
    def index_matches_rescan(self):
        assert_matches_rescan(self.sdm)
        assert_shards_match_reference(self.sdm)


TestCapacityIndexMachine = CapacityIndexMachine.TestCase
TestCapacityIndexMachine.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None)


# -- shard maps against the slow path -----------------------------------------

class TestShardMapsAgainstSlowPath:
    @pytest.mark.parametrize("shard_count", [None, 2, 3])
    def test_fail_and_restore_with_and_without_takeover(self, shard_count):
        sdm = build_pod(racks=5, shard_count=shard_count).sdm
        assert_shards_match_reference(sdm)
        names = sdm.shard_names()
        sdm.fail_shard(names[0], takeover=True)
        assert_shards_match_reference(sdm)
        sdm.fail_shard(names[1], takeover=False)
        assert_shards_match_reference(sdm)
        sdm.restore_shard(names[0])
        assert_shards_match_reference(sdm)
        sdm.restore_shard(names[1])
        assert_shards_match_reference(sdm)
        assert sdm.failed_shards == []

    def test_unserved_racks_drop_out_of_placement(self):
        system = build_pod(racks=3)
        sdm = system.sdm
        dead = sdm.shard_of_rack("idx.rack1")
        sdm.fail_shard(dead, takeover=False)
        info = system.boot_vm(VmAllocationRequest(
            "vm-0", vcpus=1, ram_bytes=gib(1)))
        assert sdm.registry.rack_of(info.brick_id) != "idx.rack1"
        sdm.restore_shard(dead)
        assert_shards_match_reference(sdm)

    def test_registration_rebuilds_the_maps(self):
        sdm = build_pod(racks=2).sdm
        assert sdm.shard_names() == ["shard0", "shard1"]
        system = build_pod(racks=3)
        stack = system.stacks[-1]
        sdm.registry.register_compute(stack.brick, stack.hypervisor,
                                      stack.agent, rack_id="idx.rack9")
        assert sdm.shard_names() == ["shard0", "shard1", "shard2"]
        assert_shards_match_reference(sdm)
