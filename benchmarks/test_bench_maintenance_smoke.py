"""Non-gating CI smoke for the rolling-maintenance tier.

The full maintenance bench runs the three-cell study and writes the
artifact; this smoke runs only the drain and drain+faults cells
head-to-head and asserts the two headlines — the drain commits with
full admission, and the scripted correlated outage aborts with
conservation holding.  Wired as its own non-gating CI job alongside
the availability and federation smokes; see
`.github/workflows/ci.yml`.
"""

from __future__ import annotations

from repro.experiments.maintenance import _run_cell
from repro.topology import template


def test_maintenance_drain_smoke():
    # audit_index: every availability query first checks each pod's
    # capacity index and shard maps against a full rescan.
    drain = _run_cell(template("M"), "drain", 2018, drain=True,
                      audit_index=True)
    faulted = _run_cell(template("M"), "drain+faults", 2018,
                        drain=True, faults=True, audit_index=True)

    # The rolling drain committed both racks with zero rejections.
    assert drain.drain_committed, drain.abort_reason
    assert drain.racks_retired == 2
    assert drain.rejected == 0
    assert drain.tenants_migrated > 0
    assert drain.verify_failures == 0

    # The scripted in-scope outage fenced the drain deterministically.
    assert faulted.drain_aborted
    assert faulted.domain_outages >= 1
    assert "fault" in faulted.abort_reason

    # Both cells conserve capacity, holds and claims.
    assert drain.conserved and faulted.conserved

    # Identical offered load in both cells.
    assert drain.admitted + drain.rejected == \
        faulted.admitted + faulted.rejected
