"""Non-gating CI smoke for the fault-injection tier.

The full availability sweep runs nine traced cells; this smoke runs
only the deterministic scripted-outage pair (every fault class fires
exactly once on a fixed clock, no MTBF sampling) and asserts the
headline: self-healing cuts tenant-seconds of unavailability by at
least the >= 5x target.  Wired as its own non-gating CI job alongside
the federation smoke; see `.github/workflows/ci.yml`.
"""

from __future__ import annotations

from repro.experiments.availability import (
    HEADLINE_SPEEDUP,
    SCRIPTED_OUTAGES,
    _run_cell,
    _scripted_plan,
)
from repro.topology import template


def test_availability_scripted_smoke():
    # audit_index: every availability query first checks each pod's
    # capacity index and shard maps against a full rescan.
    healed = _run_cell(template("M"), "scripted", True, 2018,
                       plan=_scripted_plan(), classes=(), audit_index=True)
    unhealed = _run_cell(template("M"), "scripted", False, 2018,
                         plan=_scripted_plan(), classes=(),
                         audit_index=True)

    # Every scripted outage fired, in both modes.
    assert healed.faults == len(SCRIPTED_OUTAGES)
    assert unhealed.faults == len(SCRIPTED_OUTAGES)

    # The headline, free of MTBF sampling variance: reactions beat
    # waiting out the hardware repair by the acceptance target.
    assert unhealed.downtime_ts >= (HEADLINE_SPEEDUP
                                    * healed.downtime_ts)

    # Pod loss was healed through the ledger, and every attempted
    # re-admission landed (the sweep runs with capacity headroom).
    assert healed.readmissions > 0
    assert healed.readmission_failures == 0

    # Both modes served the identical offered load to completion.
    assert healed.admitted + healed.rejected == unhealed.admitted + \
        unhealed.rejected
