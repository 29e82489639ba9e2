"""Non-gating CI smoke for DES kernel determinism.

Reduced versions of every ``kernel_bench`` workload shape, each run
twice at the same seed, asserting only the *determinism* contract:
both runs retire the same events, reach the same peak queue and end
in the same final clock and counters.  Throughput is deliberately not
asserted here — shared CI runners are too noisy; the trajectory lives
in ``BENCH_kernel.json`` and ``test_bench_kernel.py``.  Wired as its
own non-gating CI job alongside the other smokes; see
`.github/workflows/ci.yml`.
"""

from __future__ import annotations

import pytest

from repro.experiments.kernel_bench import (
    _run_admission,
    _run_engine_swarm,
    _run_federation,
)

SMOKE_SEED = 2018


@pytest.mark.parametrize("driver,kwargs", [
    (_run_engine_swarm, dict(population=5_000, events=10_000)),
    (_run_admission, dict(allocation_count=60)),
    (_run_federation, dict(tenant_count=40)),
], ids=["engine_swarm", "admission", "federation"])
def test_same_seed_runs_agree_on_final_state(driver, kwargs):
    first = driver(SMOKE_SEED, **kwargs)
    second = driver(SMOKE_SEED, **kwargs)

    events, _, peak, fingerprint = first
    assert events > 0
    # Same work retired, same high-water mark, same final state.
    assert (second[0], second[2], second[3]) == (events, peak, fingerprint)
