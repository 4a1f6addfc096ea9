"""Tests for the degradation ladder's simulator-tier report memo.

A memoized ``full``/``batched`` response must be exactly what a fresh
accelerator run of the same workload returns; the memo must be bypassed
while a fault plan is armed (every simulator-tier call draws faults live);
shared outputs must be read-only; and a ladder shared across many fleets
over one pool must stay bounded.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.serving import (
    DegradationLadder,
    FleetConfig,
    ServingConfig,
    TensaurusFleet,
    TensaurusServer,
    TIER_BATCHED,
    TIER_FULL,
    WorkloadPool,
    synthetic_trace,
)
from repro.serving.ladder import MEMO_METRIC
from repro.sim import Tensaurus, TensaurusConfig
from repro.sim.faults import FaultPlan

SEED = 41
SIM_TIERS = (TIER_FULL, TIER_BATCHED)


class CountingLadder(DegradationLadder):
    """A ladder that counts simulator-tier calls per accelerator."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sim_calls: Counter = Counter()

    def execute(self, tier, item, kernel, accelerator=None):
        if tier in SIM_TIERS:
            self.sim_calls[id(accelerator)] += 1
        return super().execute(tier, item, kernel, accelerator)


@pytest.fixture(scope="module")
def pool():
    return WorkloadPool(seed=SEED, variants=2)


def _trace(pool, seed, duration_s=0.3):
    return synthetic_trace(
        pool, duration_s=duration_s, base_rate=150.0, spike_factor=5.0,
        deadline_s=0.05, seed=seed, tenants=("acme", "beta"),
    )


def _fleet(pool, seed, plan=None, ladder=None):
    cfg = FleetConfig(seed=seed, shards=2, replicas_per_shard=2)
    return TensaurusFleet(
        cfg, fault_plan=plan, pool=pool, calibrate=False,
        ladder=ladder if ladder is not None else CountingLadder(),
    )


def _server(pool, seed, plan=None):
    return TensaurusServer(
        ServingConfig(seed=seed, replicas=2), fault_plan=plan,
        calibrate=False, pool=pool, ladder=CountingLadder(),
    )


def _digest(result):
    return (
        tuple(result.decision_log),
        tuple(r.log_row() for r in result.responses),
        tuple(sorted(result.counters.items())),
    )


def _accelerators(runner):
    if isinstance(runner, TensaurusFleet):
        return [
            acc for shard in runner.shards.values()
            for acc in shard.server.accelerators
        ]
    return list(runner.accelerators)


def _assert_matches_fresh(result, requests, pool, sim_config):
    by_rid = {req.request_id: req for req in requests}
    fresh = {}
    checked = 0
    for resp in result.responses:
        if resp.tier not in SIM_TIERS or resp.report is None:
            continue
        req = by_rid[resp.request_id]
        key = (req.workload, req.kernel, resp.tier)
        if key not in fresh:
            fresh[key] = pool[req.workload].run(
                req.kernel, Tensaurus(sim_config),
                compute_output=resp.tier == TIER_FULL,
            )
        want, got = fresh[key], resp.report
        assert (got.cycles, got.ops) == (want.cycles, want.ops)
        assert (got.tensor_bytes, got.matrix_bytes, got.output_bytes) == (
            want.tensor_bytes, want.matrix_bytes, want.output_bytes
        )
        assert got.detail == want.detail
        if want.output is None:
            assert got.output is None
        else:
            assert got.output.dtype == want.output.dtype
            assert got.output.shape == want.output.shape
            assert got.output.tobytes() == want.output.tobytes()
        checked += 1
    assert checked > 0


@pytest.mark.parametrize("kind", ["fleet", "server"])
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_memoized_responses_equal_fresh_runs(pool, kind, seed):
    build = _fleet if kind == "fleet" else _server
    requests = _trace(pool, seed)
    runner = build(pool, seed)
    first = runner.run_trace(requests)
    _assert_matches_fresh(first, requests, pool, runner.sim_config)
    # Served from the memo far more often than simulated.
    assert runner.ladder.memo_size < sum(runner.ladder.sim_calls.values())
    second = build(pool, seed).run_trace(requests)
    assert _digest(first) == _digest(second)


def test_warm_memo_leaves_the_decision_log_unchanged(pool):
    requests = _trace(pool, SEED)
    cold = _fleet(pool, SEED)
    first = cold.run_trace(requests)
    cold_calls = sum(cold.ladder.sim_calls.values())
    # A second fleet over the same, now warm, ladder: every simulator-tier
    # answer is a memo hit, and nothing observable may change.
    warm = _fleet(pool, SEED, ladder=cold.ladder)
    with obs.observe() as ob:
        second = warm.run_trace(requests)
    assert _digest(first) == _digest(second)
    # Hits launch nothing, so no sim.* launch metric is emitted.
    assert ob.registry.get("sim.launches") is None
    memo = ob.registry.get(MEMO_METRIC)
    warm_calls = sum(cold.ladder.sim_calls.values()) - cold_calls
    assert memo.labels(outcome="hit").value == memo.value == warm_calls


@pytest.mark.parametrize("kind", ["fleet", "server"])
def test_armed_plan_bypasses_the_memo(pool, kind):
    plan = FaultPlan(seed=SEED, launch_abort_rate=0.2, hbm_stall_rate=0.05)
    requests = _trace(pool, SEED)
    runner = (_fleet if kind == "fleet" else _server)(pool, SEED, plan)
    with obs.observe() as ob:
        result = runner.run_trace(requests)
    assert result.counters["faults"] > 0
    calls = runner.ladder.sim_calls
    accs = _accelerators(runner)
    assert sum(calls.values()) > 0
    # Exactly one live fault draw per simulator-tier call, per replica.
    assert [a.fault_state.runs for a in accs] == [calls[id(a)] for a in accs]
    assert runner.ladder.memo_size == 0
    memo = ob.registry.get(MEMO_METRIC)
    assert memo.labels(outcome="bypass").value == sum(calls.values())
    assert memo.value == sum(calls.values())


def test_memo_counter_sums_to_simulator_calls(pool):
    runner = _fleet(pool, SEED)
    with obs.observe() as ob:
        runner.run_trace(_trace(pool, SEED))
    memo = ob.registry.get(MEMO_METRIC)
    outcomes = {
        key[0]: child.value for key, child in memo.child_items()
    }
    sim_calls = sum(runner.ladder.sim_calls.values())
    assert sum(outcomes.values()) == memo.value == sim_calls
    assert outcomes.get("bypass", 0) == 0
    assert outcomes["miss"] == runner.ladder.memo_size
    assert outcomes["hit"] == sim_calls - runner.ladder.memo_size


def test_served_outputs_are_read_only(pool):
    requests = _trace(pool, SEED)
    by_rid = {req.request_id: req for req in requests}
    outputs = {}
    for resp in _fleet(pool, SEED).run_trace(requests).responses:
        if resp.tier == TIER_FULL and resp.report is not None:
            req = by_rid[resp.request_id]
            outputs.setdefault((req.workload, req.kernel), []).append(
                resp.report.output
            )
    shared = max(outputs.values(), key=len)
    assert len(shared) > 1 and all(o is shared[0] for o in shared)
    snapshot = shared[0].copy()
    with pytest.raises(ValueError):
        shared[0][0] += 1.0
    np.testing.assert_array_equal(shared[-1], snapshot)


def test_memo_keys_on_the_accelerator_config(pool):
    ladder = DegradationLadder()
    item = pool["tensor-m"]
    small = TensaurusConfig(spm_kb=2, msu_kb=8)
    base, _, _ = ladder.execute(TIER_BATCHED, item, "mttkrp", Tensaurus())
    other, _, _ = ladder.execute(
        TIER_BATCHED, item, "mttkrp", Tensaurus(small)
    )
    assert ladder.memo_size == 2
    assert other.cycles == item.run(
        "mttkrp", Tensaurus(small), compute_output=False
    ).cycles
    assert other is not base


def test_shared_ladder_stays_bounded(pool):
    # The chaos-runner pattern: one ladder shared by a fleet per schedule.
    ladder = CountingLadder()
    sizes = []
    for seed in (0, 1, 2, 0, 1, 2):
        _fleet(pool, seed, ladder=ladder).run_trace(_trace(pool, seed, 0.2))
        sizes.append(ladder.memo_size)
    assert sizes[3:] == [sizes[2]] * 3
    assert sizes[-1] <= len(SIM_TIERS) * len(pool.choices())
    assert sizes[-1] < sum(ladder.sim_calls.values())
