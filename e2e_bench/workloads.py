"""The four end-to-end workloads: set-up, one timed pass, and its checks.

Each workload builds its inputs from the seed alone, runs single-process
(no threads, pools or connections), and turns one pass into a
:class:`PassSummary` whose virtual and simulated fields must repeat
exactly from pass to pass. See README.md for why each was chosen.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List

import numpy as np

import repro.factorization.accelerated as accelerated
from repro import datasets
from repro.factorization.cp import cp_als
from repro.serving import (
    FleetConfig,
    TensaurusFleet,
    WorkloadPool,
    synthetic_trace,
)
from repro.serving.ladder import TIER_FULL
from repro.serving.request import STATUS_FAILED
from repro.sim import Tensaurus
from repro.sim.faults import FaultPlan
from repro.tune import Tuner, default_space, workload_from_dataset

TENANTS = ("acme", "beta", "core")
#: The forced shard kill fires halfway through the arrival window, inside
#: the spike, when queues and in-flight work are deepest.
KILL_FRACTION = 0.5
CP_DATASET = "nell-2"
CP_RANK = 32
CP_SWEEPS = 5
#: Largest |fit(accelerated) - fit(host cp_als)| accepted. The two paths
#: run the same ALS arithmetic except for the MTTKRP's summation order
#: (fiber-wise reduceat vs one scatter-add), which moves the fit in its
#: last few bits only.
CP_FIT_TOL = 1e-9
#: Full-tier responses re-run on a fresh accelerator per fleet check.
OUTPUT_SAMPLES = 8


def _digest(*parts: Any) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


@dataclass
class PassSummary:
    """What one pass produced, apart from its host time."""

    digest: str  # must be identical on every pass of a run
    attempted: int
    failed: int
    #: end-to-end values that depend only on the seed (virtual time,
    #: simulated cycles, fit); keyed by their metric names
    exact: Dict[str, float] = field(default_factory=dict)
    #: workload-specific per-layer values, keyed by metric name
    layer: Dict[str, float] = field(default_factory=dict)
    #: units of work in one pass (served requests, sweeps), which turn the
    #: pass's host time into the workload's own host metric
    units: int = 1


class Workload:
    """One workload: ``setup`` (timed as set-up) builds a pass's inputs from
    the seed, ``run`` is the timed pass, ``summarize`` and ``check`` read
    its result. ``prepare`` runs once per benchmark run, untimed."""

    name: str

    def prepare(self, seed: int) -> None:
        pass


class Fleet(Workload):
    """Trace replay through the sharded serving fleet."""

    def __init__(self, name: str, faults: bool) -> None:
        self.name = name
        self.faults = faults
        self.kill_target = None

    def host_metric(self, host_s: float, summary: PassSummary):
        return "served_rps", summary.units / host_s

    def _inputs(self, seed: int):
        pool = WorkloadPool(seed=seed, variants=3)
        trace = synthetic_trace(
            pool, duration_s=20.0, base_rate=150.0, spike_factor=5.0,
            deadline_s=0.05, seed=seed, tenants=TENANTS,
        )
        config = FleetConfig(
            seed=seed, shards=3, replicas_per_shard=2, routing="affinity",
            queue_depth=64,
        )
        return pool, trace, config

    def _plan(self, seed: int, kills=()) -> FaultPlan:
        return FaultPlan(
            seed=seed, launch_abort_rate=0.05, hbm_stall_rate=0.02,
            pe_lane_dropout_rate=0.02, forced_shard_kills=kills,
        )

    def prepare(self, seed: int) -> None:
        """Pick a shard that is still routable when the kill fires.

        The autoscaler may already have drained any given shard by then
        (it did for 3 of the first 10 seeds with a fixed shard), and a kill
        of a drained shard is skipped. Events before the kill do not
        depend on later arrivals, so replaying only the arrivals before it
        shows which shards are routable at that instant; the lowest
        numbered one is the target.
        """
        if not self.faults:
            return
        pool, trace, config = self._inputs(seed)
        kill_s = KILL_FRACTION * max(r.arrival_s for r in trace)
        fleet = TensaurusFleet(config, fault_plan=self._plan(seed), pool=pool)
        early = fleet.run_trace([r for r in trace if r.arrival_s < kill_s])
        alive = set(range(config.shards))
        for when, direction, sid in early.autoscale_events:
            if when < kill_s:
                (alive.add if direction == "up" else alive.discard)(sid)
        self.kill_target = min(alive)

    def setup(self, seed: int):
        pool, trace, config = self._inputs(seed)
        plan = None
        if self.faults:
            plan = self._plan(seed, ((self.kill_target, KILL_FRACTION),))
        fleet = TensaurusFleet(config, fault_plan=plan, pool=pool)
        return fleet, trace

    def run(self, state):
        fleet, trace = state
        return fleet.run_trace(trace)

    def summarize(self, state, result) -> PassSummary:
        _, trace = state
        c = result.counters
        served = result.served
        waits = np.array([r.start_s - r.arrival_s for r in served])
        failed = sum(1 for r in result.responses if r.status == STATUS_FAILED)
        return PassSummary(
            digest=_digest(
                result.decision_log,
                [r.log_row() for r in result.responses],
            ),
            attempted=len(trace),
            failed=max(failed, len(result.lost_request_ids)),
            units=c["served"],
            exact={
                "goodput_frac": result.overall_hit_rate,
                "latency_p50_ms": 1e3 * result.latency_percentile(50),
                "latency_p99_ms": 1e3 * result.latency_percentile(99),
                "latency_samples": len(served),
            },
            layer={
                "fleet.admitted": c["admitted"],
                "fleet.rejected": c["rejected"],
                "fleet.evicted": c["evicted"],
                "fleet.queue_wait_p50_ms": 1e3 * float(np.percentile(waits, 50)),
                "fleet.queue_wait_p99_ms": 1e3 * float(np.percentile(waits, 99)),
                "fleet.shard_cache_hit_ratio": result.cache_hit_rate,
                "fleet.redeals": c["redeals"],
                "fleet.shard_kills": c["shard_kills"],
                "fleet.lost": len(result.lost_request_ids),
                "fleet.fault_plan_armed": int(self.faults),
            },
        )

    def check(self, state, result) -> List[str]:
        fleet, trace = state
        errors = []
        if not result.exactly_once:
            errors.append("exactly_once does not hold")
        if result.lost_request_ids:
            errors.append(f"{len(result.lost_request_ids)} requests lost")
        kills = result.counters["shard_kills"]
        if kills != int(self.faults):
            errors.append(f"{kills} shard kills landed, want {int(self.faults)}")
        full = [r for r in result.served if r.tier == TIER_FULL]
        if not full:
            return errors + ["no full-tier response to compare"]
        step = max(1, len(full) // OUTPUT_SAMPLES)
        requests = {r.request_id: r for r in trace}
        for resp in full[::step][:OUTPUT_SAMPLES]:
            req = requests[resp.request_id]
            direct = fleet.pool[req.workload].run(
                req.kernel, Tensaurus(fleet.sim_config)
            )
            got = resp.report.output
            if (
                got.dtype != direct.output.dtype
                or got.shape != direct.output.shape
                or got.tobytes() != direct.output.tobytes()
            ):
                errors.append(
                    f"request {resp.request_id}: full-tier output differs "
                    "from a direct Tensaurus run"
                )
            if not self.faults and resp.report.cycles != direct.cycles:
                errors.append(
                    f"request {resp.request_id}: {resp.report.cycles} cycles, "
                    f"direct run {direct.cycles}"
                )
        return errors


class CPALS(Workload):
    """Accelerated CP-ALS on the nell-2 registry tensor."""

    name = "cp-als"

    def host_metric(self, host_s: float, summary: PassSummary):
        return "sweep_s", host_s / summary.units

    def setup(self, seed: int):
        return datasets.load_tensor(CP_DATASET), Tensaurus(), seed

    def run(self, state):
        tensor, acc, seed = state
        return accelerated.accelerated_cp_als(
            tensor, CP_RANK, num_iters=CP_SWEEPS, tol=0.0, seed=seed,
            accelerator=acc,
        )

    def summarize(self, state, result) -> PassSummary:
        dec = result.decomposition
        cycles = sum(r.cycles for r in result.reports)
        launches = len(result.reports)
        retries = result.resilience["fault_retries"]
        return PassSummary(
            digest=_digest(dec.weights, *dec.factors, dec.fit_trace, cycles),
            attempted=launches,
            failed=retries,
            units=len(dec.fit_trace),
            exact={
                "fit": dec.fit_trace[-1],
                # no deadlines: the share of MTTKRP launches that completed
                "goodput_frac": 1.0 - retries / launches,
            },
            layer={"factorization.sweeps": len(dec.fit_trace)},
        )

    def check(self, state, result) -> List[str]:
        tensor, _, seed = state
        dec = result.decomposition
        errors = []
        if len(dec.fit_trace) != CP_SWEEPS:
            errors.append(f"ran {len(dec.fit_trace)} sweeps, want {CP_SWEEPS}")
        host = cp_als(tensor, CP_RANK, num_iters=CP_SWEEPS, tol=0.0, seed=seed)
        gap = abs(host.fit_trace[-1] - dec.fit_trace[-1])
        if not gap <= CP_FIT_TOL:
            errors.append(
                f"fit {dec.fit_trace[-1]!r} differs from host cp_als "
                f"{host.fit_trace[-1]!r} by {gap:.3g} > {CP_FIT_TOL}"
            )
        return errors


class TuneSearch(Workload):
    """Serial tuner search over the default 324-point space."""

    name = "tune-search"

    def host_metric(self, host_s: float, summary: PassSummary):
        return "search_s", host_s

    def setup(self, seed: int):
        return workload_from_dataset("mttkrp", CP_DATASET, rank=CP_RANK), seed

    def run(self, state):
        workload, seed = state
        return Tuner(
            workload, default_space(), seed=seed, workers=None, store=None
        ).search()

    def summarize(self, state, result) -> PassSummary:
        return PassSummary(
            digest=result.trajectory_digest(),
            attempted=result.oracle_evals,
            failed=0,
            exact={
                "tuned_cycles": result.best_cycles,
                # no deadlines, and a failed oracle point raises
                "goodput_frac": 1.0,
            },
            layer={"tune.oracle_sims": result.oracle_sims},
        )

    def check(self, state, result) -> List[str]:
        errors = []
        if result.space_size != 324:
            errors.append(f"space has {result.space_size} points, want 324")
        if result.best_cycles > result.baseline_cycles:
            errors.append(
                f"tuned {result.best_cycles} cycles > baseline "
                f"{result.baseline_cycles}"
            )
        return errors


WORKLOADS = {
    w.name: w
    for w in (
        Fleet("fleet-steady", faults=False),
        Fleet("fleet-faults", faults=True),
        CPALS(),
        TuneSearch(),
    )
}
