"""Three-tier graceful-degradation ladder.

Under light load every request gets the real thing: a cycle-accurate
simulation with numeric output, bit-identical to calling
:meth:`repro.sim.Tensaurus.run_mttkrp` directly. As deadline headroom
or queue capacity shrinks the server steps down the ladder:

- ``full``     — cycle simulator, ``compute_output=True``;
- ``batched``  — cycle simulator, ``compute_output=False`` (identical
  timing numbers, no numeric output — flagged degraded);
- ``analytic`` — :class:`repro.sim.perfmodel.FastModel` closed-form
  estimate (flagged degraded, with a calibrated cycle-error bound).

The analytic tier needs no backend at all, which is also what keeps the
server answering when every replica's circuit breaker is open.

A simulated launch is deterministic unless a fault plan is armed, so the
two simulator tiers memoize their reports per (workload fingerprint,
kernel, tier, accelerator config): a repeated workload is simulated once
and every later request shares that report.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro import obs
from repro.sim.config import TensaurusConfig
from repro.sim.perfmodel import FastModel
from repro.sim.report import SimReport
from repro.util.errors import ConfigError
from repro.util.rng import derive_seed

TIER_FULL = "full"
TIER_BATCHED = "batched"
TIER_ANALYTIC = "analytic"

#: Tiers in decreasing-fidelity order (the ladder).
TIERS = (TIER_FULL, TIER_BATCHED, TIER_ANALYTIC)

#: Counter of simulator-tier memo lookups, labelled ``outcome``: ``hit``,
#: ``miss`` or ``bypass`` (the accelerator's fault plan is armed).
MEMO_METRIC = "serving.ladder.memo"


def calibrate_analytic_error(
    sim_config: TensaurusConfig,
    pool,
    seed: int = 0,
    probes: int = 4,
) -> float:
    """Measured worst-case relative cycle error of the analytic tier.

    Runs ``probes`` seeded (kernel, workload) pairs through both the
    cycle simulator and :class:`FastModel` and returns the maximum
    relative cycle discrepancy — the ``error_bound`` attached to every
    analytic-tier response. Deterministic for a given pool and seed.
    """
    from repro.sim.accelerator import Tensaurus
    from repro.util.rng import make_rng

    if probes <= 0:
        raise ConfigError("probes must be positive")
    pairs = pool.choices()
    rng = make_rng(derive_seed(seed, "ladder", "calibration"))
    picks = sorted(
        int(i) for i in rng.choice(len(pairs), size=min(probes, len(pairs)),
                                   replace=False)
    )
    acc = Tensaurus(sim_config)
    fast = FastModel(sim_config)
    worst = 0.0
    for i in picks:
        kernel, workload = pairs[i]
        item = pool[workload]
        simulated = item.run(kernel, acc, compute_output=False)
        predicted = item.analytic(kernel, fast)
        err = abs(predicted.cycles - simulated.cycles) / max(simulated.cycles, 1)
        worst = max(worst, err)
    return worst


class DegradationLadder:
    """Executes a workload at a chosen fidelity tier.

    Holds the shared :class:`FastModel` (the analytic tier is host-side
    and backend-free), the calibrated analytic error bound and the memo
    of simulator-tier reports. The ``accelerator`` argument of
    :meth:`execute` is only consulted for the two simulator tiers.

    The memo key is ``(item.fingerprint, kernel, tier, repr(config))``:
    the workload fingerprint is content-derived and computed once per
    item, and the config's repr only when the accelerator's config object
    differs from the previous call's (every replica of a fleet shares
    one), never per call. The memo holds one report per distinct key of
    the pools it has served, so a ladder shared across many fleets over
    one pool stays bounded. It is
    bypassed whenever the accelerator's fault plan is armed: those runs
    draw their faults live and advance the accelerator's run counter.
    Memoized reports are shared between responses; their ``output``
    arrays are read-only so one caller cannot corrupt another's answer.
    """

    def __init__(
        self,
        sim_config: Optional[TensaurusConfig] = None,
        analytic_error_bound: float = 0.0,
    ) -> None:
        self.sim_config = sim_config or TensaurusConfig()
        self.fast = FastModel(self.sim_config)
        self.analytic_error_bound = float(analytic_error_bound)
        self._memo: Dict[Tuple[str, str, str, str], SimReport] = {}
        # One-entry caches: the config every replica of a fleet shares,
        # and the memo counter of the active metrics registry.
        self._config = self.sim_config
        self._config_key = repr(self.sim_config)
        self._registry = None
        self._memo_counter = None

    @property
    def memo_size(self) -> int:
        """Number of simulator-tier reports currently memoized."""
        return len(self._memo)

    def _count(self, outcome: str) -> None:
        registry = obs.metrics()
        if registry is not self._registry:
            self._registry = registry
            self._memo_counter = registry.counter(
                MEMO_METRIC, "simulator-tier report memo lookups",
                ("outcome",),
            )
        self._memo_counter.labels(outcome=outcome).inc()

    def execute(
        self, tier: str, item, kernel: str, accelerator=None
    ) -> Tuple[SimReport, bool, float]:
        """Run ``item``'s ``kernel`` at ``tier``.

        Returns ``(report, degraded, error_bound)``. Simulator tiers may
        raise :class:`repro.util.errors.FaultError` (the caller's breaker
        handles that); the analytic tier cannot fault. A memo hit returns
        the shared report of the first run: no launch happens, so it
        emits no ``sim.*`` metrics or sim-track trace events.
        """
        if tier == TIER_ANALYTIC:
            return (
                item.analytic(kernel, self.fast),
                True,
                self.analytic_error_bound,
            )
        if tier != TIER_FULL and tier != TIER_BATCHED:
            raise ConfigError(f"unknown degradation tier {tier!r}")
        if accelerator is None:
            raise ConfigError(f"{tier} tier requires an accelerator")
        # The batched tier is timing-exact but has no numeric output:
        # degraded, zero error.
        degraded = tier == TIER_BATCHED
        if accelerator.fault_state.enabled:
            self._count("bypass")
            report = item.run(
                kernel, accelerator, compute_output=not degraded
            )
            return report, degraded, 0.0
        config = accelerator.config
        if config is not self._config:
            self._config = config
            self._config_key = repr(config)
        key = (item.fingerprint, kernel, tier, self._config_key)
        report = self._memo.get(key)
        if report is None:
            self._count("miss")
            report = item.run(
                kernel, accelerator, compute_output=not degraded
            )
            if report.output is not None:
                report.output.setflags(write=False)
            self._memo[key] = report
        else:
            self._count("hit")
        return report, degraded, 0.0

    @staticmethod
    def next_lower(tier: str) -> Optional[str]:
        """The tier one rung down, or None below the analytic floor."""
        idx = TIERS.index(tier)
        return TIERS[idx + 1] if idx + 1 < len(TIERS) else None
