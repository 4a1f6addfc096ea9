"""Names and units of every metric the benchmark reports, and its layers.

BENCHMARK.json lists the same names; a test keeps the two in step.
"""

#: Every layer of the traced run, in layer-table order (see layers.py for
#: the entry points each one wraps).
LAYERS = (
    "serving.fleet",
    "serving.ladder",
    "sim.accelerator",
    "sim.batch.fingerprint",
    "sim.batch.tile_stats",
    "kernels",
    "sim.perfmodel",
    "factorization",
    "tune",
    "tune.featurize",
    "tune.oracle",
    "tune.cost_model",
)

#: ``setup_s``, ``pass_s`` and ``peak_rss_mb`` apply to every workload;
#: ``goodput_frac`` comes from each workload's summary.
END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
    "goodput_frac": "ratio",
}

#: Per-layer metrics and their units. Workloads that do not exercise a
#: layer report 0 for it.
PER_LAYER = {
    # the workload's own end-to-end figures (see README.md)
    "served_rps": "req/s",
    "sweep_s": "s",
    "search_s": "s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "latency_samples": "count",
    "failed_frac": "ratio",
    "fit": "ratio",
    "tuned_cycles": "cycles",
    # serving.fleet
    "fleet.self_s": "s",
    "fleet.admitted": "count",
    "fleet.rejected": "count",
    "fleet.evicted": "count",
    "fleet.queue_wait_p50_ms": "ms",
    "fleet.queue_wait_p99_ms": "ms",
    "fleet.shard_cache_hit_ratio": "ratio",
    "fleet.redeals": "count",
    "fleet.shard_kills": "count",
    "fleet.lost": "count",
    "fleet.fault_plan_armed": "flag",
    # serving.ladder
    "ladder.calls.full": "count",
    "ladder.calls.batched": "count",
    "ladder.calls.analytic": "count",
    "ladder.busy_s.full": "s",
    "ladder.busy_s.batched": "s",
    "ladder.busy_s.analytic": "s",
    "ladder.us_per_call.full": "us",
    "ladder.repeat_share": "ratio",
    "ladder.fault_ratio": "ratio",
    # sim.accelerator
    "accelerator.launches": "count",
    "accelerator.self_s": "s",
    "accelerator.us_per_launch": "us",
    "accelerator.sim_cycles": "cycles",
    "accelerator.host_ns_per_sim_cycle": "ns/cycle",
    # sim.batch
    "batch.fingerprint.calls": "count",
    "batch.fingerprint.busy_s": "s",
    "batch.fingerprint.mb_hashed": "MB",
    "batch.encoding_cache.hits": "count",
    "batch.encoding_cache.misses": "count",
    "batch.encoding_cache.hit_ratio": "ratio",
    "batch.tile_stats.calls": "count",
    "batch.tile_stats.busy_s": "s",
    # kernels
    "kernels.calls": "count",
    "kernels.busy_s": "s",
    "kernels.nnz": "count",
    "kernels.ops": "count",
    "kernels.mb_moved": "MB",
    # sim.perfmodel
    "perfmodel.calls": "count",
    "perfmodel.busy_s": "s",
    # factorization
    "factorization.sweeps": "count",
    "factorization.host_la_s": "s",
    # tune
    "tune.featurize_s": "s",
    "tune.oracle_sims": "count",
    "tune.oracle_busy_s": "s",
    "tune.cost_model_s": "s",
    # self time of every layer (the rows of the layer table)
    **{f"layer.{name}.self_s": "s" for name in LAYERS},
    # whole traced pass
    "residual_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}
