"""Which public entry points make up each layer, and the layer metrics.

Layer names follow Sparseloop's split of an accelerator model into
dataflow, format and microarchitecture layers, applied to this
repository's modules: the serving event loop and degradation ladder, the
accelerator launch, its format and tile-statistics work (``sim.batch``),
the functional kernels, the closed-form performance model, the
factorization loop and the tuner.

Every entry point is wrapped where its caller looks it up: a function the
accelerator imported by name is replaced in ``repro.sim.accelerator``,
not in the module that defines it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

import numpy as np

import repro.artifacts
import repro.factorization.accelerated
import repro.sim.accelerator
import repro.tune.search
from repro.kernels.mttkrp import mttkrp_flops
from repro.serving.fleet import TensaurusFleet
from repro.serving.ladder import (
    TIER_ANALYTIC,
    TIER_BATCHED,
    TIER_FULL,
    DegradationLadder,
)
from repro.sim.accelerator import Tensaurus
from repro.sim.perfmodel import FastModel
from repro.tune.cost import CostModel
from repro.tune.workload import TuneWorkload
from repro.util.errors import FaultError

from names import LAYERS
from spans import ROOT, EntryPoint, Span, aggregate

SIM_TIERS = (TIER_FULL, TIER_BATCHED)


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _nbytes(*arrays) -> int:
    return sum(int(np.asarray(a).nbytes) for a in arrays)


# ----------------------------------------------------------------------
# Describers: what one call did, read from its arguments and result
# ----------------------------------------------------------------------
def _ladder(args, kwargs, result, error):
    tier = _arg(args, kwargs, 1, "tier")
    item = _arg(args, kwargs, 2, "item")
    kernel = _arg(args, kwargs, 3, "kernel")
    return {
        "tier": tier,
        "key": f"{item.fingerprint}/{kernel}/{tier}",
        "fault": isinstance(error, FaultError),
    }


def _tensor_kernel(ops_fn):
    def describe(args, kwargs, result, error):
        tensor = _arg(args, kwargs, 0, "tensor")
        factors = _arg(args, kwargs, 1, "factors")
        ranks = [int(f.shape[1]) for f in factors]
        moved = _nbytes(tensor.coords, tensor.values, *factors)
        if result is not None:
            moved += int(result.nbytes)
        return {
            "nnz": int(tensor.nnz),
            "ops": int(ops_fn(tensor, ranks)),
            "bytes": moved,
        }

    return describe


def _matrix_kernel(ops_per_nnz):
    def describe(args, kwargs, result, error):
        csr, dense = args[0], args[1]
        moved = _nbytes(csr.indptr, csr.indices, csr.data, dense)
        if result is not None:
            moved += int(result.nbytes)
        return {
            "nnz": int(csr.nnz),
            "ops": int(csr.nnz * ops_per_nnz(dense)),
            "bytes": moved,
        }

    return describe


def _mttkrp_ops(tensor, ranks):
    return mttkrp_flops(tensor.shape, ranks[0], nnz=tensor.nnz)


def _ttmc_ops(tensor, ranks):
    # Per nonzero: a*C(k,:) into the TSR (F2 multiply-adds), then the
    # outer product with B(j,:), bounded by one per nonzero (F1*F2).
    f1, f2 = ranks
    return 2 * tensor.nnz * (f2 + f1 * f2)


def _fingerprint(args, kwargs, result, error):
    return {"bytes": _nbytes(*args)}


def _tile_stats(args, kwargs, result, error):
    return {"records": int(np.asarray(args[0]).shape[0])}


class Probe:
    """The entry points of every layer, plus what their describers saw.

    ``accelerators`` collects each :class:`Tensaurus` that launched during
    the traced pass; the benchmark builds fresh accelerators for every
    pass, so their ``cache_info()`` counters belong to that pass alone.
    """

    def __init__(self) -> None:
        self.accelerators: Dict[int, Tensaurus] = {}
        launch = self._launch
        self.entry_points: List[EntryPoint] = [
            EntryPoint(TensaurusFleet, "run_trace", "serving.fleet"),
            EntryPoint(DegradationLadder, "execute", "serving.ladder", _ladder),
            *(
                EntryPoint(Tensaurus, name, "sim.accelerator", launch)
                for name in ("run_mttkrp", "run_ttmc", "run_spmm", "run_spmv")
            ),
            EntryPoint(repro.sim.accelerator, "fingerprint_arrays",
                       "sim.batch.fingerprint", _fingerprint),
            EntryPoint(repro.artifacts, "fingerprint_arrays",
                       "sim.batch.fingerprint", _fingerprint),
            EntryPoint(repro.sim.accelerator, "analyze_tile_stream",
                       "sim.batch.tile_stats", _tile_stats),
            EntryPoint(repro.sim.accelerator, "mttkrp_sparse_factored",
                       "kernels", _tensor_kernel(_mttkrp_ops)),
            EntryPoint(repro.sim.accelerator, "ttmc_sparse_factored",
                       "kernels", _tensor_kernel(_ttmc_ops)),
            EntryPoint(repro.sim.accelerator, "spmm_ref", "kernels",
                       _matrix_kernel(lambda b: 2 * b.shape[1])),
            EntryPoint(repro.sim.accelerator, "spmv_ref", "kernels",
                       _matrix_kernel(lambda x: 2)),
            *(
                EntryPoint(FastModel, name, "sim.perfmodel")
                for name in ("run", "mttkrp", "ttmc", "spmm", "spmv")
            ),
            EntryPoint(repro.factorization.accelerated, "accelerated_cp_als",
                       "factorization"),
            EntryPoint(repro.tune.search.Tuner, "search", "tune"),
            EntryPoint(TuneWorkload, "fast_report", "tune.featurize"),
            EntryPoint(repro.tune.search, "featurize", "tune.featurize"),
            EntryPoint(repro.tune.search, "sweep_points", "tune.oracle"),
            *(
                EntryPoint(CostModel, name, "tune.cost_model")
                for name in ("observe", "fit", "predict_log")
            ),
        ]

    def _launch(self, args, kwargs, result, error):
        acc = args[0]
        self.accelerators.setdefault(id(acc), acc)
        return {"cycles": int(result.cycles) if result is not None else 0}

    # ------------------------------------------------------------------
    def metrics(self, spans: Sequence[Span]) -> Dict[str, float]:
        """Every per-layer metric one traced pass yields from its spans."""
        totals = aggregate(spans)
        by_layer: Dict[str, List[Span]] = {}
        for s in spans:
            by_layer.setdefault(s.name, []).append(s)

        def busy(layer: str) -> float:
            t = totals.get(layer)
            return t.busy_s if t else 0.0

        def calls(layer: str) -> int:
            t = totals.get(layer)
            return t.calls if t else 0

        def attr_sum(layer: str, key: str) -> int:
            return sum(s.attrs.get(key, 0) for s in by_layer.get(layer, ()))

        out: Dict[str, float] = {}
        root = totals[ROOT]
        out["trace.wall_s"] = root.busy_s
        out["residual_s"] = root.self_s
        for layer in LAYERS:
            t = totals.get(layer)
            out[f"layer.{layer}.self_s"] = t.self_s if t else 0.0

        out["fleet.self_s"] = out["layer.serving.fleet.self_s"]

        ladder = by_layer.get("serving.ladder", [])
        for tier in (TIER_FULL, TIER_BATCHED, TIER_ANALYTIC):
            mine = [s for s in ladder if s.attrs["tier"] == tier]
            out[f"ladder.calls.{tier}"] = len(mine)
            out[f"ladder.busy_s.{tier}"] = sum(s.duration for s in mine)
        out["ladder.us_per_call.full"] = (
            1e6 * out["ladder.busy_s.full"] / out["ladder.calls.full"]
            if out["ladder.calls.full"] else 0.0
        )
        sim_calls = [s for s in ladder if s.attrs["tier"] in SIM_TIERS]
        seen = set()
        repeats = 0
        for s in sim_calls:
            key = s.attrs["key"]
            repeats += key in seen
            seen.add(key)
        out["ladder.repeat_share"] = (
            repeats / len(sim_calls) if sim_calls else 0.0
        )
        out["ladder.fault_ratio"] = (
            sum(s.attrs["fault"] for s in sim_calls) / len(sim_calls)
            if sim_calls else 0.0
        )

        launches = calls("sim.accelerator")
        sim_cycles = attr_sum("sim.accelerator", "cycles")
        out["accelerator.launches"] = launches
        out["accelerator.self_s"] = out["layer.sim.accelerator.self_s"]
        out["accelerator.us_per_launch"] = (
            1e6 * busy("sim.accelerator") / launches if launches else 0.0
        )
        out["accelerator.sim_cycles"] = sim_cycles
        out["accelerator.host_ns_per_sim_cycle"] = (
            1e9 * busy("sim.accelerator") / sim_cycles if sim_cycles else 0.0
        )

        out["batch.fingerprint.calls"] = calls("sim.batch.fingerprint")
        out["batch.fingerprint.busy_s"] = busy("sim.batch.fingerprint")
        out["batch.fingerprint.mb_hashed"] = (
            attr_sum("sim.batch.fingerprint", "bytes") / 1e6
        )
        hits = sum(a.cache_info()["hits"] for a in self.accelerators.values())
        misses = sum(
            a.cache_info()["misses"] for a in self.accelerators.values()
        )
        out["batch.encoding_cache.hits"] = hits
        out["batch.encoding_cache.misses"] = misses
        out["batch.encoding_cache.hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0
        )
        out["batch.tile_stats.calls"] = calls("sim.batch.tile_stats")
        out["batch.tile_stats.busy_s"] = busy("sim.batch.tile_stats")

        out["kernels.calls"] = calls("kernels")
        out["kernels.busy_s"] = busy("kernels")
        out["kernels.nnz"] = attr_sum("kernels", "nnz")
        out["kernels.ops"] = attr_sum("kernels", "ops")
        out["kernels.mb_moved"] = attr_sum("kernels", "bytes") / 1e6

        out["perfmodel.calls"] = calls("sim.perfmodel")
        out["perfmodel.busy_s"] = busy("sim.perfmodel")

        out["factorization.host_la_s"] = out["layer.factorization.self_s"]

        out["tune.featurize_s"] = busy("tune.featurize")
        out["tune.oracle_busy_s"] = busy("tune.oracle")
        out["tune.cost_model_s"] = busy("tune.cost_model")
        return out


def layer_table(metrics: Dict[str, float]) -> List[str]:
    """The self-time table: one row per layer plus the residual."""
    wall = metrics["trace.wall_s"]
    rows = [f"{'layer':<24}{'self_s':>12}{'share':>9}"]
    cells = [(name, metrics[f"layer.{name}.self_s"]) for name in LAYERS]
    cells.append(("residual_s", metrics["residual_s"]))
    for label, value in cells:
        share = value / wall if wall else 0.0
        rows.append(f"{label:<24}{value:>12.6f}{share:>8.1%}")
    rows.append(f"{'traced wall':<24}{wall:>12.6f}")
    return rows
