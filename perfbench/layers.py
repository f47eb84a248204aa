"""Which public calls the traced run wraps, and the per-layer metrics.

Every wrapped call is named ``<layer>.<call>``.  Times are reported as
self seconds per op, counts as calls per op, so runs of different length
compare.  A metric whose layer an op never reaches reads 0.
"""

from __future__ import annotations

from tracer import Tracer

#: The per-layer metrics every traced run prints, with their units.
PER_LAYER = {
    "tuning.step_self_s": "s/op",
    "harmony.fetch_s": "s/op",
    "harmony.report_s": "s/op",
    "harmony.calls": "count/op",
    "speculate.prefetch_s": "s/op",
    "speculate.hit_rate": "ratio",
    "speculate.waste_ratio": "ratio",
    "memo.lookups": "count/op",
    "memo.hit_rate": "ratio",
    "solcache.lookups": "count/op",
    "solcache.hit_rate": "ratio",
    "outer.solves": "count/op",
    "outer.rounds_mean": "count",
    "outer.exhausted_frac": "ratio",
    "outer.self_s": "s/op",
    "demands.build_s": "s/op",
    "demands.calls": "count/op",
    "mva.solve_s": "s/op",
    "mva.rows": "count/op",
    "mva.iters_mean": "count",
    "mva.iters_max": "count",
    "mva.nonconverged_frac": "ratio",
    "fluid.solve_s": "s/op",
    "fluid.rows": "count/op",
    "hierarchy.plan_s": "s/op",
    "analytic.measure_self_s": "s/op",
    "engine.run_s": "s/op",
    "engine.runs": "count/op",
    "engine.gang_batches": "count/op",
    "engine.gang_rows": "count/op",
    "store.shared_hits": "count/op",
    "des.build_s": "s/op",
    "des.warmup_s": "s/op",
    "des.run_s": "s/op",
    "des.events": "count/op",
    "des.events_per_s": "1/s",
    "sim.kernel_self_s": "s/op",
    "sim.acquires": "count/op",
    "sim.resource_s": "s/op",
    "rng.draws": "count/op",
    "rng.block_frac": "ratio",
    "rng.s": "s/op",
    "wips_gain": "ratio",
    "des_agreement_err": "ratio",
    "trace.ops_per_s_delta": "1/s",
    "trace.op_ms_p50_delta": "ms",
    "trace.attributed_frac": "ratio",
}

_DES_PROFILE = {
    "profile.build_seconds": "des.build",
    "profile.warmup_seconds": "des.warmup",
    "profile.measure_seconds": "des.run",
    "profile.entries_dispatched": "des.events",
    "profile.rng_scalar_draws": "rng.scalar",
    "profile.rng_block_draws": "rng.block",
}


# -- hooks ---------------------------------------------------------------
def _outer_before(tracer: Tracer, args) -> None:
    backend = args[0]
    tracer.context.append(["outer", backend.max_outer, 0])


def _outer_after(tracer: Tracer, args, result, own) -> None:
    tracer.context.pop()


def _mva_after(tracer: Tracer, args, results, own) -> None:
    networks = args[0]
    counters = tracer.counters
    fluid = sum(1 for net in networks if net.method == "fluid")
    rows = len(networks)
    counters["fluid.rows"] += fluid
    counters["mva.rows"] += rows - fluid
    if rows:
        counters["fluid.s"] += own * fluid / rows
        counters["mva.s"] += own * (rows - fluid) / rows
    for net, res in zip(networks, results):
        if net.method != "fluid":
            counters["mva.iters"] += res.iterations
            counters["max.mva.iters"] = max(
                counters["max.mva.iters"], res.iterations
            )
            counters["mva.nonconverged"] += 0 if res.converged else 1
    if tracer.context and tracer.context[-1][0] == "outer":
        ctx = tracer.context[-1]
        ctx[2] += 1
        counters["outer.rows"] += rows
        if ctx[2] == 1:
            counters["outer.solves"] += rows
        if ctx[2] == ctx[1]:
            counters["outer.exhausted"] += rows


def _prefetch_before(tracer: Tracer, args) -> None:
    stats = args[0].stats
    tracer.context.append(["spec", stats.planned, stats.hits, stats.misses])


def _prefetch_after(tracer: Tracer, args, result, own) -> None:
    _, planned, hits, misses = tracer.context.pop()
    stats = args[0].stats
    tracer.counters["speculate.planned"] += stats.planned - planned
    tracer.counters["speculate.hits"] += stats.hits - hits
    tracer.counters["speculate.misses"] += stats.misses - misses


def _des_after(tracer: Tracer, args, result, own) -> None:
    diagnostics = result.diagnostics
    for key, name in _DES_PROFILE.items():
        tracer.counters[name] += diagnostics.get(key, 0.0)


# -- installation --------------------------------------------------------
def install(tracer: Tracer, full: bool) -> None:
    """Wrap the program's public calls.

    ``full=False`` wraps only ``ClusterTuningSession.step`` and keeps each
    step's duration: the untraced run needs it for the fig4-matrix op
    latencies, which happen inside fleet workers.
    """
    from repro.tuning.session import ClusterTuningSession

    tracer.sampled.add("tuning.step")
    tracer.wrap(ClusterTuningSession, "step", "tuning.step")
    if not full:
        return

    import repro.model.analytic as analytic
    from repro.des.backend import SimulationBackend
    from repro.harmony.server import HarmonyServer
    from repro.harmony.speculate import SpeculativeEvaluator
    from repro.model.demands import DemandBuilder
    from repro.parallel.engine import SharedEngine
    from repro.sim.core import Environment
    from repro.sim.resources import AcquireRequest, Resource
    from repro.util.rng import BlockSampler

    tracer.wrap(HarmonyServer, "fetch", "harmony.fetch")
    tracer.wrap(HarmonyServer, "report", "harmony.report")
    tracer.wrap(
        SpeculativeEvaluator, "prefetch", "speculate.prefetch",
        before=_prefetch_before, after=_prefetch_after,
    )
    tracer.wrap(analytic.AnalyticBackend, "measure", "analytic.measure")
    tracer.wrap(analytic.AnalyticBackend, "measure_batch", "analytic.measure")
    tracer.wrap(
        analytic.AnalyticBackend, "solve_tasks_multi", "outer.solve",
        before=_outer_before, after=_outer_after,
    )
    tracer.wrap(DemandBuilder, "build", "demands.build")
    # The solver and the planner as ``repro.model.analytic`` resolves them.
    tracer.wrap(analytic, "solve_mva_batch", "mva.batch", after=_mva_after)
    tracer.wrap(analytic, "aggregation_plan", "hierarchy.plan")
    tracer.wrap(SharedEngine, "run", "engine.run")
    tracer.wrap(SimulationBackend, "measure", "des.measure", after=_des_after)
    tracer.wrap(Environment, "run", "sim.run")
    tracer.wrap(Resource, "acquire", "sim.acquire", leaf=True)
    tracer.wrap(AcquireRequest, "release", "sim.release", leaf=True)
    for draw in ("random", "standard_exponential", "exponential", "integers"):
        tracer.wrap(BlockSampler, draw, "rng.draw", leaf=True)


# -- metrics -------------------------------------------------------------
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: int, program: dict) -> dict[str, float]:
    """Per-layer metrics from the tracer and the program's own counters.

    ``program`` holds what the workload read from the program: ``memo``
    and ``solcache`` as (hits, misses), and ``engine.runs``,
    ``engine.gang_batches``, ``engine.gang_rows``, ``store.shared_hits``
    as totals.
    """
    t = tracer.totals
    c = tracer.counters

    def own(name: str) -> float:
        return t[name][2] / ops if name in t else 0.0

    def calls(name: str) -> float:
        return t[name][0] if name in t else 0.0

    memo_hits, memo_misses = program.get("memo", (0, 0))
    sol_hits, sol_misses = program.get("solcache", (0, 0))
    draws = c["rng.scalar"] + c["rng.block"]
    des_wall = c["des.warmup"] + c["des.run"]
    spec_committed = c["speculate.hits"] + c["speculate.misses"]
    return {
        "tuning.step_self_s": own("tuning.step"),
        "harmony.fetch_s": own("harmony.fetch"),
        "harmony.report_s": own("harmony.report"),
        "harmony.calls": (calls("harmony.fetch") + calls("harmony.report")) / ops,
        "speculate.prefetch_s": own("speculate.prefetch"),
        "speculate.hit_rate": _ratio(c["speculate.hits"], spec_committed),
        "speculate.waste_ratio": _ratio(
            max(c["speculate.planned"] - c["speculate.hits"], 0.0),
            c["speculate.planned"],
        ),
        "memo.lookups": (memo_hits + memo_misses) / ops,
        "memo.hit_rate": _ratio(memo_hits, memo_hits + memo_misses),
        "solcache.lookups": (sol_hits + sol_misses) / ops,
        "solcache.hit_rate": _ratio(sol_hits, sol_hits + sol_misses),
        "outer.solves": c["outer.solves"] / ops,
        "outer.rounds_mean": _ratio(c["outer.rows"], c["outer.solves"]),
        "outer.exhausted_frac": _ratio(c["outer.exhausted"], c["outer.solves"]),
        "outer.self_s": own("outer.solve"),
        "demands.build_s": own("demands.build"),
        "demands.calls": calls("demands.build") / ops,
        "mva.solve_s": c["mva.s"] / ops,
        "mva.rows": c["mva.rows"] / ops,
        "mva.iters_mean": _ratio(c["mva.iters"], c["mva.rows"]),
        "mva.iters_max": c["max.mva.iters"],
        "mva.nonconverged_frac": _ratio(c["mva.nonconverged"], c["mva.rows"]),
        "fluid.solve_s": c["fluid.s"] / ops,
        "fluid.rows": c["fluid.rows"] / ops,
        "hierarchy.plan_s": own("hierarchy.plan"),
        "analytic.measure_self_s": own("analytic.measure"),
        "engine.run_s": own("engine.run"),
        "engine.runs": program.get("engine.runs", 0.0) / ops,
        "engine.gang_batches": program.get("engine.gang_batches", 0.0) / ops,
        "engine.gang_rows": program.get("engine.gang_rows", 0.0) / ops,
        "store.shared_hits": program.get("store.shared_hits", 0.0) / ops,
        "des.build_s": c["des.build"] / ops,
        "des.warmup_s": c["des.warmup"] / ops,
        "des.run_s": c["des.run"] / ops,
        "des.events": c["des.events"] / ops,
        "des.events_per_s": _ratio(c["des.events"], des_wall),
        "sim.kernel_self_s": own("sim.run"),
        "sim.acquires": calls("sim.acquire") / ops,
        "sim.resource_s": own("sim.acquire") + own("sim.release"),
        "rng.draws": draws / ops,
        "rng.block_frac": _ratio(c["rng.block"], draws),
        "rng.s": own("rng.draw"),
    }

