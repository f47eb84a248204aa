"""The benchmark's four workloads.

Each workload is a closed loop with one caller: the next op starts only
after the last one returned.  All inputs derive from the run's seed.

* ``tune-partitioned`` — Table 4's scalable tuning path: partitioned
  simplex tuning of ``three_tier(2,2,2)`` at N=2000, inline, fresh
  backend per session.  Mostly cold solves (solution-cache misses).
* ``fig4-matrix`` — ``repro experiment fig4 --jobs 2 --speculate`` rerun
  on a warm shared engine: fleet, store, memo and speculative prefetch on
  the cache-hit path; the cold run is its set-up.
* ``des-validate`` — the discrete-event simulator at the default
  configuration of ``three_tier(1,1,1)``, N=120, cycling the three mixes.
* ``scale-fluid`` — duplication tuning of the 208-node ``wide()`` cluster
  at N=10^6, where ``approximation="auto"`` picks fluid + hierarchical.

A workload does its set-up in :meth:`setup` (what ``setup_s`` times after
the imports) and its timed ops in :meth:`round`; a round is a fixed amount
of work, and a run repeats rounds until its seconds are used up.  Output
checks run inside the round, outside the timed ops; a failed check fails
the ops whose output it covers.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

from hostspeed import Meter
from tracer import Tracer

MIXES = ("browsing", "shopping", "ordering")

#: Work per round.  A run repeats rounds, each with its own inputs derived
#: from the seed and the round's index, until its seconds are used; a
#: traced run spends a third of them untraced and then replays the same
#: rounds traced.  ``tiny`` is for the benchmark's own tests.
SIZES = {
    "full": {
        "tune_steps": 60, "scale_steps": 100, "des_time_scale": 0.05,
        "fig4_iterations": 200, "fig4_baseline": 20,
    },
    "tiny": {
        "tune_steps": 4, "scale_steps": 3, "des_time_scale": 0.05,
        "fig4_iterations": 4, "fig4_baseline": 2,
    },
}

#: repro validate's agreement band for DES / analytic WIPS.
DES_BAND = (0.85, 1.15)


@dataclass
class Round:
    """What one round of a workload did."""

    ops: int = 0
    failed: int = 0
    #: seconds spent inside ops at the reference host speed (the
    #: denominator of ``ops_per_s``; see ``hostspeed.py``)
    op_seconds: float = 0.0
    #: the same in wall seconds
    wall_seconds: float = 0.0
    #: per-op latencies in seconds at the reference host speed
    latencies: list = field(default_factory=list)
    #: tuned gains (tuning workloads) or |DES/analytic - 1| (des-validate)
    quality: list = field(default_factory=list)
    #: counters read from the program (see ``layers.layer_metrics``)
    program: dict = field(default_factory=dict)
    #: results that must repeat bit for bit across rounds and tracing
    outputs: list = field(default_factory=list)
    #: failed checks, one message each
    failures: list = field(default_factory=list)

    def add_op(self, wall: float, scaled: float) -> None:
        self.wall_seconds += wall
        self.op_seconds += scaled
        self.latencies.append(scaled)

    def fail(self, ops: int, message: str) -> None:
        self.failed = min(self.ops, self.failed + ops)
        self.failures.append(message)

    def add_program(self, key: str, value) -> None:
        if isinstance(value, tuple):
            old = self.program.get(key, (0, 0))
            self.program[key] = (old[0] + value[0], old[1] + value[1])
        else:
            self.program[key] = self.program.get(key, 0.0) + value


class TuneWorkload:
    """Tuning sessions driven step by step; one op is one ``step()``.

    A round is one session with a fresh backend and its own seed.
    """

    quality_name = "wips_gain"

    def __init__(self, name, seed, steps, cluster, population, method) -> None:
        self.name = name
        self.seed = seed
        self.steps = steps
        self._cluster = cluster
        self.population = population
        self.method = method
        self._ready = None

    def setup(self, tracer: Tracer = None) -> None:
        from repro import SHOPPING_MIX, Scenario

        self.scenario = Scenario(
            cluster=self._cluster(), mix=SHOPPING_MIX,
            population=self.population,
        )
        self._ready = self._session(0)

    def _session(self, index: int, backend=None):
        """A fresh session (and, unless given, backend) plus its baseline."""
        from repro import AnalyticBackend, ClusterTuningSession, make_scheme
        from repro.util.rng import derive_seed

        backend = backend or AnalyticBackend(approximation="auto")
        session = ClusterTuningSession(
            backend, self.scenario,
            scheme=make_scheme(self.scenario, self.method),
            seed=derive_seed(self.seed, self.name, index),
        )
        baseline = session.measure_baseline().window_stats(0).mean
        return backend, session, baseline

    def round(self, tracer: Tracer, traced: bool, index: int, meter: Meter) -> Round:
        if index == 0 and self._ready is not None:
            (backend, session, baseline), self._ready = self._ready, None
        else:
            backend, session, baseline = self._session(index)
        out = Round(ops=self.steps)
        before = backend.solution_cache_stats
        try:
            for _ in range(self.steps):
                meter.before_op()
                tracer.active = traced
                start = time.perf_counter()
                session.step()
                elapsed = time.perf_counter() - start
                tracer.active = False
                out.add_op(elapsed, meter.after_op(elapsed))
        except Exception as exc:  # a failed op fails its session
            tracer.active = False
            out.fail(self.steps, f"session {index}: step raised {exc!r}")
            return out
        best = session.history.best().performance
        gain = best / baseline - 1.0
        out.quality.append(gain)
        out.outputs.append((baseline, best))
        after = backend.solution_cache_stats
        out.add_program(
            "solcache", (after.hits - before.hits, after.misses - before.misses)
        )
        # The same seed on the warm backend must retrace the session.
        _, replay, replay_base = self._session(index, backend)
        replay.run(self.steps)
        problems = []
        if (replay_base, replay.history.best().performance) != (baseline, best):
            problems.append("best WIPS differs on replay")
        if not gain > 0:
            problems.append(f"wips_gain {gain:.4f} <= 0")
        if problems:
            out.fail(self.steps, f"session {index}: " + "; ".join(problems))
        return out

    def close(self) -> None:
        pass


class DesWorkload:
    """Simulator measurements; one op is one ``SimulationBackend.measure``.

    A round measures each mix once, each op with its own seed.
    """

    name = "des-validate"
    quality_name = "des_agreement_err"

    def __init__(self, seed, time_scale) -> None:
        self.seed = seed
        self.time_scale = time_scale

    def setup(self, tracer: Tracer = None) -> None:
        from repro import STANDARD_MIXES, AnalyticBackend, ClusterSpec, Scenario
        from repro.des.backend import SimulationBackend
        from repro.model.noise import NoiseModel

        cluster = ClusterSpec.three_tier(1, 1, 1)
        self.configuration = cluster.default_configuration()
        self.scenarios = {
            mix: Scenario(cluster=cluster, mix=STANDARD_MIXES[mix], population=120)
            for mix in MIXES
        }
        # The noise-free analytic reference, outside the timed ops.
        reference = AnalyticBackend(noise=NoiseModel(0.0, 0.0, 0.0))
        self.reference = {
            mix: reference.measure(sc, self.configuration, seed=0).wips
            for mix, sc in self.scenarios.items()
        }
        self.backend = SimulationBackend(time_scale=self.time_scale)

    def round(self, tracer: Tracer, traced: bool, index: int, meter: Meter) -> Round:
        from repro.des.backend import SimulationBackend
        from repro.util.rng import derive_seed

        # profile=True adds the phase and event diagnostics the traced run
        # reads; results are bit-identical either way.
        backend = (
            SimulationBackend(time_scale=self.time_scale, profile=True)
            if traced else self.backend
        )
        out = Round()
        for op, mix in enumerate(MIXES, start=len(MIXES) * index):
            seed = derive_seed(self.seed, self.name, op)
            out.ops += 1
            wips = None
            meter.before_op()
            try:
                tracer.active = traced
                start = time.perf_counter()
                wips = backend.measure(
                    self.scenarios[mix], self.configuration, seed=seed
                ).wips
                elapsed = time.perf_counter() - start
            except Exception as exc:
                out.fail(1, f"op {op}: measure raised {exc!r}")
                continue
            finally:
                tracer.active = False
            out.add_op(elapsed, meter.after_op(elapsed))
            out.outputs.append(wips)
            ratio = wips / self.reference[mix]
            out.quality.append(abs(ratio - 1.0))
            if not DES_BAND[0] <= ratio <= DES_BAND[1]:
                out.fail(1, f"op {op}: DES/analytic {ratio:.3f} outside {DES_BAND}")
        # Same seed, same simulation: re-measure the first round's last op.
        if index == 0 and wips is not None:
            again = backend.measure(
                self.scenarios[mix], self.configuration, seed=seed
            ).wips
            if again != wips:
                out.fail(1, f"op {op}: DES WIPS differs on re-measure")
        return out

    def close(self) -> None:
        pass


class Fig4Workload:
    """``fig4.run`` on a warm shared engine: the cache-hit path.

    Set-up runs the experiment once on a fresh engine: the fleet starts,
    and the store, memo and solution caches fill.  Each timed op is then
    one measurement the experiment consumes when it runs again on
    that engine, counted from its fixed plan: 3 mixes x (baseline +
    iterations) + 9 cross cells x baseline.  A round is one such rerun.
    Op latencies are the tuning steps, timed inside the fleet workers.
    """

    name = "fig4-matrix"
    quality_name = "wips_gain"

    def __init__(self, seed, iterations, baseline) -> None:
        self.seed = seed
        self.iterations = iterations
        self.baseline = baseline
        #: worker processes: 2, never more than the host has
        self.jobs = min(2, os.cpu_count() or 1)

    def setup(self, tracer: Tracer = None) -> None:
        from repro.experiments import fig4
        from repro.experiments.runner import ExperimentConfig
        from repro.parallel.engine import SharedEngine

        self.config = ExperimentConfig(
            iterations=self.iterations,
            baseline_iterations=self.baseline,
            seed=self.seed,
            jobs=self.jobs,
            engine="shared",
            speculate=True,
        )
        SharedEngine.reset()
        # The fleet forks during this run; workers keep the tracer state
        # they inherit, so it must be active for them to report steps.
        if tracer is not None:
            tracer.active = True
        try:
            self.cold = fig4.run(self.config)
        finally:
            if tracer is not None:
                tracer.active = False
                tracer.merge_spool()
                tracer.clear()
        self.cold_json = json.dumps(self.cold.canonical_dict(), sort_keys=True)
        for mix in ("browsing", "shopping"):
            if not self.cold.improvement(mix) > 0:
                raise RuntimeError(f"{mix} diagonal does not beat default")

    def round(self, tracer: Tracer, traced: bool, index: int, meter: Meter) -> Round:
        from repro.experiments import fig4
        from repro.parallel.engine import SharedEngine

        ops = 3 * (self.baseline + self.iterations) + 9 * self.baseline
        out = Round(ops=ops)
        before = SharedEngine.instance().stats()
        meter.before_op()
        try:
            tracer.active = traced
            start = time.perf_counter()
            result = fig4.run(self.config)
            elapsed = time.perf_counter() - start
        except Exception as exc:
            out.fail(ops, f"fig4 raised {exc!r}")
            return out
        finally:
            tracer.active = False
        out.wall_seconds += elapsed
        out.op_seconds += meter.after_op(elapsed)
        canonical = json.dumps(result.canonical_dict(), sort_keys=True)
        out.outputs.append(canonical)
        if canonical != self.cold_json:
            out.fail(ops, "matrix differs from the cold run's")
        out.quality.append(sum(result.improvement(m) for m in MIXES) / len(MIXES))
        cache = result.cache_stats or {}
        out.add_program("memo", (
            cache.get("measurement_hits", 0), cache.get("measurement_misses", 0)
        ))
        out.add_program("solcache", (
            cache.get("solution_hits", 0), cache.get("solution_misses", 0)
        ))
        out.add_program(
            "store.shared_hits",
            cache.get("measurement_shared_hits", 0)
            + cache.get("solution_shared_hits", 0),
        )
        after = SharedEngine.instance().stats()
        for key in ("runs", "gang_batches", "gang_rows"):
            out.add_program(f"engine.{key}", after[key] - before[key])
        tracer.merge_spool()
        out.latencies.extend(
            x * meter.factor for x in tracer.samples.pop("tuning.step", [])
        )
        if not out.latencies:
            out.fail(out.ops, "no step latencies came back from the fleet")
        return out

    def close(self) -> None:
        from repro.parallel.engine import SharedEngine

        SharedEngine.reset()


WORKLOADS = ("tune-partitioned", "fig4-matrix", "des-validate", "scale-fluid")


def make(name: str, seed: int, size: str = "full"):
    """The named workload at the given size."""
    from repro import ClusterSpec

    s = SIZES[size]
    if name == "tune-partitioned":
        return TuneWorkload(
            name, seed, s["tune_steps"],
            lambda: ClusterSpec.three_tier(2, 2, 2), 2000, "partitioning",
        )
    if name == "scale-fluid":
        return TuneWorkload(
            name, seed, s["scale_steps"], ClusterSpec.wide, 10**6, "duplication",
        )
    if name == "des-validate":
        return DesWorkload(seed, s["des_time_scale"])
    if name == "fig4-matrix":
        return Fig4Workload(seed, s["fig4_iterations"], s["fig4_baseline"])
    raise ValueError(f"unknown workload {name!r}; expected one of {sorted(WORKLOADS)}")
