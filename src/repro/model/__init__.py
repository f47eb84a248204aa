"""Analytic performance backend.

The paper measures WIPS on a live testbed; we replace the testbed with a
closed queueing-network model solved by approximate Mean Value Analysis:

* :mod:`repro.model.base` — the backend interface (:class:`Scenario` in,
  :class:`Measurement` out) shared with the discrete-event backend,
* :mod:`repro.model.mva` — single-class Schweitzer AMVA and its fluid
  (mean-field) limit, one N-independent root-find per network, with
  Seidmann's multi-server transformation,
* :mod:`repro.model.pools` — M/M/c/K waiting/blocking corrections for the
  finite thread/connection pools (``maxProcessors``, ``acceptCount``,
  ``max_connections``…),
* :mod:`repro.model.demands` — assembles per-node station demands from the
  server models of :mod:`repro.cluster`,
* :mod:`repro.model.hierarchy` — replica-group detection for hierarchical
  (one-representative-per-tier) aggregation,
* :mod:`repro.model.analytic` — the :class:`AnalyticBackend` fixed-point
  solver (its ``approximation=`` knob selects exact/fluid/hierarchical),
* :mod:`repro.model.noise` — the measurement-noise model.
"""

from repro.model.analytic import APPROXIMATIONS, AnalyticBackend
from repro.model.base import (
    Measurement,
    PerformanceBackend,
    ResourceUtilization,
    Scenario,
)
from repro.model.hierarchy import AggregationPlan, aggregation_plan
from repro.model.mva import (
    MvaResult,
    Station,
    solve_mva,
    solve_mva_exact,
    solve_mva_fluid,
)
from repro.model.mva_multiclass import (
    CustomerClass,
    MultiClassResult,
    solve_mva_multiclass,
)
from repro.model.noise import NoiseModel
from repro.model.pools import PoolResult, mmck

__all__ = [
    "Scenario",
    "Measurement",
    "ResourceUtilization",
    "PerformanceBackend",
    "Station",
    "MvaResult",
    "solve_mva",
    "solve_mva_exact",
    "solve_mva_fluid",
    "AggregationPlan",
    "aggregation_plan",
    "APPROXIMATIONS",
    "CustomerClass",
    "MultiClassResult",
    "solve_mva_multiclass",
    "PoolResult",
    "mmck",
    "AnalyticBackend",
    "NoiseModel",
]
