"""Single-class approximate Mean Value Analysis: one root-find per network.

Solves a closed queueing network with ``N`` customers, a think-time delay
``Z``, and a set of queueing stations.  Multi-server stations use Seidmann's
transformation: an *m*-server station with per-visit demand ``D`` behaves
(approximately) like a single-server station of demand ``D/m`` in series
with a pure delay of ``D·(m-1)/m``.

After that split, both approximations this module offers are one
monotone scalar equation in the throughput ``X``::

    X·z + Σ_k m_k · r_k / (1 − a·r_k) = N,     r_k = X·D_k

where ``D_k`` is station k's queueing demand, ``m_k`` its multiplicity,
``z`` the think time plus every pure delay, and ``a`` the
arrival-theorem coefficient.  Schweitzer's fixed point (an arriving
customer sees ``(N−1)/N`` of the queue) is ``a = (N−1)/N``.  The fluid /
mean-field limit is ``a = 1``.  At ``N = 1`` Schweitzer's equation is
linear and exact.

The kernel divides the bottleneck pole out.  In ``y``, the bottleneck
replica's queue, the equation becomes::

    Σ_j w_j · y / (1 + b_j·y) = N

The think term has ``w = z/D_max, b = a``; station k has
``w = m_k·D_k/D_max, b = a·(D_max − D_k)/D_max``.  Every term is
increasing and concave with no pole on ``y ≥ 0``.  So Newton's method
started below the root climbs monotonically onto it.  The start is the
larger of two closed-form lower bounds, and a solve takes a handful of
steps at any ``N``: the cost is O(steps × stations), independent of the
population.  Throughput, residence and queues follow from the root in
closed form, without the cancellation in ``1 − a·r_k`` near saturation.

:func:`solve_mva_batch` loops over rows.  :func:`solve_mva` and
:func:`solve_mva_fluid` solve one network the same way, so scalar and
batched results are bit-identical by construction.

References: Reiser & Lavenberg (exact MVA); Schweitzer 1979; Seidmann,
Schweitzer & Shalev-Oren 1987; Chen & Yao, *Fundamentals of Queueing
Networks* (fluid limits).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "Station",
    "MvaResult",
    "MvaNetwork",
    "MVA_METHODS",
    "solve_mva",
    "solve_mva_batch",
    "solve_mva_exact",
    "solve_mva_fluid",
]


@dataclass(frozen=True)
class Station:
    """One service centre: a label, per-customer demand, and server count.

    ``multiplicity`` marks an *aggregated* station: one row standing in
    for that many identical replicas (hierarchical MVA over a homogeneous
    tier).  Per-station outputs (residence, queue, utilization) describe a
    single replica; network-level sums weight the station by its
    multiplicity.  The default of 1 is an ordinary station.
    """

    name: str
    demand: float  # total service demand per customer visit cycle, seconds
    servers: int = 1
    multiplicity: int = 1

    def __post_init__(self) -> None:
        if self.demand < 0:
            raise ValueError(f"{self.name}: demand must be non-negative")
        if self.servers < 1:
            raise ValueError(f"{self.name}: servers must be >= 1")
        if self.multiplicity < 1:
            raise ValueError(f"{self.name}: multiplicity must be >= 1")


@dataclass(frozen=True)
class MvaResult:
    """Solution of the closed network."""

    #: System throughput, customers (interactions) per second.
    throughput: float
    #: Total response time per cycle excluding think time, seconds.
    response_time: float
    #: Per-station residence time (queueing + service + Seidmann delay).
    residence: dict[str, float]
    #: Per-station mean queue length (customers in station).
    queue: dict[str, float]
    #: Per-station utilization (fraction of total service capacity busy).
    utilization: dict[str, float]
    #: Newton steps used (0 for a network with no queueing).
    iterations: int
    #: Whether the root was found within ``max_iter`` steps.
    converged: bool = True

    def bottleneck(self) -> str:
        """Name of the most utilized station."""
        return max(self.utilization, key=self.utilization.get)  # type: ignore[arg-type]


#: Solution methods a :class:`MvaNetwork` row may request.
MVA_METHODS = ("schweitzer", "fluid")

#: Relative Newton step at which a root counts as found.  Convergence is
#: quadratic, so the next step would move the root by ~1e-24 relative:
#: below the last bit of a double.
_STEP_TOL = 1e-12


@dataclass(frozen=True)
class MvaNetwork:
    """One closed network in a :func:`solve_mva_batch` submission.

    ``method`` selects the arrival-theorem coefficient of the row's
    population equation: ``"schweitzer"`` (the default, ``a = (N-1)/N``)
    or ``"fluid"`` (the mean-field limit, ``a = 1``).  Both run the same
    kernel at the same cost; a batch may mix them freely.
    """

    stations: tuple[Station, ...]
    population: int
    think_time: float
    extra_delay: float = 0.0
    method: str = "schweitzer"

    def __post_init__(self) -> None:
        if self.population < 1:
            raise ValueError("population must be >= 1")
        if self.think_time < 0 or self.extra_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.method not in MVA_METHODS:
            raise ValueError(
                f"unknown MVA method {self.method!r}; expected one of "
                f"{MVA_METHODS}"
            )


def _solve_network(net: MvaNetwork, max_iter: int) -> MvaResult:
    """Newton root of one network's population equation, outputs in
    closed form from the root (see the module docstring)."""
    stations = net.stations
    N = float(net.population)
    a = 1.0 if net.method == "fluid" else (N - 1.0) / N
    mult = [s.multiplicity for s in stations]
    # Seidmann: queueing part D/m, delay part D*(m-1)/m.
    q_demand = [s.demand / s.servers for s in stations]
    s_delay = [s.demand * (s.servers - 1.0) / s.servers for s in stations]
    z = net.think_time + net.extra_delay
    z += sum(m * d for m, d in zip(mult, s_delay))
    d_max = max(q_demand, default=0.0)
    if d_max <= 0.0:
        # No queueing anywhere (demand is non-negative, so every station
        # is idle): a pure delay system.
        x = N / z if z > 0 else float("inf")
        idle = {s.name: 0.0 for s in stations}
        return MvaResult(x, net.extra_delay, idle, dict(idle), dict(idle), 0)

    # Pole divided out: in y, the bottleneck replica's queue, the
    # population equation is sum_j w_j*y/(1 + b_j*y) = N.  The think
    # term leads; a bottleneck station has b = 0 exactly.
    w = [z / d_max] + [m * d / d_max for m, d in zip(mult, q_demand)]
    b = [a] + [a * (d_max - d) / d_max for d in q_demand]
    terms = list(zip(w, b))
    # Two lower bounds on the root: the tangent at 0 (the terms are
    # concave) and the linear asymptote (each b > 0 term stays below
    # w/b).  Newton on a concave increasing function climbs from below.
    linear = sum(wj for wj, bj in terms if bj <= 0.0)
    ceiling = sum(wj / bj for wj, bj in terms if bj > 0.0)
    y = max(N / sum(w), (N - ceiling) / linear)
    it = 0
    converged = False
    for it in range(1, max_iter + 1):
        f = -N
        slope = 0.0
        for wj, bj in terms:
            g = 1.0 + bj * y
            f += wj * y / g
            slope += wj / (g * g)
        if f >= 0.0:  # at the root up to rounding: iterates climb to it
            converged = True
            break
        step = -f / slope
        y += step
        if step <= _STEP_TOL * y:
            converged = True
            break
    if not converged:
        warnings.warn(
            f"MVA fixed point did not converge within {max_iter} "
            f"iterations (N={net.population}, {len(stations)} stations); "
            f"returning the last iterate",
            RuntimeWarning,
            stacklevel=3,
        )

    lift = 1.0 + a * y  # 1/(1 - a*r) at the bottleneck
    x = y / (d_max * lift)
    residence: dict[str, float] = {}
    queue: dict[str, float] = {}
    utilization: dict[str, float] = {}
    response = net.extra_delay
    for s, m, d, sd, bk in zip(stations, mult, q_demand, s_delay, b[1:]):
        # 1 - a*r_k = (1 + b_k*y)/lift, free of cancellation near the pole.
        g = 1.0 + bk * y
        r = d * lift / g + sd
        residence[s.name] = r
        queue[s.name] = d / d_max * y / g + x * sd
        utilization[s.name] = min(x * d, 1.0)
        response += m * r
    return MvaResult(
        throughput=x,
        response_time=response,
        residence=residence,
        queue=queue,
        utilization=utilization,
        iterations=it,
        converged=converged,
    )


def solve_mva_batch(
    networks: Sequence[MvaNetwork],
    max_iter: int = 10_000,
) -> list[MvaResult]:
    """Solve independent closed networks, in submission order.

    Each row runs its own root-find (:class:`MvaNetwork` ``method``
    picks the coefficient), so a row's result never depends on what
    else shares the batch: it equals :func:`solve_mva` (or
    :func:`solve_mva_fluid`) on that network alone, bit for bit.
    """
    return [_solve_network(net, max_iter) for net in networks]


def solve_mva(
    stations: Sequence[Station],
    population: int,
    think_time: float,
    extra_delay: float = 0.0,
    max_iter: int = 10_000,
) -> MvaResult:
    """Solve the closed network at Schweitzer's fixed point.

    Parameters
    ----------
    stations:
        Queueing stations (multi-server handled via Seidmann).
    population:
        Number of circulating customers (emulated browsers), >= 1.
    think_time:
        Pure delay per cycle (EB think time), seconds.
    extra_delay:
        Additional pure delay per cycle (e.g. pool waiting times computed by
        an outer fixed point, or network propagation).
    max_iter:
        Newton step cap; exhausting it warns and returns the last iterate.
    """
    net = MvaNetwork(tuple(stations), population, think_time, extra_delay)
    return _solve_network(net, max_iter)


def solve_mva_fluid(
    stations: Sequence[Station],
    population: int,
    think_time: float,
    extra_delay: float = 0.0,
) -> MvaResult:
    """Solve the closed network in the fluid (mean-field) limit.

    Accepts exactly the inputs of :func:`solve_mva` and returns the same
    result shape at the same, population-independent cost.  As ``N → ∞``
    the solution lands on the asymptotic bottleneck regime
    ``X → 1/max D_k`` with all excess population queued at the
    bottleneck.  At small populations the open-queue backlog overstates
    queueing (one customer, no think time: ``X = 1/(2D)``), which is why
    the :class:`repro.model.analytic.AnalyticBackend` ``"auto"`` policy
    keeps Schweitzer below a population threshold.
    """
    net = MvaNetwork(
        tuple(stations), population, think_time, extra_delay, method="fluid"
    )
    return _solve_network(net, 10_000)


def solve_mva_exact(
    stations: Sequence[Station],
    population: int,
    think_time: float,
    extra_delay: float = 0.0,
) -> MvaResult:
    """Exact MVA (Reiser–Lavenberg population recursion).

    Only valid for single-server stations (``servers == 1``); it exists as
    the ground-truth reference the Schweitzer approximation is tested
    against, and for small models where exactness is cheap (O(N·K)).
    """
    if population < 1:
        raise ValueError("population must be >= 1")
    if think_time < 0 or extra_delay < 0:
        raise ValueError("delays must be non-negative")
    for s in stations:
        if s.servers != 1:
            raise ValueError(
                f"exact MVA supports single-server stations only; "
                f"{s.name!r} has {s.servers}"
            )
        if s.multiplicity != 1:
            raise ValueError(
                f"exact MVA does not support aggregated stations; "
                f"expand {s.name!r} (multiplicity {s.multiplicity}) into "
                f"explicit replicas"
            )
    demand = np.array([s.demand for s in stations], dtype=float)
    z = think_time + extra_delay
    queue = np.zeros(len(stations))
    x = 0.0
    residence = demand.copy()
    for n in range(1, population + 1):
        residence = demand * (1.0 + queue)
        total = z + float(residence.sum())
        x = n / total if total > 0 else float("inf")
        queue = x * residence
    utilization = np.minimum(x * demand, 1.0)
    return MvaResult(
        throughput=float(x),
        response_time=float(residence.sum()) + extra_delay,
        residence={s.name: float(r) for s, r in zip(stations, residence)},
        queue={s.name: float(q) for s, q in zip(stations, queue)},
        utilization={s.name: float(u) for s, u in zip(stations, utilization)},
        iterations=population,
    )
