"""Property-based tests for the statistics, queueing and cache models."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.mva import (
    MVA_METHODS,
    MvaNetwork,
    Station,
    solve_mva,
    solve_mva_batch,
)
from repro.model.pools import mmck
from repro.tpcw.catalog import Catalog
from repro.util.stats import RunningStats

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)

#: (demand, servers) per station, as the MVA invariants draw them.
mva_station_specs = st.lists(
    st.tuples(
        st.floats(min_value=1e-4, max_value=1.0),
        st.integers(min_value=1, max_value=8),
    ),
    min_size=1,
    max_size=5,
)


@st.composite
def mva_networks(draw):
    """Random closed networks: multi-server and aggregated stations."""
    specs = draw(mva_station_specs)
    stations = tuple(
        Station(f"s{i}", d, c, draw(st.integers(min_value=1, max_value=4)))
        for i, (d, c) in enumerate(specs)
    )
    return MvaNetwork(
        stations,
        draw(st.integers(min_value=1, max_value=500)),
        draw(st.floats(min_value=0.0, max_value=100.0)),
        draw(st.floats(min_value=0.0, max_value=0.1)),
        draw(st.sampled_from(MVA_METHODS)),
    )


def _recurrence_throughput(net: MvaNetwork) -> float:
    """Reference: iterate the Schweitzer recurrence to a 1e-13 fixed point.

    The textbook sweep (queue seen on arrival -> residence -> throughput
    -> queue), with the arrival coefficient of the row's method.  Near
    saturation the sweep contracts slowly, so it stops on the geometric
    estimate of the distance still to go, not on the last step alone.
    """
    n = float(net.population)
    a = 1.0 if net.method == "fluid" else (n - 1.0) / n
    qd = [s.demand / s.servers for s in net.stations]
    m = [s.multiplicity for s in net.stations]
    z = net.think_time + net.extra_delay + sum(
        mk * s.demand * (s.servers - 1) / s.servers
        for mk, s in zip(m, net.stations)
    )
    q = [n / sum(m) / 2.0] * len(qd)
    x, last = 0.0, math.inf
    for _ in range(1_000_000):
        r = [d * (1.0 + a * qk) for d, qk in zip(qd, q)]
        x_new = n / (z + sum(mk * rk for mk, rk in zip(m, r)))
        q = [x_new * rk for rk in r]
        step, x = abs(x_new - x), x_new
        rho = step / last  # contraction factor of the sweep
        if step <= 4e-16 * x:  # at the rounding floor
            return x
        if rho < 1.0 and step <= 1e-13 * x * (1.0 - rho):
            return x
        last = step
    raise AssertionError("reference recurrence did not converge")


class TestRunningStatsProperties:
    @given(st.lists(finite_floats, min_size=1, max_size=50))
    def test_matches_numpy(self, data):
        s = RunningStats(data)
        assert s.mean == pytest.approx(float(np.mean(data)), rel=1e-9, abs=1e-7)
        if len(data) > 1:
            assert s.variance == pytest.approx(
                float(np.var(data, ddof=1)), rel=1e-6, abs=1e-6
            )

    @given(
        st.lists(finite_floats, min_size=1, max_size=30),
        st.lists(finite_floats, min_size=1, max_size=30),
    )
    def test_merge_equals_concatenation(self, a, b):
        merged = RunningStats(a).merge(RunningStats(b))
        combined = RunningStats(a + b)
        assert merged.mean == pytest.approx(combined.mean, rel=1e-9, abs=1e-7)
        assert merged.variance == pytest.approx(
            combined.variance, rel=1e-6, abs=1e-6
        )

    @given(st.lists(finite_floats, min_size=1, max_size=50))
    def test_min_le_mean_le_max(self, data):
        s = RunningStats(data)
        assert s.minimum - 1e-9 <= s.mean <= s.maximum + 1e-9


class TestMvaProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        mva_station_specs,
        st.integers(min_value=1, max_value=500),
        st.floats(min_value=0.0, max_value=100.0),
    )
    def test_invariants(self, station_specs, population, think):
        stations = [
            Station(f"s{i}", d, c) for i, (d, c) in enumerate(station_specs)
        ]
        result = solve_mva(stations, population, think)
        # Throughput positive and bounded by every capacity limit.
        assert result.throughput > 0
        for (d, c) in station_specs:
            assert result.throughput <= c / d * 1.01
        # Bounded by N / (Z + sum D) from below... and N/Z from above.
        if think > 0:
            assert result.throughput <= population / think * 1.01
        # Utilizations in [0, 1].
        for u in result.utilization.values():
            assert -1e-9 <= u <= 1.0 + 1e-9
        # Queues non-negative.
        for q in result.queue.values():
            assert q >= -1e-9

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=200))
    def test_monotone_in_population(self, n):
        stations = [Station("s", 0.05)]
        x1 = solve_mva(stations, n, 1.0).throughput
        x2 = solve_mva(stations, n + 10, 1.0).throughput
        assert x2 >= x1 - 1e-6


class TestMvaKernelProperties:
    """The root-find kernel against the recurrence and operational laws."""

    @settings(max_examples=80, deadline=None)
    @given(mva_networks())
    def test_matches_recurrence_fixed_point(self, net):
        (res,) = solve_mva_batch([net])
        reference = _recurrence_throughput(net)
        assert abs(res.throughput - reference) <= 1e-11 * reference

    @settings(max_examples=120, deadline=None)
    @given(mva_networks())
    def test_operational_laws(self, net):
        (res,) = solve_mva_batch([net])
        n = net.population
        x = res.throughput
        assert res.converged
        # Population conservation: think, pure delays and queues hold N.
        held = x * (net.think_time + net.extra_delay) + sum(
            s.multiplicity * res.queue[s.name] for s in net.stations
        )
        assert abs(held - n) <= 1e-12 * n
        # Little's law over the whole cycle.
        cycle = x * (res.response_time + net.think_time)
        assert cycle == pytest.approx(n, rel=1e-12)
        # Utilization law, capped at saturation.
        for s in net.stations:
            assert res.utilization[s.name] == pytest.approx(
                min(x * s.demand / s.servers, 1.0), rel=1e-12
            )


class TestMmckProperties:
    @settings(max_examples=80, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=50.0),
        st.floats(min_value=1e-3, max_value=10.0),
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=0, max_value=64),
    )
    def test_invariants(self, lam, hold, servers, extra):
        res = mmck(lam, hold, servers, servers + extra)
        assert 0.0 <= res.blocking <= 1.0
        assert res.wait >= 0.0
        assert 0.0 <= res.busy <= servers + 1e-9
        assert math.isfinite(res.wait)
        # Accepted throughput cannot exceed the pool's service capacity.
        accepted = lam * (1 - res.blocking)
        assert accepted <= servers / hold + 1e-6


class TestCatalogProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=50, max_value=2000),
        st.floats(min_value=0.0, max_value=1.5),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_hit_fraction_in_unit_interval(self, scale, zipf, seed):
        cat = Catalog(scale=scale, zipf_exponent=zipf, seed=seed)
        for cache in (0.0, 1e6, 1e9):
            h = cat.hit_fraction(cache)
            assert 0.0 <= h <= 1.0

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=50, max_value=1000),
        st.integers(min_value=0, max_value=2**31),
        st.lists(
            st.floats(min_value=1e4, max_value=1e9),
            min_size=2, max_size=6,
        ),
    )
    def test_hit_fraction_monotone_in_capacity(self, scale, seed, sizes):
        cat = Catalog(scale=scale, seed=seed)
        sizes = sorted(sizes)
        hits = [cat.hit_fraction(s) for s in sizes]
        assert all(a <= b + 1e-12 for a, b in zip(hits, hits[1:]))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_tighter_bounds_never_increase_hits(self, seed):
        cat = Catalog(scale=500, seed=seed)
        cache = 8e6
        wide = cat.hit_fraction(cache, 0.0, 1e9)
        narrow = cat.hit_fraction(cache, 2048.0, 64 * 1024.0)
        assert narrow <= wide + 1e-12
