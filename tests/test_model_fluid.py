"""Tests for the fluid/mean-field MVA solver."""

import pytest

from repro.model.mva import (
    MvaNetwork,
    Station,
    solve_mva,
    solve_mva_batch,
    solve_mva_exact,
    solve_mva_fluid,
)

#: Station sets for the parametrized exact-vs-fluid comparisons.
MIXES = {
    "balanced": [Station(f"s{i}", d) for i, d in enumerate([0.010, 0.012, 0.008])],
    "bottleneck": [Station(f"s{i}", d) for i, d in enumerate([0.050, 0.010, 0.005])],
    "skewed": [Station(f"s{i}", d) for i, d in enumerate([0.030, 0.001, 0.001])],
}


class TestValidation:
    def test_bad_population(self):
        with pytest.raises(ValueError):
            solve_mva_fluid([Station("s", 0.1)], 0, 1.0)

    def test_negative_think(self):
        with pytest.raises(ValueError):
            solve_mva_fluid([Station("s", 0.1)], 1, -1.0)

    def test_pure_delay(self):
        assert solve_mva_fluid([], 10, 2.0).throughput == pytest.approx(5.0)


class TestAgainstExact:
    """Fluid vs the exact MVA recursion, with explicit error bands.

    The fluid limit is asymptotically exact: the error peaks near the
    saturation knee (N* = (z + sum D)/D_max) and vanishes on both sides.
    """

    @pytest.mark.parametrize("mix", sorted(MIXES))
    @pytest.mark.parametrize("population", [1, 5, 20, 50, 100, 500, 2000])
    def test_error_band(self, mix, population):
        stations = MIXES[mix]
        exact = solve_mva_exact(stations, population, 1.0).throughput
        fluid = solve_mva_fluid(stations, population, 1.0).throughput
        # Worst case observed across these mixes is ~4.6e-2 at the knee.
        assert fluid == pytest.approx(exact, rel=6e-2)
        # Fluid never exceeds the capacity bound and never goes negative.
        d_max = max(s.demand / s.servers for s in stations)
        assert 0.0 < fluid <= 1.0 / d_max + 1e-9

    @pytest.mark.parametrize("mix", sorted(MIXES))
    def test_tight_far_from_knee(self, mix):
        stations = MIXES[mix]
        light = 1
        heavy = 5000
        for population, band in ((light, 1e-2), (heavy, 1e-3)):
            exact = solve_mva_exact(stations, population, 1.0).throughput
            fluid = solve_mva_fluid(stations, population, 1.0).throughput
            assert fluid == pytest.approx(exact, rel=band)

    def test_asymptotically_exact(self):
        # X -> 1/D_max as N -> inf; the error must shrink monotonically
        # well past the knee.
        stations = MIXES["bottleneck"]
        cap = 1.0 / max(s.demand for s in stations)
        errs = [
            abs(solve_mva_fluid(stations, n, 1.0).throughput - cap) / cap
            for n in (1_000, 100_000, 10_000_000)
        ]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-6


class TestAgainstSchweitzer:
    """Fluid vs Schweitzer on multi-server stations (no exact reference)."""

    @pytest.mark.parametrize("population", [50, 500, 5000])
    def test_multi_server(self, population):
        stations = [
            Station("a", 0.04, servers=4),
            Station("b", 0.02, servers=2),
            Station("c", 0.01),
        ]
        schw = solve_mva(stations, population, 1.0).throughput
        fluid = solve_mva_fluid(stations, population, 1.0).throughput
        assert fluid == pytest.approx(schw, rel=1e-2)


class TestDegenerates:
    def test_single_customer_zero_think(self):
        # The known small-N limitation: with z=0 and one station the
        # population equation rho/(1-rho) = 1 gives rho = 1/2, i.e. the
        # fluid X is half the exact 1/D.  This is why auto mode only
        # selects fluid at large N.
        result = solve_mva_fluid([Station("s", 0.1)], 1, 0.0)
        assert result.converged
        assert result.throughput == pytest.approx(5.0, rel=1e-6)
        assert solve_mva_exact(
            [Station("s", 0.1)], 1, 0.0
        ).throughput == pytest.approx(10.0)

    def test_single_station_large_n(self):
        result = solve_mva_fluid([Station("s", 0.01)], 10_000, 1.0)
        assert result.throughput == pytest.approx(100.0, rel=2e-4)
        assert result.utilization["s"] == pytest.approx(1.0, abs=2e-4)

    def test_zero_think_time_large_n(self):
        stations = MIXES["balanced"]
        fluid = solve_mva_fluid(stations, 2000, 0.0).throughput
        cap = 1.0 / max(s.demand for s in stations)
        assert fluid == pytest.approx(cap, rel=1e-3)

    def test_zero_demand_station(self):
        result = solve_mva_fluid(
            [Station("idle", 0.0), Station("busy", 0.02)], 1000, 1.0
        )
        assert result.utilization["idle"] == 0.0
        assert result.queue["idle"] == 0.0
        assert result.throughput == pytest.approx(50.0, rel=2e-3)

    def test_population_independence_of_cost(self):
        # The fixed point iterates to a tolerance on X, not over N: the
        # iteration count must not grow with the population.
        small = solve_mva_fluid(MIXES["balanced"], 1_000, 1.0).iterations
        huge = solve_mva_fluid(MIXES["balanced"], 10**9, 1.0).iterations
        assert huge <= small + 5


class TestBatchConsistency:
    def test_batch_matches_scalar(self):
        # Fluid rows in a batch must equal the scalar solver bit for bit.
        nets = [
            MvaNetwork(tuple(MIXES["balanced"]), n, 1.0, method="fluid")
            for n in (10, 500, 100_000)
        ]
        batch = solve_mva_batch(nets)
        for net, got in zip(nets, batch):
            ref = solve_mva_fluid(
                list(net.stations), net.population, net.think_time
            )
            assert got.throughput == ref.throughput
            assert got.response_time == ref.response_time
            assert got.iterations == ref.iterations
            assert got.queue == ref.queue

    def test_mixed_methods_batch(self):
        # Schweitzer and fluid rows mix in one batch; each row matches
        # its scalar reference exactly.
        nets = [
            MvaNetwork(tuple(MIXES["balanced"]), 100, 1.0),
            MvaNetwork(tuple(MIXES["bottleneck"]), 50_000, 1.0, method="fluid"),
            MvaNetwork(tuple(MIXES["skewed"]), 200, 1.0),
        ]
        batch = solve_mva_batch(nets)
        assert batch[0].throughput == solve_mva(
            list(nets[0].stations), 100, 1.0
        ).throughput
        assert batch[1].throughput == solve_mva_fluid(
            list(nets[1].stations), 50_000, 1.0
        ).throughput
        assert batch[2].throughput == solve_mva(
            list(nets[2].stations), 200, 1.0
        ).throughput

    def test_method_validation(self):
        with pytest.raises(ValueError):
            MvaNetwork(tuple(MIXES["balanced"]), 10, 1.0, method="magic")
