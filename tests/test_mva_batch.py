"""The batched MVA solver must match the scalar solver, bit for bit.

The batch entry point solves each row on its own, exactly as the scalar
solver does.  The contract (and what the experiment pipeline's
determinism rests on) is that every field of every result equals the
scalar solver's output exactly, whatever else shares the batch.  The property-style
test below checks that across randomized station sets, populations and
multi-server configurations, far beyond the issue's 1e-10 bar.
"""

import warnings

import numpy as np
import pytest

from repro.model.mva import MvaNetwork, Station, solve_mva, solve_mva_batch


def random_network(rng: np.random.Generator) -> MvaNetwork:
    n = int(rng.integers(0, 7))
    stations = tuple(
        Station(
            name=f"s{j}",
            demand=float(rng.uniform(0.0005, 0.08)),
            servers=int(rng.integers(1, 5)),
        )
        for j in range(n)
    )
    return MvaNetwork(
        stations=stations,
        population=int(rng.integers(1, 900)),
        think_time=float(rng.uniform(0.0, 8.0)),
        extra_delay=float(rng.uniform(0.0, 0.1)),
    )


class TestBatchMatchesScalar:
    @pytest.mark.parametrize("seed", range(10))
    def test_randomized_networks_bit_identical(self, seed):
        """30 random networks per seed: every result field matches exactly."""
        rng = np.random.default_rng(seed)
        nets = [random_network(rng) for _ in range(30)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            scalar = [
                solve_mva(
                    list(net.stations),
                    net.population,
                    net.think_time,
                    extra_delay=net.extra_delay,
                )
                for net in nets
            ]
            batch = solve_mva_batch(nets)
        assert len(batch) == len(nets)
        for a, b in zip(scalar, batch):
            assert b.throughput == a.throughput
            assert b.response_time == a.response_time
            assert b.residence == a.residence
            assert b.queue == a.queue
            assert b.utilization == a.utilization
            assert b.iterations == a.iterations
            assert b.converged == a.converged

    def test_within_issue_tolerance(self):
        """The headline acceptance bound: agreement to 1e-10 (we hold 0)."""
        rng = np.random.default_rng(99)
        nets = [random_network(rng) for _ in range(50)]
        scalar = [
            solve_mva(
                list(net.stations),
                net.population,
                net.think_time,
                extra_delay=net.extra_delay,
            )
            for net in nets
        ]
        batch = solve_mva_batch(nets)
        for a, b in zip(scalar, batch):
            assert abs(b.throughput - a.throughput) <= 1e-10
            for name in a.residence:
                assert abs(b.residence[name] - a.residence[name]) <= 1e-10

    def test_heterogeneous_station_counts_one_call(self):
        """Networks of different sizes may share one batch call."""
        nets = [
            MvaNetwork((), 10, 1.0),
            MvaNetwork((Station("a", 0.01),), 50, 2.0),
            MvaNetwork(
                (Station("a", 0.01), Station("b", 0.02, servers=4)), 200, 3.0
            ),
        ]
        batch = solve_mva_batch(nets)
        for net, got in zip(nets, batch):
            want = solve_mva(
                list(net.stations), net.population, net.think_time,
                extra_delay=net.extra_delay,
            )
            assert got.throughput == want.throughput
            assert got.queue == want.queue

    def test_zero_station_network(self):
        """A delay-only network is pure think time: X = N / (Z + delays)."""
        (res,) = solve_mva_batch([MvaNetwork((), 40, 2.0, extra_delay=0.5)])
        assert res.throughput == pytest.approx(40 / 2.5)
        assert res.converged

    def test_empty_batch(self):
        assert solve_mva_batch([]) == []

    def test_submission_order_preserved(self):
        """Grouping by station count must not reorder results."""
        rng = np.random.default_rng(3)
        nets = [random_network(rng) for _ in range(20)]
        batch = solve_mva_batch(nets)
        for net, got in zip(nets, batch):
            want = solve_mva(
                list(net.stations), net.population, net.think_time,
                extra_delay=net.extra_delay,
            )
            assert got.throughput == want.throughput


class TestConvergenceReporting:
    def test_scalar_warns_and_flags_non_convergence(self):
        stations = [Station("cpu", 0.05), Station("disk", 0.03)]
        with pytest.warns(RuntimeWarning, match="did not converge"):
            res = solve_mva(stations, 500, 1.0, max_iter=2)
        assert res.converged is False
        assert res.iterations == 2

    def test_scalar_converged_result_is_flagged(self):
        res = solve_mva([Station("cpu", 0.01)], 50, 1.0)
        assert res.converged is True
        assert res.iterations >= 1

    def test_batch_warns_like_scalar(self):
        nets = [
            MvaNetwork((Station("cpu", 0.05), Station("disk", 0.03)), 500, 1.0)
            for _ in range(3)
        ]
        with warnings.catch_warnings(record=True) as ws:
            warnings.simplefilter("always")
            batch = solve_mva_batch(nets, max_iter=2)
        assert sum(issubclass(w.category, RuntimeWarning) for w in ws) == 3
        assert all(not r.converged for r in batch)
        with warnings.catch_warnings(record=True) as ws:
            warnings.simplefilter("always")
            scalar = solve_mva(list(nets[0].stations), 500, 1.0, max_iter=2)
        assert batch[0].throughput == scalar.throughput

    def test_mva_network_validation(self):
        with pytest.raises(ValueError):
            MvaNetwork((), 0, 1.0)
        with pytest.raises(ValueError):
            MvaNetwork((), 10, -1.0)
