"""Fast tests of the benchmark itself (not of the program it measures).

Run from the root of the checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    human = proc.stdout.strip().rsplit("\n", 1)[0]
    for name in result["metrics"]:
        assert f" {name} " in human  # printed for people too


def test_self_time_arithmetic_on_a_synthetic_span_tree():
    # Clock reads in call order: root in, inner in, leaf in, leaf out,
    # inner out, leafy in, leaf in, leaf out, leafy out, root out.
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 5.5, 6.0, 7.0, 8.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))

    class Layers:
        def root(self):
            self.inner()
            self.leafy()

        def inner(self):
            self.leaf()

        def leafy(self):
            self.leaf()

        def leaf(self):
            pass

    tracer.wrap(Layers, "root", "root")
    tracer.wrap(Layers, "inner", "inner")
    tracer.wrap(Layers, "leafy", "leafy")
    tracer.wrap(Layers, "leaf", "leaf", leaf=True)
    tracer.active = True
    try:
        Layers().root()
    finally:
        tracer.unwrap_all()
    assert dict(tracer.totals) == {
        "root": [1, 10.0, 3.5],
        "inner": [1, 4.0, 2.0],
        "leafy": [1, 2.5, 1.5],
        "leaf": [2, 3.0, 3.0],
    }
    assert tracer.covered == 10.0
    # Leaves are folded into totals, not recorded; the records still give
    # the same self times.
    own = self_times(tracer.records)
    assert {name: own[sid] for sid, name, *_ in tracer.records} == {
        "root": 3.5, "inner": 2.0, "leafy": 1.5,
    }


def test_self_times_of_records():
    spans = [
        (0, "op", 0.0, 10.0, None, 0.0),
        (1, "a", 1.0, 6.0, 0, 0.5),
        (2, "b", 2.0, 3.0, 1, 0.0),
        (3, "c", 3.5, 5.0, 1, 0.0),
        (4, "d", 7.0, 9.0, 0, 0.0),
    ]
    assert self_times(spans) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 1.5, 4: 2.0}


def test_meter_scales_ops_by_the_median_of_recent_calibrations(monkeypatch):
    kernel_times = iter([0.040, 0.010, 0.020, 0.080])
    monkeypatch.setattr(hostspeed, "calibrate", lambda: next(kernel_times))
    meter = hostspeed.Meter()
    ref = hostspeed.REFERENCE
    meter.before_op()  # 40 ms: the host runs at half the reference speed
    assert meter.after_op(0.2) == pytest.approx(0.2 * ref / 0.040)
    meter.before_op()  # less than INTERVAL of ops since: no calibration
    assert meter.after_op(0.4) == pytest.approx(0.4 * ref / 0.040)
    meter.before_op()  # median of 40 and 10 ms (upper middle)
    assert meter.after_op(0.5) == pytest.approx(0.5 * ref / 0.040)
    meter.before_op()  # median of 40, 10, 20 ms
    assert meter.factor == pytest.approx(ref / 0.020)
    assert meter.kernel_seconds == [0.040, 0.010, 0.020]


def test_forced_check_failure_raises_failed_ops(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "DES_BAND", (2.0, 3.0))
    code = run.main(["--workload", "des-validate", "--seed", "3", "--seconds", "0",
                     "--trace", "0", "--size", "tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("des-validate", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
