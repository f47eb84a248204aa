"""The benchmark of record: one workload, one seed, one JSON result.

Run from the root of a checkout::

    python3 perfbench/run.py --workload tune-partitioned --seed 1 --seconds 24 --trace 0

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` the run measures for a third of its time untraced and
then replays the same rounds with every layer wrapped, and the last line
carries the per-layer metrics instead.  Lines before it give the same
numbers for people, plus host facts and checks.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: End-to-end metrics and their units (BENCHMARK.json lists the same).
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "rss_peak_mb": "MB",
}

#: Fresh processes that repeat the set-up after the ops; ``setup_s`` is the
#: median over them and the run's own set-up.
SETUP_PROBES = 2

#: Ops a run yields at least, so that ``op_ms_p90`` has 10 samples beyond it.
MIN_OPS = 100


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="work per round; tiny is for the benchmark's tests")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- statistics ----------------------------------------------------------
def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0-100)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def summarize(rounds) -> dict:
    """Totals and latency statistics over a list of rounds."""
    latencies = [x for r in rounds for x in r.latencies]
    op_seconds = sum(r.op_seconds for r in rounds)
    wall_seconds = sum(r.wall_seconds for r in rounds)
    done = sum(r.ops - r.failed for r in rounds)
    return {
        "ops": sum(r.ops for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "samples": len(latencies),
        "ops_per_s": done / op_seconds if op_seconds > 0 else 0.0,
        "op_ms_p50": percentile(latencies, 50) * 1e3 if latencies else 0.0,
        "op_ms_p90": percentile(latencies, 90) * 1e3 if latencies else 0.0,
        "op_seconds": op_seconds,
        "wall_seconds": wall_seconds,
        "wall_ops_per_s": done / wall_seconds if wall_seconds > 0 else 0.0,
        "quality": statistics.median(q for r in rounds for q in r.quality)
        if any(r.quality for r in rounds) else 0.0,
    }


# -- host facts ----------------------------------------------------------
def source_digest() -> str:
    """SHA-256 over the program's sources, for runs outside git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref
    return ref


def loadavg() -> str:
    return " ".join(f"{x:.2f}" for x in os.getloadavg())


def process_age() -> float:
    """Seconds since this process started (Linux clock ticks, 10 ms)."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


# -- set-up --------------------------------------------------------------
def setup_seconds(args) -> list[float]:
    """Process start to "ready" for fresh processes, one at a time.

    Each is scaled to the reference host speed by the mean of a
    calibration just before and one just after it.
    """
    import hostspeed

    times = []
    for _ in range(SETUP_PROBES):
        before = hostspeed.calibrate()
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--size", args.size, "--setup-probe"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
        finally:
            proc.stdout.close()
            proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe failed")
        kernel = (before + hostspeed.calibrate()) / 2
        times.append(elapsed * hostspeed.REFERENCE / kernel)
    return times


def run_rounds(workload, tracer, meter, traced: bool, seconds: float,
               count=None, min_ops: int = 1):
    """Rounds for about ``seconds`` of wall time (or exactly ``count``).

    A new round starts while the run would end no more than half a round
    past ``seconds``, and until the rounds hold ``min_ops`` ops.
    """
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(workload.round(tracer, traced, len(rounds), meter))
        if count is not None:
            if len(rounds) >= count:
                return rounds
            continue
        elapsed = time.perf_counter() - start
        if (elapsed * (1 + 0.5 / len(rounds)) >= seconds
                and sum(r.ops for r in rounds) >= min_ops):
            return rounds


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The shared engine's manager listens on a Unix socket in the temp dir;
    # keep it inside the checkout when the path fits a socket address.
    tmp = ROOT / ".perfbench" / "tmp"
    if len(str(tmp)) <= 60:
        tmp.mkdir(parents=True, exist_ok=True)
        os.environ["TMPDIR"] = str(tmp)
    import hostspeed
    import layers
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.make(args.workload, args.seed, args.size)
    if args.setup_probe:
        workload.setup()
        print("ready", flush=True)
        workload.close()
        return 0

    import numpy

    load_before = loadavg()
    spool = ROOT / ".perfbench" / f"spool-{os.getpid()}"
    spool.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(spool=spool)
    meter = hostspeed.Meter()
    try:
        layers.install(tracer, full=False)
        workload.setup(tracer)
        own_setup = process_age() * hostspeed.REFERENCE / hostspeed.calibrate()
        if args.trace:
            # A third of the time untraced, then the same rounds traced,
            # which is up to 2.5 times slower on des-validate.
            untraced = run_rounds(workload, tracer, meter, False, args.seconds / 3)
        else:
            untraced = run_rounds(workload, tracer, meter, False, args.seconds,
                                  min_ops=MIN_OPS if args.size == "full" else 1)
        traced = []
        if args.trace:
            # Set up again under the full wrappers: fleet workers only
            # carry the wrappers present when they fork.
            workload.close()
            tracer.unwrap_all()
            layers.install(tracer, full=True)
            workload.setup(tracer)
            tracer.clear()
            traced = run_rounds(workload, tracer, meter, True, 0,
                                count=len(untraced))
    finally:
        tracer.active = False
        tracer.unwrap_all()
        workload.close()
        if args.trace:
            tracer.write_records(ROOT / ".perfbench" / f"trace-{args.workload}-{args.seed}.jsonl")
        shutil.rmtree(spool, ignore_errors=True)
    rss_mb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    ) / 1024.0
    setups = [own_setup] + setup_seconds(args)
    load_after = loadavg()

    base = summarize(untraced)
    rounds = untraced + traced
    failures = [msg for r in rounds for msg in r.failures]
    if traced and [r.outputs for r in traced] != [r.outputs for r in untraced]:
        failures.append("tracing changed the program's results")
        for r in traced:
            r.failed = r.ops
    attempted = sum(r.ops for r in rounds)
    failed = sum(r.failed for r in rounds)
    correct = not failures

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"size={args.size}")
    print(f"host: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__} loadavg_before=[{load_before}] "
          f"loadavg_after=[{load_after}]")
    print(f"program: commit={commit()} source_sha256={source_digest()} "
          f"processes={1 + getattr(workload, 'jobs', 0)} during ops, "
          f"1 set-up probe at a time after them")
    print(f"ops: {base['ops']} untraced in {len(untraced)} round(s), "
          f"{base['samples']} latency samples, {base['failed']} failed")
    kernel = meter.kernel_seconds
    print(f"host speed: calibration kernel {statistics.median(kernel) * 1e3:.2f} ms "
          f"median, {min(kernel) * 1e3:.2f}-{max(kernel) * 1e3:.2f} ms over "
          f"{len(kernel)} calibrations (reference {hostspeed.REFERENCE * 1e3:g} ms); "
          f"wall-clock ops_per_s {base['wall_ops_per_s']:.6g}")
    print(f"{workload.quality_name}: {base['quality']:.6g} (median over the run)")
    print(f"setup_s samples (reference speed): {' '.join(f'{x:.4f}' for x in setups)}")
    e2e = {
        "setup_s": statistics.median(setups),
        "ops_per_s": base["ops_per_s"],
        "op_ms_p50": base["op_ms_p50"],
        "op_ms_p90": base["op_ms_p90"],
        "rss_peak_mb": rss_mb,
    }
    for name, value in e2e.items():
        print(f"  {name:<24} {value:>14.6g} {END_TO_END[name]}")
    metrics = {name: {"value": value, "unit": END_TO_END[name]}
               for name, value in e2e.items()}
    if traced:
        over = summarize(traced)
        program = workloads.Round()
        for r in traced:
            for key, value in r.program.items():
                program.add_program(key, value)
        per_layer = layers.layer_metrics(tracer, max(over["ops"], 1), program.program)
        per_layer["wips_gain"] = per_layer["des_agreement_err"] = 0.0
        per_layer[workload.quality_name] = over["quality"]
        per_layer["trace.ops_per_s_delta"] = over["ops_per_s"] - base["ops_per_s"]
        per_layer["trace.op_ms_p50_delta"] = over["op_ms_p50"] - base["op_ms_p50"]
        per_layer["trace.attributed_frac"] = (
            tracer.covered / over["wall_seconds"] if over["wall_seconds"] else 0.0
        )
        print(f"traced: {over['ops']} ops, ops_per_s {over['ops_per_s']:.6g}, "
              f"op_ms_p50 {over['op_ms_p50']:.6g}")
        for name, unit in layers.PER_LAYER.items():
            print(f"  {name:<24} {per_layer[name]:>14.6g} {unit}")
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, unit in layers.PER_LAYER.items()}
    print("checks: " + ("all passed" if correct else "; ".join(failures[:10])))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
