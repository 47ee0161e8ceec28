"""Benchmark of finvariant: one workload per run, closed loop, one thread.

    python3 bench/run.py --workload {series,decide,tour} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports finvariant from ``src/``.
One caller runs the workload's fixed job list, one job at a time, round after
round, until ``--seconds`` have passed (at least one round). Each job's
output is checked after its round, outside the timed region.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` rounds alternate between untraced
and traced, and the JSON carries the per-layer metrics of the traced rounds.
Earlier lines report the failure ratio, sample counts and run metadata. The
full result, with that metadata, is also written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import deque
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("series", "decide", "tour")

# Fresh processes timed from spawn to the end of set-up; setup_s is their median.
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 120

# Host-speed calibration, see HostSpeed.
CAL_REFERENCE_S = 0.003
CAL_WINDOW = 3
CAL_EVERY_S = 0.1


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set the workload up, print 'ready' and exit (used to time set-up)")
    return p.parse_args(argv)


def workdir(workload: str) -> Path:
    return OUT / f"work-{workload}-{os.getpid()}"


def setup(workload: str, seed: int):
    import workloads
    return workloads.SETUPS[workload](seed, workdir(workload))


def time_setups(args, speed: "HostSpeed") -> tuple[list[float], list[float]]:
    """Times of fresh processes from spawn until their set-up is done: (normalised, raw)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    normalised, raw = [], []
    for _ in range(SETUP_REPEATS):
        cal = [speed.calibrate() for _ in range(CAL_WINDOW)]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.communicate(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up process failed with exit code {proc.returncode}")
        cal += [speed.calibrate() for _ in range(CAL_WINDOW)]
        raw.append(ready - start)
        normalised.append((ready - start) * CAL_REFERENCE_S / statistics.median(cal))
    return normalised, raw


def calibration_work():
    """Fixed pure-Python work (rational and integer arithmetic) that uses no finvariant code."""
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i % 7 - 3, i)
    x = 1
    for i in range(6000):
        x = (x * 31 + i) % 1000003
    return acc, x


class HostSpeed:
    """Tracks the speed of the host by timing calibration_work between jobs.

    Other tenants of a shared host change its speed by tens of percent over
    seconds to minutes. Times are scaled by CAL_REFERENCE_S over the median
    of the last CAL_WINDOW calibration times, which turns them into times on
    a host where the calibration takes CAL_REFERENCE_S. The scaling cancels
    the host's speed and leaves the program's: finvariant code never runs in
    the calibration. A calibration runs before a job once CAL_EVERY_S have
    passed since the last one.
    """

    def __init__(self):
        self.samples: deque[float] = deque(maxlen=CAL_WINDOW)
        self.last = -math.inf
        for _ in range(CAL_WINDOW):
            self.calibrate()

    def calibrate(self) -> float:
        start = time.perf_counter()
        calibration_work()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.last = end
        return end - start

    def tick(self) -> None:
        if time.perf_counter() - self.last > CAL_EVERY_S:
            self.calibrate()

    def factor(self) -> float:
        return CAL_REFERENCE_S / statistics.median(self.samples)


def run_round(wl, tracer, speed: HostSpeed, round_no: int):
    """Run every job once; return (normalised latencies, raw latencies, outputs)."""
    wl.start_round()
    outputs, latencies, raw = [], [], []
    if tracer is not None:
        tracer.install()
    try:
        for i, job in enumerate(wl.jobs):
            speed.tick()
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = job.run()
                else:
                    out = tracer.run_job(round_no * len(wl.jobs) + i, job.kind, job.run)
                exc = None
            except Exception as e:  # a crashing job is a failed job, not a crashed benchmark
                out, exc = None, e
            elapsed = time.perf_counter() - t0
            raw.append(elapsed)
            latencies.append(elapsed * speed.factor())
            outputs.append((out, exc))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return latencies, raw, outputs


def check_round(wl, outputs, tally: dict) -> None:
    for job, (out, exc) in zip(wl.jobs, outputs):
        tally["attempted"] += 1
        ok = False
        if exc is None:
            try:
                ok = bool(job.check(out))
            except Exception:
                traceback.print_exc(file=sys.stderr)
        elif tally["tracebacks"] < 3:
            tally["tracebacks"] += 1
            traceback.print_exception(exc, file=sys.stderr)
        if not ok:
            tally["failed"] += 1
            key = "known_defect" if job.known_defect else "unexpected"
            tally[key] += 1
            tally["failed_kinds"][job.kind] = tally["failed_kinds"].get(job.kind, 0) + 1


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99), by statistics.quantiles' exclusive method."""
    return statistics.quantiles(values, n=100)[q - 1]


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


def commit() -> str:
    """The checkout's commit from .git, if it is a repository, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args) -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit(), "seed": args.seed, "workload": args.workload,
            "trace": args.trace, "seconds": args.seconds, "src_lines": src_lines()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "finvariant" / "__init__.py").is_file():
        print(f"error: no finvariant package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))

    if args.setup_only:
        wl = setup(args.workload, args.seed)
        wl.close()
        print("ready", flush=True)
        return 0

    speed = HostSpeed()
    setup_times, setup_raw = ([], []) if args.trace else time_setups(args, speed)
    wl = setup(args.workload, args.seed)
    tracer = None
    if args.trace:
        import finvariant
        from tracer import Tracer
        tracer = Tracer(finvariant)

    latencies: list[float] = []
    raw_latencies: list[float] = []
    round_s: list[float] = []
    traced_round_s: list[float] = []
    tally = {"attempted": 0, "failed": 0, "known_defect": 0, "unexpected": 0,
             "tracebacks": 0, "failed_kinds": {}}
    start = time.perf_counter()
    round_no = 0
    try:
        if tracer is not None:
            # a traced run compares traced with untraced rounds, so it first
            # fills the library's caches in a round that counts for neither
            _, _, outputs = run_round(wl, None, speed, round_no)
            check_round(wl, outputs, tally)
            round_no += 1
        while True:
            # traced runs alternate traced and untraced rounds
            traced = tracer is not None and round_no % 2 == 1
            lat, raw, outputs = run_round(wl, tracer if traced else None, speed, round_no)
            if traced:
                traced_round_s.append(sum(lat))
            else:
                round_s.append(sum(lat))
                latencies += lat
                raw_latencies += raw
            check_round(wl, outputs, tally)
            round_no += 1
            # stop before a round that would end past --seconds
            elapsed = time.perf_counter() - start
            done = elapsed + elapsed / round_no > args.seconds
            if done and (tracer is None or (traced_round_s and round_s)):
                break
    finally:
        wl.close()

    jobs = len(wl.jobs)
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "jobs_per_s": (statistics.median(jobs / r for r in round_s), "1/s"),
            "job_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "job_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        from tracer import layer_metrics
        metrics = layer_metrics(tracer, len(traced_round_s))
        metrics["trace.overhead_ratio"] = (
            statistics.median(traced_round_s) / statistics.median(round_s) - 1, "1")
        tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")

    # a run is correct when every failed job is a known, documented defect
    correct = tally["unexpected"] == 0
    meta = metadata(args)
    info = {"failed_ratio": tally["failed"] / tally["attempted"],
            "failed_kinds": tally["failed_kinds"], "rounds": round_no,
            "jobs_per_round": jobs, "latency_samples": len(latencies),
            "spans_dropped": tracer.dropped if tracer else 0,
            # the same timings before host-speed normalisation
            "raw": {"setup_s": statistics.median(setup_raw) if setup_raw else None,
                    "job_p50_ms": statistics.median(raw_latencies) * 1e3,
                    "job_p90_ms": percentile(raw_latencies, 90) * 1e3,
                    "host_factor": CAL_REFERENCE_S / statistics.median(speed.samples)}}
    result = {"correct": correct, "attempted": tally["attempted"], "failed": tally["failed"],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    OUT.mkdir(parents=True, exist_ok=True)
    record = dict(result, meta=meta, info=info)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("meta " + json.dumps(meta))
    print("info " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
