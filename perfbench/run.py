"""pbkernel benchmark: one closed-loop client, in process.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload enum --seed 1 --seconds 30 --trace 0

The client sends the next job only after the previous one finished and
was checked; checks run after the job's timer stops.  Whole cycles of
jobs run until ``--seconds`` have passed, going through the workload's
pool of inputs several times.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes over the
pool and prints the per-layer metrics and the tracing overhead.

Host-speed correction: on a shared host the speed of this process
drifts by up to 2x for tens of seconds at a time (another tenant on the
sibling hardware thread), and CPU time drifts with wall time.  So the
runner times a short fixed Fraction loop (the speed probe) every
SPEED_PROBE_EVERY_S between jobs, and every time metric is scaled by
NOMINAL_PROBE_S / (median probe time within SPEED_WINDOW_S of the job).
Times are therefore seconds on a host where the probe takes
NOMINAL_PROBE_S.  The probe does not touch pbkernel, so the correction
depends on the host alone.  Raw times are kept in the diagnostics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the ``#`` lines
before it and ``.perfbench_run/result-*.json`` carry the diagnostics.
pbkernel is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"

#: set-up is repeated in this many fresh processes, half before and half
#: after the timed loop; setup_s is their median
SETUP_SAMPLES = 8
#: the tail is the latency with this many jobs beyond it
TAIL_BEYOND = 10
#: iterations of the start/end host-speed diagnostic and of the speed probe
HOST_PROBE_ITERS = 20000
SPEED_PROBE_ITERS = 4000
SPEED_PROBE_EVERY_S = 0.25
SPEED_WINDOW_S = 1.0
#: speed-probe time of an uncontended 2-core x86-64 sandbox (Python 3.11)
NOMINAL_PROBE_S = 0.008

END_TO_END = [
    ("jobs_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("cpu_per_job_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("verified_frac", "ratio"),
]


def load_pbkernel() -> None:
    """Put the checkout's ``src`` first on the import path, or exit with code 2."""
    if not (SRC / "pbkernel" / "__init__.py").is_file():
        print(f"error: no pbkernel sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pbkernel

    if Path(pbkernel.__file__).resolve().parent != (SRC / "pbkernel").resolve():
        print(f"error: pbkernel imported from {pbkernel.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def probe(iters: int) -> float:
    """Seconds for a fixed pure-Python Fraction loop of ``iters`` steps."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, iters + 1):
        acc += Fraction(i % 7 - 3, i % 5 + 1)
    return time.perf_counter() - start


class SpeedLog:
    """Speed-probe times by the monotonic time they were taken."""

    def __init__(self):
        self.times, self.probes = [], []
        self.last = float("-inf")

    def sample(self) -> None:
        now = time.monotonic()
        self.probes.append(probe(SPEED_PROBE_ITERS))
        self.times.append(now)
        self.last = now

    def maybe_sample(self) -> None:
        if time.monotonic() - self.last >= SPEED_PROBE_EVERY_S:
            self.sample()

    def factor(self, t: float) -> float:
        """NOMINAL_PROBE_S over the median probe within SPEED_WINDOW_S of t."""
        lo = bisect.bisect_left(self.times, t - SPEED_WINDOW_S)
        hi = bisect.bisect_right(self.times, t + SPEED_WINDOW_S)
        if lo == hi:  # no probe that close: take the nearest one
            i = min(bisect.bisect_left(self.times, t), len(self.times) - 1)
            lo, hi = i, i + 1
        return NOMINAL_PROBE_S / statistics.median(self.probes[lo:hi])


def source_version() -> dict:
    """Commit when the checkout is a git work tree, and a digest of src/."""
    commit = "unknown"
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                commit = loose.read_text().strip()
            else:
                for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                    if line.endswith(" " + name):
                        commit = line.split()[0]
        else:
            commit = ref
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "pbkernel").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16]}


def set_up(workload: str, seed: int, workdir: Path) -> list:
    """Everything before the first timed job: imports, inputs, files, warm-up."""
    load_pbkernel()
    import workloads

    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    pool = workloads.build(workload, seed, workdir)
    for job in workloads.build(workload, seed, workdir / "warm-up", toy=True)[0]:
        job.check(job.run())
    return pool


def measure_setup(workload: str, seed: int, count: int) -> list:
    """(raw, corrected) seconds from spawning a fresh interpreter to the
    point where it would send its first timed job, once per sample.  The
    child runs the speed probe after that point, so the correction uses
    the speed of the hardware thread the child ran on."""
    samples = []
    for k in range(count):
        workdir = RUN_DIR / f"setup-{workload}-{seed}-{k}"
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(seed), "--setup-probe", str(workdir)]
        start = time.monotonic()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        ready, *probes = (float(v) for v in proc.stdout.split())
        raw = ready - start
        samples.append((raw, raw * NOMINAL_PROBE_S / statistics.median(probes)))
        shutil.rmtree(workdir, ignore_errors=True)
    return samples


class Sample(NamedTuple):
    label: str
    key: tuple  # (cycle in the pool, position): one input
    start: float  # time.monotonic() when the job was sent
    latency: float
    cpu: float
    ok: bool
    traced: bool


def run_jobs(pool: list, seconds: float, tracer=None, speed=None) -> tuple:
    """Run whole cycles of the pool until ``seconds`` have passed.

    Every input runs at least once.  With a tracer, odd passes over the
    pool are traced and even ones are not, and at least one of each
    runs.  With a SpeedLog, the speed probe runs between jobs.  Returns
    (raw samples, failure messages).
    """
    samples, failures = [], []
    deadline = time.monotonic() + seconds
    job_id = 0
    cycle = 0
    while cycle < len(pool) * (2 if tracer else 1) or time.monotonic() < deadline:
        traced = tracer is not None and (cycle // len(pool)) % 2 == 1
        if traced:
            tracer.install()
        try:
            for pos, job in enumerate(pool[cycle % len(pool)]):
                if speed is not None:
                    speed.maybe_sample()
                if traced:
                    tracer.job = job_id
                sent = time.monotonic()
                c0 = time.process_time()
                t0 = time.perf_counter()
                try:
                    result, error = job.run(), None
                except Exception as exc:  # a raising job is a failed job
                    result, error = None, exc
                t1 = time.perf_counter()
                c1 = time.process_time()
                if error is None:
                    try:
                        job.check(result)
                    except Exception as exc:
                        error = exc
                if error is not None:
                    failures.append(f"{job.label}: {type(error).__name__}: {error}")
                key = (cycle % len(pool), pos)
                samples.append(Sample(job.label, key, sent, t1 - t0, c1 - c0, error is None, traced))
                job_id += 1
        finally:
            if traced:
                tracer.remove()
        cycle += 1
    if speed is not None:
        speed.sample()
    return samples, failures


def corrected(samples: list, speed: SpeedLog) -> list:
    """Samples with latency and CPU time scaled to the nominal host speed."""
    out = []
    for s in samples:
        f = speed.factor(s.start + s.latency / 2)
        out.append(s._replace(latency=s.latency * f, cpu=s.cpu * f))
    return out


def per_input(samples: list, attr: str) -> dict:
    """{input key: (label, median over that input's runs)}."""
    runs = defaultdict(list)
    labels = {}
    for s in samples:
        runs[s.key].append(getattr(s, attr))
        labels[s.key] = s.label
    return {k: (labels[k], statistics.median(v)) for k, v in runs.items()}


def mean_by_label(samples: list, attr: str) -> dict:
    """{label: mean over that label's inputs of the per-input median}."""
    groups = defaultdict(list)
    for label, v in per_input(samples, attr).values():
        groups[label].append(v)
    return {label: statistics.fmean(v) for label, v in groups.items()}


def cycle_summary(samples: list, cycle_labels: list) -> tuple:
    """(jobs_per_s, job_p50_s, cpu_per_job_s) for one cycle of the stated mix.

    Each job of the cycle is given its label's mean over the pool's
    inputs.  The cycle's time is the sum over its jobs, and unverified
    jobs do not count; p50 is the median job of that cycle.
    """
    lat = mean_by_label(samples, "latency")
    cpu = mean_by_label(samples, "cpu")
    verified = sum(s.ok for s in samples) / len(samples)
    times = [lat[label] for label in cycle_labels]
    cycle_cpu = sum(cpu[label] for label in cycle_labels)
    return (
        verified * len(times) / sum(times),
        statistics.median(times),
        cycle_cpu / len(times),
    )


def tail(samples: list, pool_labels: list) -> tuple:
    """(latency, percentile): the latency at the highest percentile with
    TAIL_BEYOND jobs beyond it, over the pool's jobs, each job given its
    label's mean.  A single run of a long job is off by up to a quarter
    after the host-speed correction, which is more than the spread of
    inputs within a label."""
    lat = mean_by_label(samples, "latency")
    times = sorted(lat[label] for label in pool_labels)
    k = max(0, len(times) - TAIL_BEYOND - 1)
    return times[k], 100.0 * (k + 1) / len(times)


def census(tracer, workdir: Path) -> None:
    """One traced pass over the toy cycle of every workload, so every
    entry point fires, and is shown to be wrapped, in every traced run."""
    import workloads

    tracer.install()
    try:
        for workload in workloads.WORKLOADS:
            for job in workloads.build(workload, 0, workdir / workload, toy=True)[0]:
                job.check(job.run())
    finally:
        tracer.remove()


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("enum", "realize", "cli-mix"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        set_up(args.workload, args.seed, Path(args.setup_probe))
        ready = time.monotonic()
        print(ready, *(probe(SPEED_PROBE_ITERS) for _ in range(3)))
        return 0
    load_pbkernel()
    import numpy

    RUN_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    probe_start = [probe(HOST_PROBE_ITERS) for _ in range(3)]
    setup = measure_setup(args.workload, args.seed, SETUP_SAMPLES // 2)
    pool = set_up(args.workload, args.seed, RUN_DIR / f"inputs-{tag}")
    cycle_labels = [job.label for job in pool[0]]
    pool_labels = [job.label for cycle in pool for job in cycle]

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    speed = SpeedLog()
    raw, failures = run_jobs(pool, args.seconds, tracer, speed)
    if tracer:
        census(tracer, RUN_DIR / f"inputs-{tag}" / "census")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup += measure_setup(args.workload, args.seed, SETUP_SAMPLES - len(setup))
    probe_end = [probe(HOST_PROBE_ITERS) for _ in range(3)]

    attempted = len(raw)
    failed = sum(not s.ok for s in raw)
    samples = corrected(raw, speed)
    timed = [s for s in samples if not s.traced]
    jobs_per_s, p50, cpu_per_job_s = cycle_summary(timed, cycle_labels)
    tail_s, tail_pct = tail(timed, pool_labels)
    inputs = len(pool_labels)
    raw_timed = [s for s in raw if not s.traced]
    raw_jobs_per_s, raw_p50, _ = cycle_summary(raw_timed, cycle_labels)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        **source_version(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "jobs": len(timed),
        "inputs": inputs,
        "runs_per_input": len(timed) / inputs,
        "cycle_jobs": len(cycle_labels),
        "tail_percentile": tail_pct,
        "tail_jobs_beyond": min(TAIL_BEYOND, inputs - 1),
        "fail_frac": failed / attempted,
        "peak_rss_mb": peak_rss_mb,
        "nominal_probe_s": NOMINAL_PROBE_S,
        "speed_probes": len(speed.probes),
        "speed_factor_median": statistics.median(NOMINAL_PROBE_S / p for p in speed.probes),
        "raw": {
            "jobs_per_s": raw_jobs_per_s,
            "job_p50_s": raw_p50,
            "job_tail_s": tail(raw_timed, pool_labels)[0],
            "setup_s": statistics.median(r for r, _ in setup),
        },
        "setup_samples_s": setup,
        "host_probe_start_s": probe_start,
        "host_probe_end_s": probe_end,
        "label_mean_s": mean_by_label(timed, "latency"),
        "input_latency_s": sorted(per_input(timed, "latency").values()),
        "failures": failures[:20],
    }
    if args.trace:
        traced_jobs_per_s = cycle_summary([s for s in samples if s.traced], cycle_labels)[0]
        values = tracer.metrics()
        values["trace.jobs"] = sum(s.traced for s in samples)
        values["trace.overhead_jobs_per_s"] = jobs_per_s - traced_jobs_per_s
        values["trace.overhead_frac"] = (jobs_per_s - traced_jobs_per_s) / jobs_per_s
        specs = tracing.per_layer_metric_specs()
        record["spans"] = tracer.span_count
        tracer.write(RUN_DIR / f"spans-{tag}.npz")
    else:
        values = {
            "jobs_per_s": jobs_per_s,
            "job_p50_s": p50,
            "job_tail_s": tail_s,
            "cpu_per_job_s": cpu_per_job_s,
            "setup_s": statistics.median(c for _, c in setup),
            "peak_rss_mb": peak_rss_mb,
            "verified_frac": 1.0 - failed / attempted,
        }
        specs = [(name, unit, None) for name, unit in END_TO_END]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in specs}
    record["metrics"] = metrics
    (RUN_DIR / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload} seed {args.seed} trace {args.trace}: {record['commit']} "
          f"src {record['src_sha256']} python {record['python']} numpy {record['numpy']} "
          f"nproc {record['nproc']}")
    print(f"# jobs {len(timed)} over {inputs} inputs ({record['runs_per_input']:.1f} runs each), "
          f"fail_frac {record['fail_frac']:.4f}, tail at p{tail_pct:.1f} of the pool with "
          f"{record['tail_jobs_beyond']} jobs beyond it")
    print(f"# host probe {min(probe_start):.4f}s -> {min(probe_end):.4f}s, median speed factor "
          f"{record['speed_factor_median']:.3f} over {len(speed.probes)} probes, raw "
          + ", ".join(f"{k} {v:.6g}" for k, v in record["raw"].items()))
    for name, m in metrics.items():
        print(f"#   {name} = {m['value']:.6g} {m['unit']}")
    for line in failures[:5]:
        print(f"# FAILED {line}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
