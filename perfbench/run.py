"""Seeded end-to-end benchmark of the `ssd` command line.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`.
One closed loop with one client: the launcher generates a pass of inputs,
a workload process runs the pass's CLI calls back to back through
`ssd.cli.run(argv)` in-process, and the launcher checks every output while
that process waits.  Passes repeat, each with fresh inputs, until S seconds
have passed and the workload's minimum number of passes is done.

--trace 0 prints the end-to-end metrics: set-up time of a fresh interpreter
(median of several), wall time of one pass (median over passes), per-call
latency median and tail, peak RSS of the workload process, and the share
of calls that succeeded.  --trace 1 runs the passes once untraced and once
with spans around every call into an `ssd` module, and prints per-layer
metrics per pass instead.  Times are given at the speed of an idle
reference machine (see calibration.py).  The last stdout line is the
result JSON; the line before it records the environment, the tail
percentile used and the raw times.  Exits non-zero without a result when
the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import tracing
from calibration import LEAD_SLICES, calibration_slice, slices_after, slowdowns
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 9
BLAS_THREADS = 1
# rng key of the warm-up op, apart from every pass index
WARMUP_KEY = 2**31
# the tail is the latency with at least this many samples beyond it
TAIL_SAMPLES = 10


def child_env():
    env = dict(os.environ)
    # glibc raises its mmap threshold as large blocks are freed, so how much
    # of the heap stays resident would depend on allocation history; pinned,
    # peak RSS follows the memory the program actually holds
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", MALLOC_MMAP_THRESHOLD_="131072",
               OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
               OMP_NUM_THREADS=str(BLAS_THREADS), MKL_NUM_THREADS=str(BLAS_THREADS))
    return env


def import_program():
    """The checkout's `ssd` package, or None when the checkout has none."""
    if not (SRC / "ssd" / "cli.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import ssd
    import ssd.cli  # noqa: F401  (loads every module the bases need)
    if Path(ssd.__file__).resolve().parent != SRC / "ssd":
        return None
    return ssd


def environment(seed):
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": sys.version.split()[0], "numpy": np.__version__, "blas": blas,
            "blas_threads": BLAS_THREADS, "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "seed": seed}


class Session:
    """One workload process and the ops it ran, with every verdict."""

    def __init__(self, wl, bases, size, seed, stream, tmp):
        self.wl, self.bases, self.size = wl, bases, size
        self.seed, self.stream, self.tmp = seed, stream, Path(tmp)
        self.passes = []    # per pass: raw call latencies and their slowdown factors
        self.failures, self.disclosures = [], []
        self.attempted = 0
        self.peak_rss_mb = None
        self.spans, self.counts = [], {}

    def rng(self, *key):
        wl_index = list(WORKLOADS).index(self.wl.name)
        return np.random.default_rng([self.seed, wl_index, self.stream, *key])

    def record(self, ops, reply):
        for k, op in enumerate(ops):
            reason, info = checks.check(op, reply["rc"][k], reply["stdout"][k])
            self.attempted += 1
            if reason is not None:
                tail = reply["stderr"][k].strip().splitlines()[-1:]
                self.failures.append(f"{op.name}: {reason} {' '.join(tail)}".strip())
            self.disclosures.append(info)

    def run(self, seconds, min_passes, traced):
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                text=True, env=child_env(), cwd=ROOT)
        try:
            def send(cmd):
                proc.stdin.write(json.dumps(cmd) + "\n")
                proc.stdin.flush()
                line = proc.stdout.readline()
                if not line:
                    raise RuntimeError("workload process ended unexpectedly")
                return json.loads(line)

            ready = json.loads(proc.stdout.readline() or "{}")
            if Path(ready.get("ssd", "")).resolve().parent != SRC / "ssd":
                raise RuntimeError("workload process did not import the checkout")
            warm_dir = self.tmp / f"warmup{self.stream}"
            warm_dir.mkdir()
            warm = self.wl.warmup(self.rng(WARMUP_KEY), warm_dir, self.bases, self.size)
            self.record([warm], send({"cmd": "ops", "ops": [warm.argv], "pass": -1}))
            shutil.rmtree(warm_dir)
            if traced:
                send({"cmd": "trace"})
            start = perf_counter()
            p = 0
            while p < min_passes or perf_counter() - start < seconds:
                pass_dir = self.tmp / f"s{self.stream}p{p}"
                pass_dir.mkdir()
                ops = self.wl.make_pass(self.rng(p), pass_dir, self.bases, self.size)
                reply = send({"cmd": "ops", "ops": [op.argv for op in ops], "pass": p})
                self.passes.append({"lat": reply["lat"],
                                    "slowdown": slowdowns(reply["cal"])})
                self.record(ops, reply)
                shutil.rmtree(pass_dir)
                p += 1
            self.ops_per_pass = len(ops)
            done = send({"cmd": "finish"})
            self.peak_rss_mb = done["peak_rss_mb"]
            self.spans, self.counts = done.get("spans", []), done.get("counts", {})
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        return self

    def pass_latencies(self):
        """Per pass, the call latencies at the reference machine speed."""
        return [[t / f for t, f in zip(p["lat"], p["slowdown"])] for p in self.passes]

    @property
    def walls(self):
        """Pass wall times (sums of call latencies) at the reference speed."""
        return [sum(lat) for lat in self.pass_latencies()]

    @property
    def latencies(self):
        """Call latencies at the reference machine speed, pooled over passes."""
        return [t for lat in self.pass_latencies() for t in lat]


def measure_setup(wl, bases, size, seed, tmp):
    """Median wall time of fresh interpreters that import ssd.cli and run one op.

    Returns the time at the reference machine speed, the raw probe times and
    the session that holds the probes' verdicts.
    """
    session = Session(wl, bases, size, seed, 100, tmp)
    times, groups = [], [[calibration_slice() for _ in range(LEAD_SLICES)]]
    for i in range(SETUP_PROBES):
        probe_dir = Path(tmp) / f"probe{i}"
        probe_dir.mkdir()
        op = wl.warmup(session.rng(i), probe_dir, bases, size)
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "probe.py"), json.dumps(op.argv)],
                              env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        times.append(perf_counter() - t0)
        groups.append([calibration_slice() for _ in range(slices_after(times[-1]))])
        session.record([op], {"rc": [proc.returncode], "stdout": [""],
                              "stderr": [proc.stderr]})
        shutil.rmtree(probe_dir)
    scaled = [t / f for t, f in zip(times, slowdowns(groups))]
    return statistics.median(scaled), times, session


def tail_latency(latencies, guaranteed):
    """Latency with TAIL_SAMPLES samples beyond it in a run of `guaranteed` calls.

    The percentile is fixed by the smallest sample a run can have (one
    workload's ops per pass times its minimum pass count), so every run of a
    workload reports the same percentile; longer runs only add samples.
    """
    q = Fraction(max(guaranteed - TAIL_SAMPLES, 1), guaranteed) \
        if guaranteed > TAIL_SAMPLES else Fraction(1)
    ordered = sorted(latencies)
    return ordered[math.ceil(q * len(ordered)) - 1], float(100 * q)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny shapes, for the benchmark's own self-test")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    ssd = import_program()
    if ssd is None:
        print(f"error: no ssd package under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    size = "tiny" if args.tiny else "full"
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=ROOT / ".perfbench_tmp")
    try:
        bases = wl.bases(ssd, ROOT, size)
        info = environment(args.seed)
        if args.trace:
            # both sessions get the same inputs, so their ratio is the overhead
            plain = Session(wl, bases, size, args.seed, 1, tmp).run(args.seconds / 2, 1, False)
            traced = Session(wl, bases, size, args.seed, 1, tmp).run(
                args.seconds / 2, len(plain.walls), True)
            sessions = [plain, traced]
            overhead = statistics.median(traced.walls) / statistics.median(plain.walls)
            layers = tracing.layer_metrics(traced.spans, traced.counts, len(traced.walls),
                                           traced.disclosures[1:], overhead)
            # times at the reference machine speed, as for the end-to-end metrics
            f = statistics.mean(f for p in traced.passes for f in p["slowdown"])
            scale = {"s": 1 / f, "1/s": f}
            metrics = {name: {"value": value * scale.get(tracing.unit(name), 1),
                              "unit": tracing.unit(name)}
                       for name, value in layers.items()}
            problems = tracing.check_nesting(traced.spans)
            if problems:
                raise RuntimeError(f"span tree is malformed: {problems[:3]}")
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            with open(out_dir / f"trace-{wl.name}-{args.seed}.json", "w") as fh:
                json.dump({"spans": traced.spans, "counts": traced.counts}, fh)
            info["passes"] = [len(plain.walls), len(traced.walls)]
        else:
            setup_s, probe_times, probes = measure_setup(wl, bases, size, args.seed, tmp)
            run = Session(wl, bases, size, args.seed, 0, tmp).run(
                args.seconds, wl.min_passes, False)
            sessions = [probes, run]
            tail, pct = tail_latency(run.latencies, run.ops_per_pass * wl.min_passes)
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "wall_s": {"value": statistics.median(run.walls), "unit": "s"},
                "op_p50_s": {"value": statistics.median(run.latencies), "unit": "s"},
                "op_tail_s": {"value": tail, "unit": "s"},
                "peak_rss_mb": {"value": run.peak_rss_mb, "unit": "MB"},
            }
            info.update(passes=len(run.passes), ops_per_pass=run.ops_per_pass,
                        op_samples=len(run.latencies), tail_percentile=pct,
                        setup_probes_raw_s=probe_times, passes_raw=run.passes)
        attempted = sum(s.attempted for s in sessions)
        failures = [f for s in sessions for f in s.failures]
        if not args.trace:
            metrics["success_rate"] = {"value": 1 - len(failures) / attempted,
                                       "unit": "ratio"}
        info.update(workload=wl.name, why=wl.why, error_rate=len(failures) / attempted)
        for line in failures[:20]:
            print(f"FAILED {line}", file=sys.stderr)
        print(json.dumps({"info": info}))
        print(json.dumps({"correct": not failures, "attempted": attempted,
                          "failed": len(failures), "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
