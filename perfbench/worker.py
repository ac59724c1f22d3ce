"""Workload process: runs `ssd.cli.run(argv)` in-process and times each call.

Started by run.py with the checkout's `src` on PYTHONPATH.  It reads one JSON
command per line on stdin and answers one JSON line on stdout:

  {"cmd": "ops", "ops": [argv, ...], "pass": p}
      run the calls one after another, with calibration slices before the
      first and after each; reply with per-call latency, exit code,
      captured stdout/stderr and the slice times, grouped by position
  {"cmd": "trace"}     install the span recorder (traced runs only)
  {"cmd": "finish"}    reply with peak RSS (and spans) and exit

The program's own output goes to an in-memory buffer while it runs, so the
protocol stream only carries replies.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import io
import json
import resource
import sys
import traceback
from time import perf_counter

import ssd
import ssd.cli

from calibration import LEAD_SLICES, calibration_slice, slices_after
from tracing import Tracer

try:
    _LIBC = ctypes.CDLL("libc.so.6")
    _LIBC.malloc_trim.argtypes = [ctypes.c_size_t]
    _LIBC.malloc_trim.restype = ctypes.c_int
except (OSError, AttributeError):   # not glibc: nothing to trim
    _LIBC = None


def fresh_heap():
    """Collect garbage and return free heap pages to the system.

    Each call then starts from a heap like that of a fresh `ssd` process,
    and peak RSS does not depend on what earlier calls left fragmented.
    """
    gc.collect()
    if _LIBC is not None:
        _LIBC.malloc_trim(0)


def run_ops(ops, tracer, pass_index):
    lat, rcs, outs, errs = [], [], [], []
    cal = [[calibration_slice() for _ in range(LEAD_SLICES)]]
    for k, argv in enumerate(ops):
        fresh_heap()
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.op = f"{pass_index}.{k}"
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                rc = ssd.cli.run(argv)
            except Exception:       # an op that raises is a failed op
                rc = -1
                traceback.print_exc()
            lat.append(perf_counter() - t0)
        rcs.append(rc)
        outs.append(out.getvalue())
        errs.append(err.getvalue())
        cal.append([calibration_slice() for _ in range(slices_after(lat[-1]))])
    return {"lat": lat, "rc": rcs, "cal": cal,
            "stdout": outs, "stderr": errs}


def main():
    reply = sys.stdout
    tracer = None
    reply.write(json.dumps({"ready": True, "ssd": ssd.__file__}) + "\n")
    reply.flush()
    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd["cmd"] == "ops":
            out = run_ops(cmd["ops"], tracer, cmd["pass"])
        elif cmd["cmd"] == "trace":
            tracer = Tracer()
            tracer.install(ssd)
            out = {}
        else:
            out = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
            if tracer is not None:
                out["spans"] = tracer.spans
                out["counts"] = dict(tracer.counts)
        reply.write(json.dumps(out) + "\n")
        reply.flush()
        if cmd["cmd"] == "finish":
            return


if __name__ == "__main__":
    main()
