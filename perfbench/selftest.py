"""Self-test of the benchmark on tiny shapes.

  python3 perfbench/selftest.py

Shows that a corrupted output is counted as a failed op, that traced spans
nest with non-negative self times, that every metric named in
BENCHMARK.json is emitted with its unit, that a seed fixes the inputs, and
that the benchmark refuses to run without the program.  Exits 0 when all
hold.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import checks
import run
import tracing
from workloads import WORKLOADS, Base, evaluate_op, thm4_shape

SEED = 7
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def launch(*args, cwd=run.ROOT, script=run.HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


def corrupted_outputs_fail(ssd, tmp):
    """One symbol changed in a written design, two swapped in an evaluated one."""
    session = run.Session(WORKLOADS["construct-fields"], {}, "tiny", SEED, 0, tmp)
    op = WORKLOADS["construct-fields"].warmup(session.rng(0), tmp, {}, "tiny")
    with contextlib.redirect_stdout(io.StringIO()):
        rc = ssd.cli.run(op.argv)
    reply = {"rc": [rc], "stdout": [""], "stderr": [""]}
    session.record([op], reply)
    assert session.failures == [], session.failures
    lines = Path(op.path).read_text().splitlines()
    row = lines[3].split()
    row[0] = "1" if row[0] == "0" else "0"
    lines[3] = " ".join(row)
    Path(op.path).write_text("\n".join(lines) + "\n")
    session.record([op], reply)
    assert session.attempted == 2 and len(session.failures) == 1, session.failures

    # a balanced swap inside one column of an evaluated design changes its A2
    N, m, a2 = thm4_shape(3, 2)
    D = ssd.constructions.construct_thm4(ssd.gf.default_field(3), 2)
    X = D.matrix.copy()
    r2 = next(r for r in range(1, N) if X[r, 1] != X[0, 1])
    X[[0, r2], 1] = X[[r2, 0], 1]
    assert checks.recount_a2(X, np.array(D.levels)) != a2
    bad = Base(X, D.levels, a2, "corrupted")
    rng = np.random.default_rng(SEED)
    op = evaluate_op(rng, tmp, "corrupted", bad)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = ssd.cli.run(op.argv)
    session.record([op], {"rc": [rc], "stdout": [""], "stderr": [""]})
    assert rc == 0 and len(session.failures) == 2, session.failures
    print("ok  corrupted outputs count as failed ops:", *session.failures[-2:], sep="\n    ")


def self_time_arithmetic():
    spans = [["a", 0.0, 10.0, -1, "0.0", None], ["b", 1.0, 3.0, 0, "0.0", None],
             ["c", 5.0, 6.0, 0, "0.0", None], ["d", 5.5, 5.75, 2, "0.0", None]]
    assert tracing.self_times(spans) == [7.0, 2.0, 0.75, 0.25]
    assert tracing.check_nesting(spans) == []
    spans[3][2] = 7.0   # child ends after its parent
    assert tracing.check_nesting(spans)
    print("ok  self time is duration minus the union of child spans")


def workloads_emit_every_metric():
    names = {0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
             1: {m["name"]: m["unit"] for m in SPEC["per_layer"]}}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for wl in WORKLOADS:
        for trace in (0, 1):
            code, out, err = launch("--workload", wl, "--seed", str(SEED), "--seconds", "1",
                                    "--trace", str(trace), "--tiny")
            assert code == 0, err
            result = json.loads(out[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, err
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == names[trace], (wl, trace, set(got) ^ set(names[trace]))
            if trace:
                trace_file = run.ROOT / ".perfbench_out" / f"trace-{wl}-{SEED}.json"
                spans = json.loads(trace_file.read_text())["spans"]
                assert any(s[3] >= 0 for s in spans), "no nested spans"
                assert tracing.check_nesting(spans) == []
        print(f"ok  {wl}: all metrics emitted, spans nest, self times >= 0")


def seed_fixes_inputs(ssd, tmp):
    wl = WORKLOADS["small-checks"]
    bases = wl.bases(ssd, run.ROOT, "tiny")
    texts = []
    for rep in range(2):
        d = Path(tmp) / f"seed{rep}"
        d.mkdir()
        ops = wl.make_pass(np.random.default_rng([SEED, 0]), d, bases, "tiny")
        texts.append([[a.replace(str(d), "") for a in op.argv] for op in ops]
                     + sorted(p.read_text() for p in d.iterdir()))
    assert texts[0] == texts[1]
    print("ok  the same seed gives the same inputs")


def refuses_without_program(tmp):
    bare = Path(tmp) / "bare"
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    code, out, _ = launch("--workload", "small-checks", "--seed", "1", "--seconds", "1",
                          "--trace", "0", cwd=bare, script=bare / run.HERE.name / "run.py")
    assert code != 0 and not any(line.startswith("{") for line in out), (code, out)
    print("ok  without the program it exits", code, "and prints no result")


def main():
    ssd = run.import_program()
    (run.ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=run.ROOT / ".perfbench_tmp")
    try:
        corrupted_outputs_fail(ssd, tmp)
        self_time_arithmetic()
        seed_fixes_inputs(ssd, tmp)
        refuses_without_program(tmp)
        workloads_emit_every_metric()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
