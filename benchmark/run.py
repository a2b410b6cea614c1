"""The invgeom benchmark: a closed loop with one client, one op at a time.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --workload all --seed N --seconds S

Set-up writes the workload's input files from the seed, repeatedly, to
time it.  Each op is then a fresh child process, because a user of the CLI
pays for interpreter start, the numpy import and file parsing on every run.
Ops start while the next one is expected to end within S seconds; at
least one always runs.  Every op's output is checked.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics named in BENCHMARK.json.  With ``--trace 1`` ops
alternate between plain and traced children (see tracer.py) and the object
holds the per-layer metrics, medians over the traced ops.  ``all`` runs
every workload in turn with ``--trace 0`` and also prints each one's
error rate.  Spans, environment and per-op times go under ``.bench_work/``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
SETUP_SECONDS = 1.5


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _cache_sizes():
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(index / "level")
        kind = _read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            sizes[f"L{level}"] = _read(index / "size")
    return sizes


def _cpu_model():
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _git_commit():
    head = _read(ROOT / ".git" / "HEAD")
    if head and head.startswith("ref: "):
        return _read(ROOT / ".git" / head[5:])
    return head


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "invgeom").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment(workload, seed, sizes):
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "source_sha256_16": _source_digest(),
        "input": sizes,
    }


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    # The cap changes which sweeps are exhaustive, so the report itself.
    env.pop("INVGEOM_CAP_EXHAUSTIVE", None)
    return env


def _dir_digest(path):
    digest = hashlib.sha256()
    for f in sorted(path.iterdir()):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    return digest.hexdigest()


def set_up(workloads, name, seed, run_dir):
    """Write the inputs SETUP_REPEATS times and for SETUP_SECONDS at least.

    Returns (fixture, op dir, times).  The build-i6 inputs take about a
    millisecond, so a handful of repeats would leave its median to noise.
    Each repeat writes new files into a new directory: rewriting a file in
    place can make the file system flush it on close.
    """
    times, digests, op_dir = [], set(), None
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        if op_dir is not None:
            shutil.rmtree(op_dir)
        op_dir = run_dir / f"setup{len(times)}"
        op_dir.mkdir()
        start = time.perf_counter()
        fixture = workloads.make_fixture(name, seed, op_dir)
        times.append(time.perf_counter() - start)
        digests.add(_dir_digest(op_dir))
    if len(digests) != 1:
        raise RuntimeError(f"{name}: the same seed gave different inputs")
    return fixture, op_dir, times


@dataclass(frozen=True)
class Op:
    wall_s: float    # spawn to reaped
    rss_mb: float    # the child's ru_maxrss
    code: int
    problem: str | None  # why the output is wrong, or None
    checks: list | None  # the verify report's checks, if it wrote one


class Launcher:
    """The small process that spawns and reaps every op (see launcher.py)."""

    def __init__(self):
        self.env = _child_env()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv, cwd):
        request = {
            "argv": list(argv), "cwd": str(cwd), "env": self.env,
            "stdout": str(cwd / "stdout.txt"), "stderr": str(cwd / "stderr.txt"),
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher exited")
        return json.loads(reply)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        if exc[0] is not None:
            self.proc.terminate()
        self.proc.wait()
        self.proc.stdout.close()


def run_op(launcher, workloads, fixture, op_dir, trace_file=None, op_id=0, counts=True):
    """Run one op through the launcher and check its output."""
    for stale in workloads.OUTPUTS:
        (op_dir / stale).unlink(missing_ok=True)
    argv = workloads.op_argv(fixture, trace_file, op_id, counts)
    reply = launcher.run(argv, op_dir)
    code = reply["code"]
    problem = workloads.check_op(fixture.expect, code, op_dir)
    return Op(
        reply["wall_s"], reply["maxrss_kb"] / 1024, code, problem,
        workloads.read_report(op_dir),
    )


def tail(times):
    """Time at the highest percentile with at least ten ops beyond it.

    Below 20 ops that percentile would lie under the median, so the
    maximum is reported instead, as percentile 100.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n >= 20:
        return ordered[n - 11], 100.0 * (n - 10) / n
    return ordered[-1], 100.0


def _loop(seconds, step):
    """Call ``step`` until the next call is expected to end after ``seconds``."""
    start = time.perf_counter()
    took = []
    while True:
        t0 = time.perf_counter()
        step()
        took.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(took) > seconds:
            return elapsed


def measure(launcher, workloads, fixture, op_dir, seconds):
    ops = []
    loop_s = _loop(
        seconds, lambda: ops.append(run_op(launcher, workloads, fixture, op_dir))
    )
    return ops, loop_s


def measure_traced(launcher, workloads, fixture, op_dir, seconds):
    """Alternate plain and traced ops; return (plain ops, traced ops, traces)."""
    plain, traced, traces = [], [], []

    def pair():
        plain.append(run_op(launcher, workloads, fixture, op_dir))
        trace_file = op_dir / "trace.json"
        trace_file.unlink(missing_ok=True)
        op = run_op(launcher, workloads, fixture, op_dir, trace_file, len(traced))
        traced.append(op)
        traces.append(json.loads(trace_file.read_text()) if trace_file.exists() else None)

    _loop(seconds, pair)
    return plain, traced, traces


def end_to_end(ops, loop_s, setup_times):
    times = [op.wall_s for op in ops]
    correct = sum(op.problem is None for op in ops)
    tail_s, tail_pct = tail(times)
    values = {
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_s,
        "ops_per_s": correct / loop_s,
        "peak_rss_mb": max(op.rss_mb for op in ops),
        "setup_s": statistics.median(setup_times),
        "error_rate": (len(ops) - correct) / len(ops),
    }
    info = {"ops": len(ops), "op_tail_percentile": tail_pct, "op_times_s": times}
    return values, info


def per_layer(plain, traced, traces):
    import layers

    per_op = [
        layers.layer_values(t, op.checks)
        for op, t in zip(traced, traces)
        if t is not None
    ]
    if not per_op:
        raise RuntimeError("no traced op left a trace")
    values = {
        key: statistics.median(v[key] for v in per_op) for key in per_op[0]
    }
    values["trace.overhead_s"] = statistics.median(
        op.wall_s for op in traced
    ) - statistics.median(op.wall_s for op in plain)
    return values, per_op


def _result_line(ops, values, declared):
    metrics = {}
    for m in declared:
        if m["name"] not in values:
            raise KeyError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    failed = sum(op.problem is not None for op in ops)
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }


def _write(kind, name, seed, data):
    out = WORK / kind / f"{name}-seed{seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(data, indent=1))


def run_workload(workloads, name, seed, seconds, trace):
    """Run one workload; return the result object for the last line."""
    spec = _spec()
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        fixture, op_dir, setup_times = set_up(workloads, name, seed, run_dir)
        env = environment(name, seed, fixture.sizes)
        print("env " + json.dumps(env), flush=True)
        if trace:
            with Launcher() as launcher:
                plain, traced, traces = measure_traced(
                    launcher, workloads, fixture, op_dir, seconds
                )
            values, per_op = per_layer(plain, traced, traces)
            _write("traces", name, seed, {
                "env": env,
                "values": values,
                "ops": [
                    {"trace": t, "values": v} for t, v in zip(traces, per_op)
                ],
            })
            ops, declared = plain + traced, spec["per_layer"]
        else:
            with Launcher() as launcher:
                ops, loop_s = measure(launcher, workloads, fixture, op_dir, seconds)
            values, info = end_to_end(ops, loop_s, setup_times)
            _write("results", name, seed, {"env": env, "values": values, **info})
            declared = spec["end_to_end"]
        result = _result_line(ops, values, declared)
        for i, op in enumerate(ops):
            if op.problem is not None:
                print(f"op {i} failed: {op.problem}", file=sys.stderr)
        return result, values
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "invgeom" / "__init__.py").is_file():
        print(f"error: no invgeom sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload == "all":
        return run_all(workloads, args.seed, args.seconds)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    result, _ = run_workload(
        workloads, args.workload, args.seed, args.seconds, args.trace
    )
    print(json.dumps(result))
    return 0


def run_all(workloads, seed, seconds):
    units = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    units["error_rate"] = "1"
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        result, values = run_workload(workloads, name, seed, seconds, 0)
        for metric, unit in units.items():
            print(f"{name:20s} {metric:12s} {values[metric]:12.6g} {unit}")
            total["metrics"][f"{name}.{metric}"] = {
                "value": values[metric], "unit": unit,
            }
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
