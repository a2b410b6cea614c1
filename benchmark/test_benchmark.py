"""Self-tests of the benchmark (about three minutes on 2 cores).

    python3 -m pytest benchmark -q
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = (
    "monoid.mul.calls",
    "cayley.cayley_metric.calls",
    "geometry.validate_metric_predicates.calls",
    "partial_bijection.compose.calls",
)
_RUNS = {}


def _run(workload, trace, seed=0, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "benchmark" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def _result(workload, trace, seed=0, repeat=0):
    key = (workload, trace, seed, repeat)
    if key not in _RUNS:
        proc = _run(workload, trace, seed)
        assert proc.returncode == 0, proc.stderr
        _RUNS[key] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _RUNS[key]


def _spans(workload, seed=0):
    _result(workload, 1, seed)
    data = json.loads((run.WORK / "traces" / f"{workload}-seed{seed}.json").read_text())
    return [s for op in data["ops"] for s in op["trace"]["spans"]]


@pytest.fixture
def op_dir():
    run.WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_minimal_run_emits_every_metric(workload, trace):
    result = _result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", ["verify-i4", "verify-chain"])
def test_counts_repeat_between_runs(workload):
    # Only for the same seed: a shortest-word search stops at its target,
    # so the number of products it takes depends on the element numbering.
    first = _result(workload, 1)["metrics"]
    again = _result(workload, 1, repeat=1)["metrics"]
    for name in COUNTS:
        assert first[name]["value"] == again[name]["value"], name


def _covered_share(spans, modules, within):
    """Share of the ``within`` spans' time under outermost spans of ``modules``."""
    def layer(s):
        return s["name"].split(".")[0]

    def outermost_under(s, root):
        p = s["parent"]
        while p is not None and p != root and layer(spans[p]) not in modules:
            p = spans[p]["parent"]
        return p == root

    total = covered = 0.0
    for i, root in enumerate(spans):
        if root["name"] != within:
            continue
        total += root["end"] - root["start"]
        covered += sum(
            s["end"] - s["start"]
            for s in spans
            if layer(s) in modules and outermost_under(s, i)
        )
    return covered / total


def test_word_metric_and_geometry_cover_most_of_verify_i4():
    spans = _spans("verify-i4")
    share = _covered_share(spans, {"cayley", "geometry"}, "verify.run_verification")
    assert share > 0.5


def test_build_i6_runs_no_cayley_or_geometry_span():
    names = {s["name"] for s in _spans("build-i6")}
    assert "monoid.generate_monoid" in names
    assert not {n for n in names if n.split(".")[0] in ("cayley", "geometry")}


def test_only_the_tampered_run_spends_time_after_a_failure():
    assert _result("verify-i4", 1)["metrics"]["verify.after_first_fail_s"]["value"] == 0
    tampered = _result("verify-i4-tampered", 1)["metrics"]
    assert tampered["verify.after_first_fail_s"]["value"] > 0
    assert tampered["verify.checks_failed"]["value"] >= 1


def _one_op(workload, op_dir, seed=0):
    fixture = workloads.make_fixture(workload, seed, op_dir)
    with run.Launcher() as launcher:
        return fixture, run.run_op(launcher, workloads, fixture, op_dir)


def test_an_op_checked_against_the_wrong_expectation_fails(op_dir):
    _, op = _one_op("verify-i4-tampered", op_dir)
    assert op.problem is None
    assert workloads.check_op("i4", op.code, op_dir) is not None
    assert workloads.check_op("chain", op.code, op_dir) is not None


def test_an_untampered_op_checked_as_tampered_fails(op_dir):
    _, op = _one_op("verify-i4", op_dir)
    assert op.problem is None
    assert workloads.check_op("tampered", op.code, op_dir) is not None
    assert workloads.check_op("chain", op.code, op_dir) is not None


def test_a_wrong_build_output_fails(op_dir):
    ident = [0, 1, 2, 3, 4, 5]
    swap = [1, 0, 2, 3, 4, 5]
    good = {"order": 13327, "samples": [[swap, swap, ident, swap]]}
    (op_dir / "build.json").write_text(json.dumps(good))
    assert workloads.check_op("build", 0, op_dir) is None
    for bad in (
        {"order": 13326, "samples": good["samples"]},
        {"order": 13327, "samples": [[swap, swap, swap, swap]]},
        {"order": 13327, "samples": [[swap, ident, swap, ident]]},
    ):
        (op_dir / "build.json").write_text(json.dumps(bad))
        assert workloads.check_op("build", 0, op_dir) is not None
    assert workloads.check_op("build", 1, op_dir) is not None


def test_tail_has_ten_ops_beyond_it():
    times = [float(i) for i in range(25)]
    assert run.tail(times) == (14.0, 60.0)
    assert run.tail(times[:20]) == (9.0, 50.0)
    assert run.tail(times[:19]) == (18.0, 100.0)


def test_a_bare_benchmark_directory_exits_nonzero(op_dir):
    shutil.copy(ROOT / "BENCHMARK.json", op_dir)
    shutil.copytree(HERE, op_dir / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("verify-i4", 0, cwd=op_dir)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
