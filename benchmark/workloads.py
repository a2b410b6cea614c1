"""Workload inputs made from a seed, the op command for each, and the check
on every op's output.

A workload's set-up builds its input files from the seed; the op is one
fresh child process that receives only those files.  The three ``verify``
workloads run the real CLI on a seeded relabelling of a bundled monoid, so
the relabelling-invariant report values can be pinned below.  ``build-i6``
has no CLI route (an I6 table file is about 1 GB of JSON), so its op is the
benchmark's own child that loads a generator file and calls
``generate_monoid``.
"""

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from invgeom import (
    PartialBijection,
    cayley_self_action,
    compose,
    fileio,
    from_table,
    invert,
    partial_bijection_count,
)
from invgeom.action import EtaleAction
from invgeom.families import (
    build_example,
    chain_semilattice,
    cyclic_group_table,
    semilattice_times_group,
    symmetric_inverse_generators,
)

HERE = Path(__file__).resolve().parent

# Report values of `verify` that do not depend on how elements are
# numbered, pinned at the commit that introduced the benchmark.  ROADMAP
# items may add report fields, so only these values are compared.
# The on-demand I5 run is checked for its verdict only.
PINNED = {
    "i4": {
        "constant": 0,
        "generators": 88,
        "threshold": 1,
        "max_chain": 4,
        "cover_size": 7,
        "orbit_L_C": ["1", "0"],
        "coarse_radius": 0,
        "rips_word_L_C": ["1", "0"],
        "f1_size": 7,
    },
    "chain": {
        "constant": 0,
        "generators": 12,
        "threshold": 1,
        "max_chain": 31,
        "cover_size": 3,
        "orbit_L_C": ["1", "0"],
        "coarse_radius": 0,
        "rips_word_L_C": ["2", "0"],
        "f1_size": 5,
    },
}

BUILD_SAMPLES = 200


@dataclass(frozen=True)
class Fixture:
    """An op's command and what its check needs to know."""

    mode: str      # "verify" or "build"
    args: tuple    # arguments after the mode, relative to the op directory
    expect: str    # key of the expectation the op's output must meet
    sizes: dict    # input size: order, finite metric pairs, product bytes


# Files an op writes into its directory; removed before each op.
OUTPUTS = ("report.json", "report.txt", "build.json")


def _relabelled(monoid, gens, rng):
    """An isomorphic copy of ``monoid`` with element indices permuted."""
    perm = rng.permutation(monoid.order)
    product = np.empty_like(monoid.product, dtype=np.int64)
    product[perm[:, None], perm[None, :]] = perm[monoid.product]
    copy = from_table(product, int(perm[monoid.identity]))
    return copy, tuple(sorted(int(perm[g]) for g in gens))


def _i4():
    built = build_example("i4")
    return built.monoid, built.quasi_generators


def _chain():
    # 4-chain x Z/60: order 240 keeps every triple sweep under its cap of
    # 250, and each L-class is a 60-cycle, so searches run ~30 levels deep.
    k, m = 4, 60
    monoid = semilattice_times_group(chain_semilattice(k), cyclic_group_table(m))
    top = k - 1
    return monoid, (top * m + 1, top * m + m - 1)


def _sizes(monoid):
    return {
        "order": monoid.order,
        "finite_metric_pairs": sum(len(c) ** 2 for c in monoid.lclasses),
        "product_bytes": int(monoid.product.nbytes),
    }


def _i5():
    built = build_example("i5")
    return built.monoid, built.quasi_generators


BASES = {"i4": _i4, "i5": _i5, "chain": _chain}


def verify_fixture(base, radius, tamper, seed, out_dir):
    """Files for `verify` on a seeded relabelling of a bundled monoid.

    With ``seed`` None the bundled numbering is kept; tampering needs a
    seed.
    """
    monoid, gens = BASES[base]()
    if seed is not None:
        rng = np.random.default_rng(seed)
        monoid, gens = _relabelled(monoid, gens, rng)
    action = cayley_self_action(monoid, gens)
    if tamper:
        # One act entry in a non-identity idempotent's column: that column
        # must equal restriction, so `extends-restriction` always fails.
        act = np.array(action.act)
        idem = [e for e in monoid.idempotents if e != monoid.identity]
        e = idem[int(rng.integers(len(idem)))]
        x = int(rng.integers(monoid.order))
        v = int(rng.integers(monoid.order - 1))
        act[x, e] = v + (v >= act[x, e])
        action = EtaleAction(monoid=monoid, presheaf=action.presheaf, act=act)
    out_dir = Path(out_dir)
    fileio.save_monoid_table(out_dir / "w.monoid.json", monoid)
    fileio.save_presheaf(out_dir / "w.presheaf.json", action.presheaf)
    fileio.save_action(
        out_dir / "w.action.json",
        action,
        "w.monoid.json",
        "w.presheaf.json",
        gens=gens,
    )
    args = (
        "--input", "w.action.json",
        "--radius", str(radius),
        "--basepoint", str(monoid.identity),
        "--out", "report",
    )
    return Fixture("verify", args, "tampered" if tamper else base, _sizes(monoid))


def _build_fixture(seed, out_dir):
    gens = list(symmetric_inverse_generators(6))
    rng = np.random.default_rng(seed)
    gens = [gens[i] for i in rng.permutation(len(gens))]
    order = partial_bijection_count(6)
    out_dir = Path(out_dir)
    fileio.save_generator_file(out_dir / "w.gens.json", 6, gens)
    pairs = rng.integers(order, size=(BUILD_SAMPLES, 2))
    (out_dir / "w.samples.json").write_text(json.dumps(pairs.tolist()))
    # The table is int16 below 2**15 elements.
    sizes = {
        "order": order,
        "finite_metric_pairs": 0,
        "product_bytes": order * order * 2,
    }
    args = ("w.gens.json", "w.samples.json", "build.json")
    return Fixture("build", args, "build", sizes)


# Why each workload was chosen is in BENCHMARK.json.
WORKLOADS = ("verify-i4", "verify-chain", "verify-i4-tampered", "build-i6")


def make_fixture(workload, seed, out_dir):
    """Write the workload's input files into ``out_dir``; return a Fixture."""
    if workload == "verify-i4":
        return verify_fixture("i4", 1, False, seed, out_dir)
    if workload == "verify-chain":
        return verify_fixture("chain", 2, False, seed, out_dir)
    if workload == "verify-i4-tampered":
        return verify_fixture("i4", 1, True, seed, out_dir)
    if workload == "build-i6":
        return _build_fixture(seed, out_dir)
    raise KeyError(f"unknown workload {workload!r}")


def op_argv(fixture, trace_file=None, op_id=0, counts=True):
    """The op's command line: the CLI or the build child, or the tracer."""
    if trace_file is not None:
        flags = () if counts else ("--spans-only",)
        head = (sys.executable, str(HERE / "tracer.py"), *flags, str(trace_file))
        return (*head, str(op_id), fixture.mode, *fixture.args)
    if fixture.mode == "verify":
        return (sys.executable, "-m", "invgeom.cli", "verify", *fixture.args)
    return (sys.executable, str(HERE / "child.py"), "build", *fixture.args)


def _image(row):
    return PartialBijection(len(row), tuple(row))


def check_op(expect, code, run_dir):
    """None when the op's output meets the expectation, else the reason."""
    run_dir = Path(run_dir)
    if expect == "build":
        return _check_build(code, run_dir)
    checks = read_report(run_dir)
    if checks is None:
        return f"exit {code} and no report"
    by_name = {c["name"]: c for c in checks}
    if expect == "tampered":
        axioms = by_name.get("action-axioms")
        if code != 1 or axioms is None or axioms["pass"]:
            return f"exit {code}; expected exit 1 with action-axioms FAIL"
        return None
    failed = [c["name"] for c in checks if not c["pass"]]
    if code != 0 or failed:
        return f"exit {code}, failing checks {failed}"
    got, pinned = report_values(checks), PINNED.get(expect)
    if pinned is not None and got != pinned:
        return f"report values {got} differ from pinned {pinned}"
    return None


def read_report(run_dir):
    """The checks of the op's verify report, or None if it wrote none."""
    path = Path(run_dir) / "report.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())["checks"]


def report_values(checks):
    """The relabelling-invariant values of a verify report."""
    out = {}
    for c in checks:
        name, data = c["name"], c["data"]
        if name == "cobounded":
            out["constant"] = data["constant"]
        elif name == "generator-extraction":
            out.update(
                generators=data["generators"],
                threshold=data["threshold"],
                max_chain=data["max_chain"],
            )
        elif name == "properness-cover":
            out["cover_size"] = data["cover_size"]
        elif name == "orbit-map-qi":
            out["orbit_L_C"] = [data["L"], data["C"]]
            out["coarse_radius"] = data["coarse_radius"]
        elif name.startswith("rips-vs-word-qi-"):
            out["rips_word_L_C"] = [data["L"], data["C"]]
        elif name.startswith("rips-quasi-generators-"):
            out["f1_size"] = data["f1_size"]
    return out


def _check_build(code, run_dir):
    out_path = run_dir / "build.json"
    if code != 0 or not out_path.exists():
        return f"exit {code} and no build output"
    out = json.loads(out_path.read_text())
    if out["order"] != partial_bijection_count(6):
        return f"order {out['order']}, expected {partial_bijection_count(6)}"
    for a, b, ab, a_inv in out["samples"]:
        a, b = _image(a), _image(b)
        if _image(ab) != compose(a, b):
            return f"product of {a} and {b} is not their composite"
        if _image(a_inv) != invert(a):
            return f"inverse of {a} is wrong"
    return None
