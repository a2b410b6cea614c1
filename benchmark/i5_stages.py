"""On-demand traced `verify` on I5, to check where the spans put the time.

    python3 benchmark/i5_stages.py [--seed N]

Not a workload: one op takes about two minutes on a 2-core Xeon, too long
to repeat in every comparison.  Prints every direct call made by
`run_verification`, in order, with its inclusive time, then the op's wall
time.  Only spans are recorded, since counting 130 M scalar products would
inflate the stages that make them.  Without ``--seed`` the bundled
numbering is kept, as in the stage table this should reproduce (2-core
Xeon VM, Python 3.11.7, numpy 2.4.6): word-metric predicates (uniform
properness) ~60 s, word-metric agreement ~33 s, `validate_action` ~10 s,
`check_theta_all` ~7 s.  Measured when the benchmark was introduced, on
the same kind of machine: 68 / 42 / 22 / 6.6 s, 148 s in total, in the
same order.  A seeded relabelling scatters the table accesses, which
roughly doubles `validate_action` there.
"""

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    import layers
    import workloads

    run.WORK.mkdir(exist_ok=True)
    op_dir = Path(tempfile.mkdtemp(prefix="i5-", dir=run.WORK))
    try:
        fixture = workloads.verify_fixture("i5", 1, False, args.seed, op_dir)
        trace_file = op_dir / "trace.json"
        with run.Launcher() as launcher:
            op = run.run_op(
                launcher, workloads, fixture, op_dir, trace_file, counts=False
            )
        trace = json.loads(trace_file.read_text())
    finally:
        shutil.rmtree(op_dir, ignore_errors=True)
    spans = trace["spans"]
    root = next(
        i for i, s in enumerate(spans) if s["name"] == "verify.run_verification"
    )
    for s in spans:
        if s["parent"] == root:
            print(f"{s['end'] - s['start']:9.2f} s  {s['name']}")
    values = layers.layer_values(trace, op.checks)
    print(f"{values['verify.run_verification.s']:9.2f} s  run_verification")
    print(f"{op.wall_s:9.2f} s  op wall time, peak RSS {op.rss_mb:.0f} MB")
    print(f"check: {op.problem or 'all checks PASS'}")
    run._write("traces", "i5-stages", args.seed, {"trace": trace, "values": values})
    return 0 if op.problem is None else 1


if __name__ == "__main__":
    sys.exit(main())
