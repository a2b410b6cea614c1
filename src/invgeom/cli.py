"""Command-line front end.

Subcommands: gen, analyze, graph, metric, verify, qi, examples.  Exit
codes: 0 success, 1 verification failure, 2 usage or parse error.
Every sweep is exhaustive, so a report depends on its inputs alone.
"""

import argparse
import os
import sys
from fractions import Fraction
from pathlib import Path

# No code here makes a BLAS call, so OpenBLAS's worker threads, started
# with numpy, would only spin beside the command; a value the caller set
# still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from . import families, fileio
from .action import cayley_self_action
from .cayley import cayley_metric, symmetric_quasi_generators, word_successors
from .errors import InvgeomError, ParseError
from .geometry import orbit_map_qi, qi_constants, rips_graph
from .monoid import natural_leq_matrix
from .report import checks_to_json, checks_to_text, jsonable
from .verify import run_verification


def _parse_gens(text):
    if text is None:
        return None
    try:
        return tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise ParseError(f"--gens expects comma-separated indices, got {text!r}")


def _radius(args):
    """--radius as a non-negative Fraction."""
    try:
        radius = Fraction(args.radius)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"--radius expects a rational number, got {args.radius!r}")
    if radius < 0:
        raise ParseError(f"--radius must be non-negative, got {args.radius!r}")
    return radius


def _basepoint(args, action):
    """--basepoint checked to be a point of the identity fiber.

    Defaults to the smallest point of the identity fiber.
    """
    if args.basepoint is None:
        return min(action.identity_fiber())
    if not 0 <= args.basepoint < action.presheaf.num_points:
        raise ParseError(
            f"--basepoint {args.basepoint} out of range: the action has "
            f"{action.presheaf.num_points} points"
        )
    if args.basepoint not in action.identity_fiber():
        raise ParseError(f"--basepoint {args.basepoint} is not in the identity fiber")
    return args.basepoint


def _load_setup(args):
    """Resolve --input to (monoid, gens, action-or-None)."""
    monoid, file_gens, action = fileio.load_input(args.input)
    gens = _parse_gens(getattr(args, "gens", None))
    for g in gens or ():
        if not 0 <= g < monoid.order:
            raise ParseError(
                f"--gens index {g} out of range for a monoid of order {monoid.order}"
            )
    if gens is None:
        gens = file_gens
    if gens is None:
        gens = tuple(range(monoid.order))
    return monoid, gens, action


def _self_action(monoid, gens, action):
    return action if action is not None else cayley_self_action(monoid, gens)


def cmd_gen(args):
    monoid, _ = fileio.load_monoid_any(args.input)
    fileio.save_monoid_table(args.out, monoid)
    print(f"wrote table of order {monoid.order} to {args.out}")
    return 0


def cmd_analyze(args):
    monoid, _, _ = _load_setup(args)
    print(f"order: {monoid.order}")
    print(f"identity: {monoid.element_label(monoid.identity)}")
    idem = ", ".join(monoid.element_label(e) for e in monoid.idempotents)
    print(f"idempotents ({len(monoid.idempotents)}): {idem}")
    print("L-classes:")
    for cls in monoid.lclasses:
        print("  {" + ", ".join(monoid.element_label(s) for s in cls) + "}")
    by_ran = {}
    for s in range(monoid.order):
        by_ran.setdefault(monoid.ran(s), []).append(s)
    print("R-classes:")
    for r in sorted(by_ran):
        print("  {" + ", ".join(monoid.element_label(s) for s in by_ran[r]) + "}")
    leq = natural_leq_matrix(monoid)
    strict = leq & ~np.eye(monoid.order, dtype=bool)
    covers = strict & ~(strict @ strict)
    print("natural order (Hasse covers s < t):")
    for s, t in np.argwhere(covers):
        print(
            f"  {monoid.element_label(int(s))} < {monoid.element_label(int(t))}"
        )
    return 0


def cmd_graph(args):
    monoid, gens, action = _load_setup(args)
    vertices = range(monoid.order)
    if args.kind == "cayley":
        name, letters = "cayley", sorted(set(gens))
        succ = word_successors(monoid, letters).tolist()
        edges = sorted(
            (s, t, g) for s, row in enumerate(succ) for t, g in zip(row, letters)
        )
    elif args.kind == "schutzenberger":
        anchor = monoid.identity if args.component is None else args.component
        if not 0 <= anchor < monoid.order:
            raise ParseError(
                f"--component {anchor} out of range: the monoid has "
                f"{monoid.order} elements"
            )
        sym = symmetric_quasi_generators(monoid, gens)
        succ = word_successors(monoid, sym, within_class=True).tolist()
        e = monoid.dom(anchor)
        name = f"fiber_{monoid.idempotents.index(e)}"
        vertices = np.flatnonzero(monoid.dom_table == e).tolist()
        edges = sorted(
            (s, t, g) for s in vertices for t, g in zip(succ[s], sym) if t != s
        )
    else:
        act = _self_action(monoid, gens, action)
        rips = rips_graph(act, _basepoint(args, act), _radius(args))
        name = f"rips_{rips.radius.numerator}_{rips.radius.denominator}"
        succ = rips.successors.tolist()
        edges = [(s, t, None) for s, row in enumerate(succ) for t in row if s < t]
    label = monoid.element_label
    text = fileio.dot_graph(
        name,
        [(v, label(v)) for v in vertices],
        [(u, v, None if g is None else label(g)) for u, v, g in edges],
        directed=args.kind != "rips",
    )
    Path(args.out).write_text(text)
    print(f"wrote {args.kind} graph to {args.out}")
    return 0


def cmd_metric(args):
    monoid, gens, action = _load_setup(args)
    if args.kind == "word":
        metric = cayley_metric(monoid, gens).metric
    else:
        act = _self_action(monoid, gens, action)
        metric = rips_graph(act, _basepoint(args, act), _radius(args)).metric
    labels = [monoid.element_label(s) for s in range(monoid.order)]
    fileio.save_metric(f"{args.out}.json", metric)
    Path(f"{args.out}.txt").write_text(fileio.metric_to_text(metric, labels=labels))
    print(f"wrote {args.kind} metric to {args.out}.json and {args.out}.txt")
    return 0


def cmd_verify(args):
    radius = _radius(args)
    monoid, gens, action = _load_setup(args)
    act = _self_action(monoid, gens, action)
    checks, passed = run_verification(
        act,
        gens,
        radius=radius,
        basepoint=_basepoint(args, act),
    )
    text = checks_to_text(checks)
    print(text, end="")
    if args.out:
        Path(f"{args.out}.json").write_text(
            fileio.dumps_canonical(checks_to_json(checks))
        )
        Path(f"{args.out}.txt").write_text(text)
    return 0 if passed else 1


def cmd_qi(args):
    radius = _radius(args)
    monoid, gens, action = _load_setup(args)
    act = _self_action(monoid, gens, action)
    x1 = _basepoint(args, act)
    word = cayley_metric(monoid, gens)
    orbit = orbit_map_qi(act, x1, word)
    rips = rips_graph(act, x1, radius)
    between = qi_constants(np.arange(monoid.order), rips.metric, word.metric)
    report = {
        "orbit_map": {
            "L": orbit.mult,
            "C": orbit.add,
            "coarse_radius": orbit.coarse_radius,
            "order_preserving": orbit.order_preserving,
        },
        "rips_vs_word": {
            "L": between.mult,
            "C": between.add,
            "coarse_radius": between.coarse_radius,
            "radius": radius,
        },
    }
    text = fileio.dumps_canonical(jsonable(report))
    print(text, end="")
    if args.out:
        Path(args.out).write_text(text)
    return 0


def cmd_examples(args):
    if args.action == "list":
        for spec in families.list_examples():
            print(f"{spec.name}: {spec.description}")
        return 0
    built = families.build_example(args.name)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    monoid = built.monoid
    monoid_path = out_dir / f"{args.name}.monoid.json"
    fileio.save_monoid_table(monoid_path, monoid)
    written = [monoid_path]
    if built.spec.family == "symmetric-inverse":
        # the full generating set, so the file regenerates the monoid alone
        gens_path = out_dir / f"{args.name}.gens.json"
        n = built.spec.params["n"]
        fileio.save_generator_file(
            gens_path, n, families.symmetric_inverse_generators(n)
        )
        written.append(gens_path)
    action = cayley_self_action(monoid, built.quasi_generators)
    presheaf_path = out_dir / f"{args.name}.presheaf.json"
    fileio.save_presheaf(presheaf_path, action.presheaf)
    written.append(presheaf_path)
    action_path = out_dir / f"{args.name}.action.json"
    fileio.save_action(
        action_path,
        action,
        monoid_path.name,
        presheaf_path.name,
        gens=built.quasi_generators,
    )
    written.append(action_path)
    for path in written:
        print(f"wrote {path}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="invgeom",
        description="Finite inverse monoids as extended metric spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="build a monoid file from generators or a table")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("analyze", help="print idempotents, Green classes, Hasse order")
    p.add_argument("--input", required=True)
    p.add_argument("--gens", default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("graph", help="DOT export of a graph")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--kind", choices=("cayley", "schutzenberger", "rips"), default="cayley"
    )
    p.add_argument("--gens", default=None)
    p.add_argument("--component", type=int, default=None,
                   help="element whose Schützenberger component to export")
    p.add_argument("--radius", default="1")
    p.add_argument("--basepoint", type=int, default=None)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("metric", help="matrix export of a word or Rips metric")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--kind", choices=("word", "rips"), default="word")
    p.add_argument("--gens", default=None)
    p.add_argument("--radius", default="1")
    p.add_argument("--basepoint", type=int, default=None)
    p.set_defaults(func=cmd_metric)

    p = sub.add_parser("verify", help="run the full predicate suite")
    p.add_argument("--input", required=True)
    p.add_argument("--gens", default=None)
    p.add_argument("--radius", default="1")
    p.add_argument("--basepoint", type=int, default=None)
    p.add_argument("--out", default=None, help="report base path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("qi", help="quasi-isometry constants between metrics")
    p.add_argument("--input", required=True)
    p.add_argument("--gens", default=None)
    p.add_argument("--radius", default="1")
    p.add_argument("--basepoint", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_qi)

    p = sub.add_parser("examples", help="list or emit bundled examples")
    p.add_argument("action", choices=("list", "emit"))
    p.add_argument(
        "name",
        nargs="?",
        default=None,
        choices=[spec.name for spec in families.list_examples()],
    )
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_examples)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "examples" and args.action == "emit" and not args.name:
        parser.error("examples emit requires a name")
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvgeomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
