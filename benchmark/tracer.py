"""Run one op with the public functions of invgeom wrapped in spans.

    python3 tracer.py [--spans-only] TRACE_FILE OP_ID verify ARG...
    python3 tracer.py [--spans-only] TRACE_FILE OP_ID build GENS SAMPLES OUT

Each traced function is rebound in every ``invgeom`` namespace that holds
it, so calls between modules go through the wrapper; the package itself is
unchanged.  Spans (name, start, end, parent, op id) and counters stay in
memory and are written to TRACE_FILE as JSON when the op ends.  The exit
code is the op's own.  ``--spans-only`` leaves out the counted functions,
whose wrappers add about 0.3 us per call (some 40 s to a verify on I5).
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import invgeom  # noqa: E402
import invgeom.cli  # noqa: E402  (imports every layer)

# (module, function) pairs timed with a span per call.
SPANNED = (
    ("monoid", "generate_monoid"),
    ("monoid", "build_from_tables"),
    ("fileio", "load_action"),
    ("cayley", "cayley_metric"),
    ("cayley", "word_distances"),
    ("extmetric", "all_pairs_bfs"),
    ("presheaf", "MetricPresheaf.build"),
    ("presheaf", "validate_presheaf"),
    ("action", "validate_action"),
    ("action", "check_theta_isometry"),
    ("action", "properness_witness"),
    ("action", "coboundedness_constant"),
    ("geometry", "validate_metric_predicates"),
    ("geometry", "extract_generators"),
    ("geometry", "orbit_map_qi"),
    ("geometry", "orbit_inequalities"),
    ("geometry", "rips_graph"),
    ("geometry", "rips_embedding_bounds"),
    ("geometry", "quasi_generators_from_metric"),
    ("geometry", "qi_constants"),
    ("verify", "run_verification"),
    ("verify", "check_word_metric_agreement"),
    ("verify", "check_theta_all"),
    ("verify", "check_edge_pairing"),
)

# Called too often for a span each (over a million times per I4 verify):
# these are only counted, under the names given first.
COUNTED = (
    ("monoid.mul", "monoid", "InverseMonoid.mul"),
    ("partial_bijection.compose", "partial_bijection", "compose"),
)


class Tracer:
    """Spans and counters of one op, held in memory until the op ends."""

    def __init__(self, op_id):
        self.op_id = op_id
        self.origin = time.perf_counter()
        self.spans = []      # [name, start, end, parent index]
        self.stack = []
        self.counts = {}
        self.bytes = {"monoid.product_bytes": 0, "extmetric.table_bytes": 0}

    def spanned(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            self._sizes(name, result)
            return result

        return wrapper

    def counted(self, name, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def _sizes(self, name, result):
        if name == "monoid.build_from_tables":
            self.bytes["monoid.product_bytes"] += int(result.product.nbytes)
        elif name == "extmetric.all_pairs_bfs":
            self.bytes["extmetric.table_bytes"] += int(result.table.nbytes)

    def install(self, counts=True):
        namespaces = [
            m for n, m in sys.modules.items()
            if n == "invgeom" or n.startswith("invgeom.")
        ]
        targets = [(f"{m}.{q}", m, q, self.spanned) for m, q in SPANNED]
        if counts:
            targets += [(name, m, q, self.counted) for name, m, q in COUNTED]
        for name, module, qualname, wrap in targets:
            owner = sys.modules[f"invgeom.{module}"]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(wrap(name, raw.__func__)))
                else:
                    setattr(cls, attr, wrap(name, raw))
                continue
            original = getattr(owner, qualname)
            wrapper = wrap(name, original)
            for ns in namespaces:
                if getattr(ns, qualname, None) is original:
                    setattr(ns, qualname, wrapper)

    def dump(self, path, wall_s, code):
        origin = self.origin
        data = {
            "op_id": self.op_id,
            "exit_code": code,
            "wall_s": wall_s,
            "spans": [
                {
                    "name": name,
                    "start": start - origin,
                    "end": end - origin,
                    "parent": parent,
                    "op": self.op_id,
                }
                for name, start, end, parent in self.spans
            ],
            "counts": self.counts,
            "bytes": self.bytes,
        }
        Path(path).write_text(json.dumps(data))


def main(argv):
    counts = argv[0] != "--spans-only"
    if not counts:
        argv = argv[1:]
    trace_path, op_id, mode, rest = argv[0], int(argv[1]), argv[2], argv[3:]
    tracer = Tracer(op_id)
    tracer.install(counts)
    start = time.perf_counter()
    code = 1
    try:
        if mode == "verify":
            code = invgeom.cli.main(["verify", *rest])
        elif mode == "build":
            import child

            code = child.build(*rest)
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    finally:
        tracer.dump(trace_path, time.perf_counter() - start, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
