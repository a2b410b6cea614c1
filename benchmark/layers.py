"""Per-layer values derived from the spans and counters of one traced op.

A layer is an ``invgeom`` module.  A span's self time is its duration minus
the durations of its direct child spans; a layer's ``self_s`` sums the self
times of its spans.  A function's inclusive ``.s`` sums its outermost spans
only, so a call nested in another call of the same name is not counted
twice.
"""

from collections import defaultdict

# Report checks of `run_verification`, in the order it runs them, and the
# function whose direct call from `run_verification` computes each one.
CHECK_SPANS = (
    ("presheaf-axioms", "presheaf.validate_presheaf"),
    ("action-axioms", "action.validate_action"),
    ("theta-isometry", "verify.check_theta_all"),
    ("edge-pairing", "verify.check_edge_pairing"),
    ("word-metric-agreement", "verify.check_word_metric_agreement"),
    ("word-metric-predicates", "geometry.validate_metric_predicates"),
    ("cobounded", "action.coboundedness_constant"),
    ("generator-extraction", "geometry.extract_generators"),
    ("properness-cover", "action.properness_witness"),
    ("orbit-map-qi", "geometry.orbit_map_qi"),
    ("orbit-inequalities", "geometry.orbit_inequalities"),
    ("rips-predicates-", "geometry.validate_metric_predicates"),
    ("rips-embedding-bounds-", "geometry.rips_embedding_bounds"),
    ("rips-vs-word-qi-", "geometry.qi_constants"),
    ("rips-quasi-generators-", "geometry.quasi_generators_from_metric"),
)


def _module(name):
    return name.split(".", 1)[0]


def span_times(spans):
    """(inclusive seconds per name, self seconds per span index)."""
    dur = [s["end"] - s["start"] for s in spans]
    own = list(dur)
    for s, d in zip(spans, dur):
        if s["parent"] is not None:
            own[s["parent"]] -= d
    inclusive = defaultdict(float)
    for i, s in enumerate(spans):
        p = s["parent"]
        while p is not None and spans[p]["name"] != s["name"]:
            p = spans[p]["parent"]
        if p is None:
            inclusive[s["name"]] += dur[i]
    return inclusive, own


def _after_first_fail(spans, checks):
    """Span time of `run_verification` after its first failing check ended."""
    roots = [i for i, s in enumerate(spans) if s["name"] == "verify.run_verification"]
    if not roots or checks is None:
        return 0.0
    root = roots[0]
    calls = [s for s in spans if s["parent"] == root]
    cursor = 0
    for check in checks:
        fn = next(
            (f for prefix, f in CHECK_SPANS if check["name"].startswith(prefix)),
            None,
        )
        while cursor < len(calls) and calls[cursor]["name"] != fn:
            cursor += 1
        if cursor == len(calls):
            return 0.0
        if not check["pass"]:
            return spans[root]["end"] - calls[cursor]["end"]
        cursor += 1
    return 0.0


def layer_values(trace, checks):
    """Every per-layer value of one traced op, keyed by metric name."""
    spans = trace["spans"]
    inclusive, own = span_times(spans)
    out = {}
    for name, calls in trace["counts"].items():
        out[f"{name}.calls"] = calls
        out[f"{name}.s"] = inclusive.get(name, 0.0)
        out[f"{name}.self_s"] = 0.0
        out[f"{_module(name)}.self_s"] = 0.0
    for s, t in zip(spans, own):
        out[f"{s['name']}.self_s"] += t
        out[f"{_module(s['name'])}.self_s"] += t
    out.update(trace["bytes"])
    out["verify.checks_run"] = len(checks) if checks else 0
    out["verify.checks_failed"] = sum(not c["pass"] for c in checks or ())
    out["verify.after_first_fail_s"] = _after_first_fail(spans, checks)
    return out
