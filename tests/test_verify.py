"""How one `run_verification` orders, skips and shares its checks."""

import importlib
import importlib.util
from pathlib import Path
from unittest.mock import patch

from invgeom import geometry, verify
from invgeom.verify import run_verification

from test_action import stranded_point_action
from test_report_contract import tampered_i4

ROOT = Path(__file__).resolve().parent.parent


def _by_name(checks):
    return {c.name: c for c in checks}


def test_a_failed_action_skips_every_check_built_on_it():
    with patch.object(
        verify, "coboundedness_constant", wraps=verify.coboundedness_constant
    ) as cobound, patch.object(
        verify, "rips_graph", wraps=verify.rips_graph
    ) as rips:
        checks, passed = run_verification(*tampered_i4())
    by_name = _by_name(checks)
    assert not passed
    assert not by_name["action-axioms"].passed
    assert by_name["action-axioms"].witness is not None
    for name in (
        "presheaf-axioms",
        "edge-pairing",
        "word-metric-agreement",
        "word-metric-predicates",
    ):
        assert by_name[name].passed, name
    skipped = {
        "theta-isometry": ["action-axioms"],
        "cobounded": ["action-axioms"],
        "generator-extraction": ["cobounded"],
        "properness-cover": ["generator-extraction"],
        "orbit-map-qi": ["cobounded"],
        "orbit-inequalities": ["cobounded"],
        "rips-predicates-r1": ["action-axioms"],
        "rips-embedding-bounds-r1": ["action-axioms"],
        "rips-vs-word-qi-r1": ["action-axioms"],
        "rips-quasi-generators-r1": ["rips-predicates-r1"],
    }
    for name, after in skipped.items():
        check = by_name[name]
        assert not check.passed and check.witness is None, name
        assert check.data == {"skipped_after": after}, name
    assert len(checks) == 5 + len(skipped)
    assert str(by_name["theta-isometry"]) == "SKIP theta-isometry after action-axioms"
    # a skipped check computes nothing
    assert cobound.call_count == 0 and rips.call_count == 0


def test_an_uncobounded_action_skips_the_orbit_checks_and_runs_rips():
    checks, passed = run_verification(stranded_point_action(), ())
    by_name = _by_name(checks)
    assert not passed
    assert not by_name["cobounded"].passed
    assert by_name["cobounded"].data == {"constant": None}
    for name, after in (
        ("generator-extraction", "cobounded"),
        ("properness-cover", "generator-extraction"),
        ("orbit-map-qi", "cobounded"),
        ("orbit-inequalities", "cobounded"),
    ):
        assert by_name[name].data == {"skipped_after": [after]}, name
    for name in (
        "rips-predicates-r1",
        "rips-embedding-bounds-r1",
        "rips-vs-word-qi-r1",
        "rips-quasi-generators-r1",
    ):
        assert by_name[name].passed, name


def test_an_error_inside_a_check_fails_that_check(i2_action):
    # no letters: the non-idempotents of I2 are out of reach
    checks, passed = run_verification(i2_action, ())
    by_name = _by_name(checks)
    assert not passed
    for name in ("word-metric-agreement", "word-metric-predicates"):
        assert "not quasi-generating" in by_name[name].data["error"], name
    for name in ("orbit-map-qi", "orbit-inequalities", "rips-vs-word-qi-r1"):
        assert by_name[name].data == {"skipped_after": ["word-metric-predicates"]}
    assert by_name["cobounded"].passed
    assert by_name["rips-quasi-generators-r1"].passed


def test_a_failed_metric_build_runs_once(i2_action):
    with patch.object(verify, "cayley_metric", wraps=verify.cayley_metric) as word:
        checks, passed = run_verification(i2_action, ())
    by_name = _by_name(checks)
    assert not passed
    assert word.call_count == 1
    errors = [by_name[name].data["error"]
              for name in ("word-metric-agreement", "word-metric-predicates")]
    assert errors[0] == errors[1]
    assert "not quasi-generating" in errors[0]


def test_one_run_builds_each_metric_once(i3_action, i3_transpositions):
    with patch.object(
        verify, "cayley_metric", wraps=verify.cayley_metric
    ) as word, patch.object(
        verify, "validate_metric_predicates", wraps=verify.validate_metric_predicates
    ) as predicates, patch.object(
        geometry, "validate_metric_predicates", wraps=geometry.validate_metric_predicates
    ) as nested:
        checks, passed = run_verification(i3_action, i3_transpositions)
    assert passed, [str(c) for c in checks if not c.passed]
    assert word.call_count == 1
    assert predicates.call_count == 2  # the word metric and the Rips metric
    assert nested.call_count == 0


def _benchmark_tracer():
    spec = importlib.util.spec_from_file_location(
        "benchmark_tracer", ROOT / "benchmark" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_hook_resolves():
    # the benchmark's tracer rebinds these names and fails on a missing one
    tracer = _benchmark_tracer()
    hooks = list(tracer.SPANNED) + [(m, q) for _, m, q in tracer.COUNTED]
    for module, qualname in hooks:
        owner = importlib.import_module(f"invgeom.{module}")
        *classes, name = qualname.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        assert name in vars(owner), f"invgeom.{module}.{qualname}"
