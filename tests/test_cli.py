import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import invgeom
from invgeom import fileio
from invgeom.cli import main

from conftest import (
    LAYOUTS,
    copy_data_file,
    data_file_bytes,
    read_metric_file,
    set_table_entries,
)


@pytest.fixture(scope="module")
def i2_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("i2")
    assert main(["examples", "emit", "i2", "--out-dir", str(out)]) == 0
    return out


def test_examples_list(capsys):
    assert main(["examples", "list"]) == 0
    output = capsys.readouterr().out
    assert "i2" in output and "chain3_z3" in output


def test_examples_emit_writes_loadable_files(i2_files):
    monoid, gens = fileio.load_monoid_any(i2_files / "i2.monoid.json")
    assert monoid.order == 7 and gens is None
    _, stored, action = fileio.load_input(i2_files / "i2.action.json")
    assert action.monoid.order == 7
    assert stored is not None and len(stored) == 1


def test_gen_from_generator_file(i2_files, tmp_path):
    out = tmp_path / "i2.monoid.json"
    assert main(["gen", "--input", str(i2_files / "i2.gens.json"), "--out", str(out)]) == 0
    assert data_file_bytes(out) == data_file_bytes(i2_files / "i2.monoid.json")


def test_gen_empty_generator_list(tmp_path):
    src = tmp_path / "empty.json"
    src.write_text(json.dumps({"ground_size": 1, "generators": []}))
    out = tmp_path / "trivial.json"
    assert main(["gen", "--input", str(src), "--out", str(out)]) == 0
    monoid, gens, action = fileio.load_input(out)
    assert monoid.order == 1 and gens is None and action is None


def test_verify_fixture_passes(i2_files, tmp_path, capsys):
    report = tmp_path / "report"
    code = main(
        [
            "verify",
            "--input",
            str(i2_files / "i2.action.json"),
            "--out",
            str(report),
        ]
    )
    assert code == 0
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["passed"] is True
    names = [c["name"] for c in data["checks"]]
    assert "orbit-map-qi" in names and "rips-predicates-r1" in names


def test_verify_reports_are_deterministic(i2_files, tmp_path):
    a, b = tmp_path / "ra", tmp_path / "rb"
    for out in (a, b):
        main(
            [
                "verify",
                "--input",
                str(i2_files / "i2.action.json"),
                "--out",
                str(out),
            ]
        )
    assert (tmp_path / "ra.json").read_bytes() == (tmp_path / "rb.json").read_bytes()
    assert (tmp_path / "ra.txt").read_bytes() == (tmp_path / "rb.txt").read_bytes()


def test_verify_fails_on_tampered_action(i2_files, tmp_path, capsys):
    _, _, action = fileio.load_input(i2_files / "i2.action.json")
    a, b = int(action.act[0, 0]), int(action.act[0, 2])
    for layout in LAYOUTS:
        out = tmp_path / layout
        out.mkdir()
        _copy_i2(i2_files, out, "i2.monoid.json", "i2.presheaf.json", "i2.action.json")
        # break the action law somewhere harmless-looking
        bad = out / "i2.action.json"
        set_table_entries(bad, "act", layout, {(0, 2): a, (0, 0): b})
        report = out / "rep"
        code = main(["verify", "--input", str(bad), "--out", str(report)])
        assert code == 1, layout
        written = json.loads((out / "rep.json").read_text())
        assert written["passed"] is False


def test_qi_subcommand(i2_files, capsys):
    code = main(
        [
            "qi",
            "--input",
            str(i2_files / "i2.action.json"),
            "--radius",
            "1",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["orbit_map"]["L"] == "1"
    assert payload["orbit_map"]["order_preserving"] is True
    assert payload["rips_vs_word"]["L"] == "1"


def test_analyze_subcommand(i2_files, capsys):
    assert main(["analyze", "--input", str(i2_files / "i2.monoid.json")]) == 0
    out = capsys.readouterr().out
    assert "order: 7" in out
    assert "L-classes" in out and "Hasse" in out


def test_graph_subcommands(i2_files, tmp_path):
    dot = tmp_path / "g.dot"
    assert (
        main(
            [
                "graph",
                "--input",
                str(i2_files / "i2.gens.json"),
                "--kind",
                "cayley",
                "--out",
                str(dot),
            ]
        )
        == 0
    )
    assert dot.read_text().startswith("digraph")
    assert (
        main(
            [
                "graph",
                "--input",
                str(i2_files / "i2.action.json"),
                "--kind",
                "rips",
                "--radius",
                "1",
                "--out",
                str(dot),
            ]
        )
        == 0
    )
    assert dot.read_text().startswith("graph")


def test_metric_subcommand(i2_files, tmp_path):
    base = tmp_path / "dm"
    code = main(
        [
            "metric",
            "--input",
            str(i2_files / "i2.action.json"),
            "--kind",
            "word",
            "--out",
            str(base),
        ]
    )
    assert code == 0
    table = read_metric_file(f"{base}.json")
    assert table.shape == (7, 7)
    assert (tmp_path / "dm.txt").exists()


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["gen", "--input", str(bad), "--out", str(tmp_path / "x")]) == 2
    assert main(["analyze", "--input", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize(
    "flag,value",
    [("--radius", "abc"), ("--basepoint", "100000"), ("--gens", "5000")],
)
def test_verify_rejects_bad_argument(i2_files, capsys, flag, value):
    args = ["verify", "--input", str(i2_files / "i2.action.json"), flag, value]
    assert main(args) == 2
    assert flag in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["metric", "--input", "x", "--out", "y", "--format", "dot"])
    assert exc.value.code == 2


def test_chain_example_emit_and_verify(tmp_path):
    assert main(["examples", "emit", "chain3_z3", "--out-dir", str(tmp_path)]) == 0
    code = main(
        ["verify", "--input", str(tmp_path / "chain3_z3.action.json")]
    )
    assert code == 0


def test_cap_environment_variable(i2_files, monkeypatch, capsys):
    # every sweep is exhaustive, so the old cap variable changes nothing,
    # whatever it holds
    action = str(i2_files / "i2.action.json")
    assert main(["verify", "--input", action]) == 0
    expected = capsys.readouterr().out
    for value in ("17", "abc", "-5"):
        monkeypatch.setenv("INVGEOM_CAP_EXHAUSTIVE", value)
        assert main(["verify", "--input", action]) == 0
        assert capsys.readouterr().out == expected


def test_verify_rejects_negative_cap(i2_files, capsys):
    # --cap-exhaustive and --seed are gone: any value is a usage error
    action = str(i2_files / "i2.action.json")
    for flag in ("--cap-exhaustive", "--seed"):
        for value in ("-5", "5"):
            with pytest.raises(SystemExit) as exc:
                main(["verify", "--input", action, flag, value])
            assert exc.value.code == 2
            assert flag in capsys.readouterr().err


def test_verify_rejects_basepoint_outside_identity_fiber(i2_files, capsys):
    _, _, action = fileio.load_input(i2_files / "i2.action.json")
    points = set(range(action.presheaf.num_points))
    outside = min(points - set(action.identity_fiber()))
    args = ["verify", "--input", str(i2_files / "i2.action.json")]
    assert main([*args, "--basepoint", str(outside)]) == 2
    captured = capsys.readouterr()
    assert "--basepoint" in captured.err and "identity fiber" in captured.err
    assert captured.out == ""


def test_verify_rejects_out_of_range_act_entry(i2_files, tmp_path, capsys):
    for layout in LAYOUTS:
        out = tmp_path / layout
        out.mkdir()
        _copy_i2(i2_files, out, "i2.monoid.json", "i2.presheaf.json", "i2.action.json")
        set_table_entries(out / "i2.action.json", "act", layout, {(0, 0): 99999})
        assert main(["verify", "--input", str(out / "i2.action.json")]) == 2
        err = capsys.readouterr().err
        assert "act[0][0] = 99999" in err and "Traceback" not in err, layout


def test_verify_leaves_numpy_ma_unimported(tmp_path):
    # numpy.ma costs some 15 ms of imports per op; neither verify nor a
    # build from generators needs any of it
    assert main(["examples", "emit", "i3", "--out-dir", str(tmp_path)]) == 0
    commands = [
        ["verify", "--input", str(tmp_path / "i3.action.json")],
        ["gen", "--input", str(tmp_path / "i3.gens.json"), "--out", str(tmp_path / "t")],
    ]
    src = str(Path(invgeom.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    for args in commands:
        code = (
            "import sys\n"
            "from invgeom.cli import main\n"
            f"assert main({args!r}) == 0\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True,
        )
        assert out.stdout.splitlines()[-1] == "False", args[0]


# The names the package exported when its __init__ imported every layer.
PACKAGE_EXPORTS = {
    "action": "EtaleAction cayley_self_action check_theta_isometry"
    " coboundedness_constant properness_witness validate_action",
    "cayley": "CayleyMetricTable cayley_metric symmetrize word_distances",
    "errors": "CapacityError InvgeomError ParseError PreconditionError"
    " SizeMismatchError TheoremViolationError ValidationError",
    "extmetric": "INFINITE ExtendedMetric all_pairs_bfs",
    "families": "BuiltExample ExampleSpec build_example list_examples"
    " partial_bijection_count semilattice_times_group symmetric_inverse_monoid",
    "geometry": "GenerationCertificate GeneratorExtraction MetricPredicateReport"
    " QiReport QuasiGenerationCertificate RipsGraph extract_generators"
    " orbit_inequalities orbit_map_qi qi_constants quasi_generators_from_metric"
    " rips_embedding_bounds rips_graph validate_metric_predicates",
    "monoid": "InverseMonoid build_from_tables from_table generate_monoid"
    " generating_set mulclose natural_leq_matrix trivial_monoid",
    "partial_bijection": "UNDEFINED PartialBijection compose invert",
    "presheaf": "MetricPresheaf Semilattice cayley_presheaf validate_presheaf",
    "report": "CheckResult Violation",
}


def test_building_a_monoid_loads_only_the_algebra_layer(i2_files):
    gens = str(i2_files / "i2.gens.json")
    code = (
        "import importlib, json, sys\n"
        "from invgeom import fileio, generate_monoid\n"
        f"n, gens = fileio.load_generator_file({gens!r})\n"
        "assert generate_monoid(gens, ground_size=n).order == 7\n"
        "print(json.dumps(sorted(sys.modules)))\n"
        "import invgeom\n"
        f"exports = {PACKAGE_EXPORTS!r}\n"
        "for module, names in exports.items():\n"
        "    owner = importlib.import_module('invgeom.' + module)\n"
        "    for name in names.split():\n"
        "        assert getattr(invgeom, name) is getattr(owner, name), name\n"
        "        assert name in dir(invgeom), name\n"
        "print('exports resolve')\n"
    )
    src = str(Path(invgeom.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    loaded, resolved = out.stdout.splitlines()[-2:]
    unwanted = {
        f"invgeom.{name}"
        for name in "action presheaf cayley extmetric geometry families report verify cli".split()
    } | {"concurrent.futures", "logging"}
    assert "invgeom.monoid" in json.loads(loaded)
    assert unwanted.isdisjoint(json.loads(loaded))
    assert resolved == "exports resolve"


def _copy_i2(i2_files, tmp_path, *names):
    for name in names:
        copy_data_file(i2_files / name, tmp_path)


@pytest.mark.parametrize(
    "command,name,calls",
    [
        ("verify", "i2.action.json", 3),  # with the monoid and presheaf it names
        ("verify", "i2.gens.json", 1),
        ("verify", "i2.monoid.json", 1),
        ("gen", "i2.gens.json", 1),
    ],
)
def test_every_input_file_is_parsed_once(
    i2_files, tmp_path, capsys, command, name, calls
):
    args = [command, "--input", str(i2_files / name)]
    if command == "gen":
        args += ["--out", str(tmp_path / "m.json")]
    with mock.patch("json.loads", wraps=json.loads) as loads, mock.patch(
        "numpy.load", wraps=np.load
    ) as load_npy:
        assert main(args) == 0
    assert loads.call_count == calls
    # and each sidecar of the files read, once
    read = sorted(Path(c.args[0]).name for c in load_npy.call_args_list)
    assert read == {
        "i2.action.json": [
            "i2.action.act.npy", "i2.monoid.product.npy", "i2.presheaf.restrict.npy"
        ],
        "i2.gens.json": [],
        "i2.monoid.json": ["i2.monoid.product.npy"],
    }[name]


@pytest.mark.parametrize("text", ["5", "null", "true", '"react"', "[1]"])
@pytest.mark.parametrize("target", ["verify", "gen", "presheaf"])
def test_top_level_that_is_not_an_object_exits_2(
    i2_files, tmp_path, capsys, target, text
):
    _copy_i2(i2_files, tmp_path, "i2.monoid.json", "i2.presheaf.json", "i2.action.json")
    if target == "presheaf":
        bad = tmp_path / "i2.presheaf.json"
        args = ["verify", "--input", str(tmp_path / "i2.action.json")]
    else:
        bad = tmp_path / "x.json"
        args = [target, "--input", str(bad)]
        args += ["--out", str(tmp_path / "out.json")] if target == "gen" else []
    bad.write_text(text)
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{bad}: top level is not a JSON object" in err


@pytest.mark.parametrize("change", ["out-of-range", "null", "reversed"])
def test_presheaf_labels_must_be_the_idempotents(i2_files, tmp_path, capsys, change):
    _copy_i2(i2_files, tmp_path, "i2.monoid.json", "i2.presheaf.json", "i2.action.json")
    data = json.loads((i2_files / "i2.presheaf.json").read_text())
    labels = data["base"]["labels"]
    data["base"]["labels"] = {
        "out-of-range": [999, *labels[1:]],
        "null": None,
        "reversed": labels[::-1],
    }[change]
    (tmp_path / "i2.presheaf.json").write_text(json.dumps(data))
    assert main(["verify", "--input", str(tmp_path / "i2.action.json")]) == 2
    err = capsys.readouterr().err
    assert "i2.presheaf.json: labels" in err and "idempotents" in err


@pytest.mark.parametrize("component", ["999", "-1"])
def test_graph_rejects_out_of_range_component(i2_files, tmp_path, capsys, component):
    args = ["graph", "--input", str(i2_files / "i2.action.json"), "--kind"]
    args += ["schutzenberger", "--component", component, "--out", str(tmp_path / "g.dot")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and f"--component {component}" in err
    assert not (tmp_path / "g.dot").exists()


def test_examples_emit_rejects_unknown_name(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["examples", "emit", "nosuch", "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "nosuch" in err
    assert all(spec.name in err for spec in invgeom.list_examples())
    assert not any(tmp_path.iterdir())
