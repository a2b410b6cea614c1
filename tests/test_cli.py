import json

import pytest

from invgeom import fileio
from invgeom.cli import main


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
    action, stored = fileio.load_action(i2_files / "i2.action.json")
    assert action.monoid.order == 7
    assert stored is not None and len(stored) == 1


def test_gen_from_generator_file(i2_files, tmp_path):
    out = tmp_path / "rebuilt.json"
    assert main(["gen", "--input", str(i2_files / "i2.gens.json"), "--out", str(out)]) == 0
    assert out.read_bytes() == (i2_files / "i2.monoid.json").read_bytes()


def test_gen_empty_generator_list(tmp_path):
    src = tmp_path / "empty.json"
    src.write_text(json.dumps({"ground_size": 1, "generators": []}))
    out = tmp_path / "trivial.json"
    assert main(["gen", "--input", str(src), "--out", str(out)]) == 0
    monoid = fileio.load_monoid_table(out)
    assert monoid.order == 1


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
    data = json.loads((i2_files / "i2.action.json").read_text())
    # break the action law somewhere harmless-looking
    data["act"][0][2], data["act"][0][0] = data["act"][0][0], data["act"][0][2]
    bad = tmp_path / "bad.action.json"
    bad.write_text(json.dumps(data))
    # point the relative references back at the fixture directory
    for name in ("i2.monoid.json", "i2.presheaf.json"):
        (tmp_path / name).write_bytes((i2_files / name).read_bytes())
    report = tmp_path / "rep"
    code = main(["verify", "--input", str(bad), "--out", str(report)])
    assert code == 1
    written = json.loads((tmp_path / "rep.json").read_text())
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
    loaded = fileio.load_metric(f"{base}.json")
    assert loaded.size == 7
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
    action, _ = fileio.load_action(i2_files / "i2.action.json")
    points = set(range(action.presheaf.num_points))
    outside = min(points - set(action.identity_fiber()))
    args = ["verify", "--input", str(i2_files / "i2.action.json")]
    assert main([*args, "--basepoint", str(outside)]) == 2
    captured = capsys.readouterr()
    assert "--basepoint" in captured.err and "identity fiber" in captured.err
    assert captured.out == ""


def test_verify_rejects_out_of_range_act_entry(i2_files, tmp_path, capsys):
    for name in ("i2.monoid.json", "i2.presheaf.json"):
        (tmp_path / name).write_bytes((i2_files / name).read_bytes())
    data = json.loads((i2_files / "i2.action.json").read_text())
    data["act"][0][0] = 99999
    (tmp_path / "i2.action.json").write_text(json.dumps(data))
    assert main(["verify", "--input", str(tmp_path / "i2.action.json")]) == 2
    assert "act[0][0]" in capsys.readouterr().err
