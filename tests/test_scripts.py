"""The example scripts under scripts/ run to the end on a small example."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "argv, line",
    [
        (["run_pipeline.py", "--example", "i2"],
         "orbit map QI: L = 1, C = 0, coarse radius 0, order-preserving: True"),
        (["sweep_rips_radii.py", "--example", "i2", "--max-radius", "2"],
         "  1          True     2     True           (1, 0)"),
    ],
    ids=["run_pipeline", "sweep_rips_radii"],
)
def test_script_runs_on_i2(argv, line, monkeypatch, capsys):
    # a script that returns without raising exits 0
    monkeypatch.setattr(sys, "argv", argv)
    runpy.run_path(str(SCRIPTS / argv[0]), run_name="__main__")
    assert line in capsys.readouterr().out.splitlines()
