"""Batch front end: every command end to end, the exit-code contract, and
tolerances taken from the configuration."""

import json

import numpy as np
import pytest

from specdde import cli

TWO_PI = 2.0 * np.pi

COMMANDS = ("solve", "diagnose", "besov", "verify", "sweep")

TINY = {
    "problem": {
        "n": 2,
        "A": [[-1.0, 0.25], [0.0, -2.0]],
        "L": {"atoms": [{"coef": [[0.1, 0.0], [0.0, 0.1]], "lag": TWO_PI}]},
        "G": {"atoms": [{"coef": [[0.1, 0.02], [0.0, 0.1]], "lag": TWO_PI / 4.0}]},
        "kernel": {"terms": [{"c": 0.2, "m": 0, "alpha": 2.0},
                             {"c": 0.1, "m": 1, "alpha": 1.0}]},
        "forcing": {"const": [0.5, 0.0], "cos": [[1.0, 0.0]], "sin": [[0.0, 1.0]]},
    },
    "K": 8,
    "K_diag": 16,
    "N_list": [32, 64],
    "K_list": [2, 4, 8],
}


def run(tmp_path, command, doc, name="out"):
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / name
    code = cli.main([command, "--config", str(config), "--out", str(out)])
    return code, out


def report_of(out, command):
    return json.loads((out / f"{command}_report.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", COMMANDS)
def test_command_writes_a_byte_identical_report(tmp_path, command):
    code, first = run(tmp_path, command, TINY, "first")
    assert code == 0
    report = report_of(first, command)
    assert report["exit_code"] == 0 and "error" not in report
    assert report["config"]["K"] == 8
    code, second = run(tmp_path, command, TINY, "second")
    assert code == 0
    files = sorted(p.name for p in first.iterdir())
    assert files == sorted(p.name for p in second.iterdir())
    for name in files:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


@pytest.mark.parametrize("command", COMMANDS)
def test_singular_cond_tolerance_is_honoured(tmp_path, command):
    # M(0) has 1-norm condition 2.9 here, far inside the default limit
    doc = dict(TINY, tolerances={"singular_cond": 1.5})
    code, out = run(tmp_path, command, doc)
    assert code == 2
    report = report_of(out, command)
    assert report["exit_code"] == 2
    assert report["error"]["type"] == "singular_mode"
    assert report["error"]["modes"]
    assert min(report["error"]["conditions"]) > 1.5


def test_seed_is_an_unknown_field(tmp_path):
    code, out = run(tmp_path, "solve", dict(TINY, seed=0))
    assert code == 3
    error = report_of(out, "solve")["error"]
    assert error["type"] == "validation"
    assert error["violations"] == [{"path": "seed", "message": "unknown field"}]


def test_seed_flag_is_gone(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps(TINY), encoding="utf-8")
    with pytest.raises(SystemExit):
        cli.main(["solve", "--config", str(config), "--out", str(tmp_path), "--seed", "1"])
