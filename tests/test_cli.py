"""Batch front end: every command end to end, the exit-code contract, and
tolerances taken from the configuration."""

import json
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import problems
from specdde import ModeSymbols, cli
from specdde.config import parse_config
from specdde.solver import solve_periodic

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


def _not_json(constant):
    raise ValueError(f"{constant} is not RFC 8259 JSON")


def report_of(out, command):
    """The report, parsed strictly: a NaN or Infinity literal fails the test."""
    text = (out / f"{command}_report.json").read_text(encoding="utf-8")
    return json.loads(text, parse_constant=_not_json)


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


def test_solve_report_gives_the_condition_range(tmp_path):
    code, out = run(tmp_path, "solve", TINY)
    assert code == 0
    condition = report_of(out, "solve")["condition"]
    spec = parse_config(json.dumps(TINY)).problem
    modes = np.arange(-8, 9)
    expected = np.linalg.cond(ModeSymbols.from_spec(spec, 8).modal(spec.state_matrix), 1)
    assert list(condition) == ["max", "min", "worst_mode"]
    assert condition["max"] == np.max(expected) and condition["min"] == np.min(expected)
    assert condition["worst_mode"] == modes[np.argmax(expected)]


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


SAMPLED = dict(TINY, problem=dict(TINY["problem"], L=dict(
    TINY["problem"]["L"],
    distributed={"samples": (0.05 * np.exp(np.linspace(-TWO_PI, 0.0, 17))[:, None, None]
                             * np.eye(2)).tolist(),
                 "span": TWO_PI},
)))


def test_distributed_resolution_is_an_unknown_field(tmp_path):
    doc = json.loads(json.dumps(SAMPLED))
    doc["problem"]["L"]["distributed"]["resolution"] = 64
    code, out = run(tmp_path, "solve", doc)
    assert code == 3
    assert report_of(out, "solve")["error"]["violations"] == [
        {"path": "problem.L.distributed.resolution", "message": "unknown field"}
    ]


def test_verify_at_the_config_defaults(tmp_path):
    # K = 64 with N_list [64, 128, 256]: two grids below 2K + 1
    doc = {key: value for key, value in TINY.items() if key not in ("K", "N_list")}
    code, out = run(tmp_path, "verify", doc)
    assert code == 0
    report = report_of(out, "verify")
    assert [row["n"] for row in report["rows"]] == [64, 128, 256]
    assert report["fitted_order"] == pytest.approx(2.0, abs=0.05)


def test_off_grid_lag_writes_a_report(tmp_path):
    doc = json.loads(json.dumps(SAMPLED))
    doc["problem"]["L"]["distributed"]["span"] = 1.0
    code, out = run(tmp_path, "verify", doc)
    assert code == 3
    report = report_of(out, "verify")
    assert report["exit_code"] == 3
    assert report["error"]["type"] == "off_grid_lag"
    assert "span 1.0" in report["error"]["message"]


def test_off_grid_atom_lag_verifies(tmp_path):
    doc = json.loads(json.dumps(TINY))
    doc["problem"]["G"]["atoms"][0]["lag"] = 1.0
    code, out = run(tmp_path, "verify", doc)
    assert code == 0
    assert report_of(out, "verify")["fitted_order"] == pytest.approx(2.0, abs=0.05)


def test_singular_collocation_system_writes_a_report(tmp_path):
    # the spectral M(k) is regular, but at N = 4 * odd the collocation
    # system is singular at the Nyquist frequency
    doc = {
        "problem": {
            "n": 1,
            "A": [[-1.0]],
            "G": {"atoms": [{"coef": [[-1.0]], "lag": np.pi / 2}]},
            "forcing": {"cos": [[1.0]]},
        },
        "K": 8,
        "N_list": [16, 20],
    }
    code, out = run(tmp_path, "verify", doc)
    assert code == 2
    report = report_of(out, "verify")
    assert report["exit_code"] == 2
    assert report["error"]["type"] == "singular_system"
    assert report["error"]["condition"] is None or report["error"]["condition"] > 1e12


#: the 1e308 forcing overflows on the grid: in the synthesised solution and
#: in the Besov blocks
OVERFLOW = {"problem": {"n": 2, "A": [[-1e-300, 0.0], [0.0, -1e-300]],
                        "forcing": {"cos": [[1e308, 1e308]]}}}

#: M(1) is close to singular (eigenvalues of A at +-1.00000005i), so the
#: solution's mode 1 overflows and every value computed from it
RESONANT = {"problem": {"n": 2, "A": [[0.0, 1.0000001], [-1.0, 0.0]],
                        "forcing": {"cos": [[1e308, 1e308]]}},
            "K": 8, "N_list": [32, 64], "K_list": [2, 4, 8]}

SIDE_FILES = {"solve": ["solution.csv"], "diagnose": [], "besov": [],
              "verify": ["verify_table.csv"], "sweep": ["sweep_table.csv"]}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("doc, command, fields", [
    (OVERFLOW, "solve", "solution.csv"),
    (OVERFLOW, "besov", "forcing, solution"),
    (RESONANT, "solve", "residual_grid, residual_modal, coefficients, solution.csv"),
    (RESONANT, "besov", "forcing, solution"),
    (RESONANT, "verify", "rows, verify_table.csv"),
    (RESONANT, "sweep", "rows, sweep_table.csv"),
    # 2^(1000 j) is beyond the float range from level j = 2 on, which only
    # the solution's band reaches
    (dict(TINY, besov={"s": 1000.0}), "besov", "solution"),
], ids=["overflow-solve", "overflow-besov", "resonant-solve", "resonant-besov",
        "resonant-verify", "resonant-sweep", "tiny-s1000-besov"])
def test_non_finite_result_is_an_error_without_side_files(tmp_path, doc, command, fields):
    code, out = run(tmp_path, command, doc)
    assert code == 3
    report = report_of(out, command)
    assert list(report) == ["version", "command", "config", "error", "exit_code"]
    assert report["exit_code"] == 3
    assert report["error"] == {"type": "non_finite",
                               "message": f"NaN or infinity in {fields}"}
    assert sorted(p.name for p in out.iterdir()) == [f"{command}_report.json"]


def test_writer_takes_numpy_and_complex_values(tmp_path):
    path = tmp_path / "report.json"
    cli._write_json(path, {"complex": 1.5 - 2j, "array": np.array([0.1, 2.0]),
                           "int": np.int64(3), "float": np.float64(0.1),
                           "bool": np.bool_(True), "tuple": (1, "é")})
    assert path.read_text(encoding="utf-8") == (
        '{\n  "complex": {\n    "re": 1.5,\n    "im": -2.0\n  },\n'
        '  "array": [\n    0.1,\n    2.0\n  ],\n  "int": 3,\n  "float": 0.1,\n'
        '  "bool": true,\n  "tuple": [\n    1,\n    "é"\n  ]\n}\n')
    for value in (float("nan"), np.float64("inf"), complex(0.0, float("-inf")),
                  np.array([1.0, np.nan])):
        with pytest.raises(ValueError):
            cli._write_json(path, {"value": value})


def test_complex_solution_table_gives_each_component_re_then_im():
    spec = problems.mat2_rich()
    spec = replace(spec, state_matrix=spec.state_matrix + 0.1j * np.eye(2))
    solution = solve_periodic(spec)
    grid = solution.solution
    name, header, table = cli._solution_csv(solution)
    assert (name, header) == ("solution.csv", ["t", "u0_re", "u0_im", "u1_re", "u1_im"])
    np.testing.assert_array_equal(table[:, 0], grid.nodes)
    np.testing.assert_array_equal(table[:, 1::2], grid.samples.real)
    np.testing.assert_array_equal(table[:, 2::2], grid.samples.imag)


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("command", COMMANDS)
def test_reports_match_the_golden_files(tmp_path, command):
    """The bytes of every file TINY writes, pinned across versions.

    Regenerate (and say why in CHANGES.md) with
    ``python -m specdde.cli <command> --config tests/golden/tiny.json --out tests/golden``.
    """
    assert json.loads((GOLDEN / "tiny.json").read_text(encoding="utf-8")) == TINY
    code, out = run(tmp_path, command, TINY)
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == sorted([f"{command}_report.json"] + SIDE_FILES[command])
    for name in names:
        assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_grid_below_the_forcing_band_writes_a_report(tmp_path):
    code, out = run(tmp_path, "verify", dict(TINY, N_list=[2, 32]))
    assert code == 3
    assert report_of(out, "verify")["error"]["type"] == "aliasing"


def test_cli_path_imports_no_scipy(tmp_path):
    config = tmp_path / "sampled.json"
    config.write_text(json.dumps(SAMPLED), encoding="utf-8")
    script = (
        "import sys\n"
        "import specdde.cli\n"
        "from specdde.config import parse_config\n"
        f"parse_config(open({str(config)!r}, encoding='utf-8').read())\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, check=True, env=dict(os.environ, PYTHONPATH=src))
    assert result.stdout.strip() == "[]"


FUZZ_BASES = (
    dict(SAMPLED, problem=dict(SAMPLED["problem"], horizon_periods=1),
         besov={"s": 1.0, "p": 3.0, "q": 2.0}, tolerances={"singular_cond": 1e12}),
    dict(TINY, problem=dict(TINY["problem"], forcing={
        "samples": np.cos(TWO_PI * np.arange(16) / 16)[:, None].repeat(2, axis=1).tolist()})),
)


def _paths(node, path=""):
    """(config path, container keys) of every value in a document."""
    yield path, ()
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        sub = f"{path}[{key}]" if isinstance(key, int) else (f"{path}.{key}" if path else key)
        for inner, keys in _paths(value, sub):
            yield inner, (key,) + keys


def _lookup(doc, keys):
    for key in keys:
        doc = doc[key]
    return doc


def _mutated(doc, keys, value):
    doc = json.loads(json.dumps(doc))
    _lookup(doc, keys[:-1])[keys[-1]] = value
    return doc


#: values no field of a configuration accepts
_INVALID = (float("nan"), float("inf"), float("-inf"), 10**400, "x", [float("nan")])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_invalid_documents_exit_3_with_a_violation_path(data):
    base = data.draw(st.sampled_from(FUZZ_BASES))
    paths = [(path, keys) for path, keys in _paths(base) if keys]
    kind = data.draw(st.sampled_from(["value", "number_for_container", "overflowing_term"]))
    if kind == "value":
        # a field first, then one of its values, so long sample arrays do not
        # crowd out the scalar fields
        field = data.draw(st.sampled_from(sorted({_field(p) for p, _ in paths})))
        path, keys = data.draw(st.sampled_from([(p, k) for p, k in paths if _field(p) == field]))
        doc = _mutated(base, keys, data.draw(st.sampled_from(_INVALID)))
    elif kind == "number_for_container":
        # objects, and the lists of objects, take no bare number
        path, keys = data.draw(st.sampled_from([
            (p, k) for p, k in paths
            if isinstance(_lookup(base, k), dict) or p.endswith((".atoms", ".terms"))]))
        doc = _mutated(base, keys, 5)
    else:
        path, keys = "problem.kernel.terms[0]", ("problem", "kernel", "terms", 0)
        m, alpha = data.draw(st.sampled_from([(171, 2.0), (400, 2.0), (10**6, 2.0),
                                              (100, 1e-5), (150, 1e3)]))
        doc = _mutated(base, keys, {"c": 0.2, "m": m, "alpha": alpha})
    with tempfile.TemporaryDirectory() as tmp:
        for command in COMMANDS:
            code, out = run(Path(tmp), command, doc, command)
            assert code == 3, (command, path)
            error = report_of(out, command)["error"]
            assert error["type"] == "validation"
            # at the mutated value, inside it, or at a value holding it
            assert any(_within(path, v["path"]) or _within(v["path"], path)
                       for v in error["violations"]), (path, error["violations"])


def _field(path):
    return re.sub(r"\[\d+\]", "[]", path)


def _within(inner, outer):
    return inner == outer or inner.startswith((outer + ".", outer + "["))
