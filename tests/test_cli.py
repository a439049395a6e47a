"""Batch front end: every command end to end, the exit-code contract, and
tolerances taken from the configuration."""

import gc
import importlib
import inspect
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import tempfile
import tracemalloc
import types
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import problems
import specdde
from specdde import (ModeSymbols, cli, collocation_solve, compare, convergence_sweep,
                     m_bounded_diagnostics)
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


def test_sweep_synthesises_twice_per_row_and_diagnose_never(inverse_ffts):
    config = parse_config(json.dumps(TINY))
    spec = config.problem
    m_bounded_diagnostics(spec, config.window)
    assert inverse_ffts == []
    convergence_sweep(spec, config.truncation_sweep)
    # each row's residual and, after the first, its change; the forcing's own
    # 16-point grid is not the sweep's
    n_grid = max(spec.grid, 4 * config.truncation_sweep[-1], spec.forcing.n_samples)
    assert n_grid != spec.forcing.n_samples
    on_grid = [name for name, n in inverse_ffts if n == n_grid]
    assert len(on_grid) == 2 * len(config.truncation_sweep) - 1
    # TINY is real with a harmonics forcing, so every row is real
    assert set(on_grid) == {"irfft"}


def test_each_synthesis_is_one_irfft_for_a_real_function_and_one_ifft_else(
        tmp_path, inverse_ffts):
    # a real solve: its grid residual and the samples of solution.csv
    assert run(tmp_path, "solve", TINY)[0] == 0
    assert {name for name, _ in inverse_ffts} == {"irfft"}
    # verify's forcing and reference on each grid, 12 below 2K + 1 = 17 too;
    # the collocation solve keeps its own ifft
    spec = parse_config(json.dumps(TINY)).problem
    inverse_ffts.clear()
    compare(spec, [12, 48])
    on_grids = Counter(t for t in inverse_ffts if t[1] in (12, 48))
    assert on_grids == {("irfft", 12): 2, ("ifft", 12): 1, ("irfft", 48): 2, ("ifft", 48): 1}
    assert {name for name, n in inverse_ffts if n not in (12, 48)} == {"irfft"}
    # the complex golden case
    config = parse_config((GOLDEN / "tiny.json").read_text(encoding="utf-8"))
    shifted = config.problem.state_matrix + 0.1j * np.eye(2)
    inverse_ffts.clear()
    assert cli.run("solve", replace(config, problem=replace(config.problem,
                                                            state_matrix=shifted)),
                   tmp_path / "complex") == 0
    assert {name for name, _ in inverse_ffts} == {"ifft"}


def test_verify_gap_on_a_grid_below_2K_plus_1_is_against_the_trigonometric_sum(tmp_path):
    # K = 8: on 12 nodes the reference's modes 6..8 fold onto -6..-4
    code, out = run(tmp_path, "verify", dict(TINY, N_list=[12, 32]))
    assert code == 0
    spec = parse_config(json.dumps(TINY)).problem
    uhat = solve_periodic(spec).coefficients
    for row in report_of(out, "verify")["rows"]:
        nodes = TWO_PI * np.arange(row["n"]) / row["n"]
        direct = (np.exp(1j * np.outer(nodes, np.arange(-8, 9))) @ uhat).real
        gap = np.max(np.linalg.norm(direct - collocation_solve(spec, row["n"]), axis=1))
        assert row["gap"] == pytest.approx(gap, rel=0.0, abs=1e-14)


def test_absent_N_is_the_problem_default_echoed():
    config = parse_config(json.dumps(TINY))
    assert config.problem.grid == 4 * TINY["K"] == config.resolved["N"]


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


@pytest.mark.parametrize("term", [
    {"c": 0.1, "m": 0, "alpha": 1e-6},     # a fold over about 10^7 periods
    {"c": 1e-258, "m": 100, "alpha": 0.1},  # t^100 beyond the float range
])
def test_verify_folds_slowly_decaying_and_high_power_kernels(tmp_path, term):
    code, out = run(tmp_path, "verify", dict(TINY, problem=dict(TINY["problem"],
                                                                 kernel={"terms": [term]})))
    assert code == 0
    assert report_of(out, "verify")["fitted_order"] == pytest.approx(2.0, abs=0.05)


def test_off_grid_lag_writes_a_report(tmp_path):
    doc = json.loads(json.dumps(SAMPLED))
    doc["problem"]["L"]["distributed"]["span"] = 1.0
    code, out = run(tmp_path, "verify", doc)
    assert code == 3
    report = report_of(out, "verify")
    assert report["exit_code"] == 3
    assert report["error"]["type"] == "off_grid_lag"
    assert "span 1.0" in report["error"]["message"]


@pytest.mark.parametrize("turns", [10**17, 10**19])
def test_span_of_too_many_grid_steps_writes_a_report(tmp_path, turns):
    # at 1e-9 of 5e8 steps or more, every span is within the on-grid test
    doc = json.loads(json.dumps(TINY))
    doc["problem"]["L"]["distributed"] = {
        "samples": (0.05 * np.exp(np.linspace(-1.0, 0.0, 6))[:, None, None]
                    * np.eye(2)).tolist(),
        "span": TWO_PI * turns}
    code, out = run(tmp_path, "verify", doc)
    assert code == 3
    error = report_of(out, "verify")["error"]
    assert error["type"] == "off_grid_lag"
    assert "too many" in error["message"]
    assert run(tmp_path, "solve", doc)[0] == 0


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


#: the 1e308 forcing overflows in the Besov blocks; the solution, 1e308 sin t
#: in each component, is within the float range
OVERFLOW = {"problem": {"n": 2, "A": [[-1e-300, 0.0], [0.0, -1e-300]],
                        "forcing": {"cos": [[1e308, 1e308]]}}}

#: finite coefficients (at most 1.5e308) whose sum, the solution's largest
#: sample, is about 2.2e308: beyond the float range
BEYOND = {"problem": {"n": 2, "A": [[-1.0, 0.0], [0.0, -1.0]],
                      "forcing": {"const": [1.5e308, 1.5e308], "cos": [[1e308, 1e308]]}}}

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
    (BEYOND, "solve", "solution.csv"),
    (OVERFLOW, "besov", "forcing, solution"),
    (RESONANT, "solve", "residual_grid, residual_modal, coefficients, solution.csv"),
    (RESONANT, "besov", "forcing, solution"),
    (RESONANT, "verify", "rows, verify_table.csv"),
    (RESONANT, "sweep", "rows, sweep_table.csv"),
    # 2^(1000 j) is beyond the float range from level j = 2 on, where the
    # mode-4 harmonic puts a nonzero block of the forcing and of the solution
    (dict(TINY, besov={"s": 1000.0}, problem=dict(TINY["problem"], forcing=dict(
        TINY["problem"]["forcing"], cos=[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]))),
     "besov", "forcing, solution"),
], ids=["beyond-solve", "overflow-besov", "resonant-solve", "resonant-besov",
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


#: forcing 1e200 (cos t + cos 2t) at K = 1: every reported value is in the
#: float range, but the squares of the residual and of the forcing are not
SQUARES_OVERFLOW = {"problem": {"n": 1, "A": [[-1.0]],
                                "forcing": {"cos": [[1e200], [1e200]]}}, "K": 1}


@pytest.mark.filterwarnings("ignore::specdde.exceptions.TruncationWarning")
@pytest.mark.parametrize("command", ["solve", "sweep", "verify"])
def test_norms_whose_squares_overflow_are_reported(tmp_path, command):
    code, out = run(tmp_path, command, SQUARES_OVERFLOW)
    assert code == 0
    report = report_of(out, command)
    if command == "solve":
        assert report["residual_grid"] == 1e200
        assert report["forcing_tail_energy"] == math.sqrt(0.5)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_solution_within_the_float_range_is_written_whatever_its_size(tmp_path):
    # no coefficient is scaled by N on its way to the samples
    code, out = run(tmp_path, "solve", OVERFLOW)
    assert code == 0
    table = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1)
    assert np.all(np.isfinite(table)) and np.max(np.abs(table[:, 1:])) == 1e308


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, -np.inf)],
                         ids=["nan", "inf", "imaginary-inf"])
def test_non_finite_coefficients_alone_are_an_error_without_side_files(
        tmp_path, monkeypatch, value):
    # the residuals and the solution grid stay finite; only the block the
    # report holds pre-encoded carries the NaN or infinity
    solve = cli.solve_periodic

    def patched(spec, **kwargs):
        solution = solve(spec, **kwargs)
        coefficients = solution.coefficients.copy()
        coefficients[TINY["K"] - 1, 1] = value
        return replace(solution, coefficients=coefficients)

    monkeypatch.setattr(cli, "solve_periodic", patched)
    code, out = run(tmp_path, "solve", TINY)
    assert code == 3
    report = report_of(out, "solve")
    assert list(report) == ["version", "command", "config", "error", "exit_code"]
    assert report["error"] == {"type": "non_finite",
                               "message": "NaN or infinity in coefficients"}
    assert sorted(p.name for p in out.iterdir()) == ["solve_report.json"]


def test_besov_norm_is_finite_where_only_zero_blocks_have_overflowing_weights(tmp_path):
    # every nonzero block of TINY is at level 0, so 2^(1000 j) never enters
    code, out = run(tmp_path, "besov", dict(TINY, besov={"s": 1000.0}))
    assert code == 0
    report = report_of(out, "besov")
    for part in ("forcing", "solution"):
        blocks = report[part]["block_norms"]
        assert blocks[0] > 0.0 and not any(blocks[1:])
        assert report[part]["norm"] == blocks[0]
    assert report["solution"]["norm"] == pytest.approx(2.5695452010958, rel=1e-12)


def test_writer_takes_numpy_and_complex_values(tmp_path):
    path = tmp_path / "report.json"
    cli._write_json(path, {"complex": 1.5 - 2j, "array": np.array([0.1, 2.0]),
                           "int": np.int64(3), "float": np.float64(0.1),
                           "bool": np.bool_(True), "tuple": (1, "é")})
    assert path.read_bytes().decode("utf-8") == (
        '{"complex": {"re": 1.5, "im": -2.0}, "array": [0.1, 2.0], "int": 3, '
        '"float": 0.1, "bool": true, "tuple": [1, "é"]}\n')
    for value in (float("nan"), np.float64("inf"), complex(0.0, float("-inf")),
                  np.array([1.0, np.nan])):
        with pytest.raises(ValueError):
            cli._write_json(path, {"value": value})


def _c_encoded(monkeypatch):
    """Every object the C encoder is handed with ``cli._plain`` as its
    default, in order; encoding in pure Python fails the test."""
    encoded = []
    c_make_encoder = json.encoder.c_make_encoder
    assert c_make_encoder is not None

    def counted(markers, default, *args):
        encode = c_make_encoder(markers, default, *args)

        def recorded(obj, level):
            if default is cli._plain:
                encoded.append(obj)
            return encode(obj, level)
        return recorded

    def python_encoder(*args):
        raise AssertionError("a value was encoded in pure Python")

    monkeypatch.setattr(json.encoder, "c_make_encoder", counted)
    monkeypatch.setattr(json.encoder, "_make_iterencode", python_encoder)
    return encoded


def _written_reports(monkeypatch):
    """Every object ``cli._write_json`` is asked to write, in order."""
    reports = []
    write = cli._write_json

    def recorded(path, obj):
        reports.append(obj)
        return write(path, obj)

    monkeypatch.setattr(cli, "_write_json", recorded)
    return reports


def test_reports_are_written_by_the_c_encoder(tmp_path, monkeypatch):
    # the standard library encodes in C only without indent; a report
    # written in pure Python is several times slower.  Every value but a
    # pre-encoded block goes to the C encoder (a string to its C string
    # encoder); the block is spliced in as it is.
    encoded = _c_encoded(monkeypatch)
    reports = _written_reports(monkeypatch)
    block = cli._Encoded('[{"k": 0}]', True)
    values = {"values": np.arange(3.0), "name": "x", "block": block, "n": 3}
    cli._write_json(tmp_path / "report.json", values)
    assert [id(v) for v in encoded] == [id(values["values"]), id(values["n"])]
    assert (tmp_path / "report.json").read_text(encoding="utf-8") == (
        '{"values": [0.0, 1.0, 2.0], "name": "x", "block": [{"k": 0}], "n": 3}\n')
    for doc, name in ((dict(TINY, seed=0), "invalid"), (TINY, "solve")):
        encoded.clear()
        reports.clear()
        run(tmp_path, "solve", doc, name)
        [report] = reports
        assert [id(v) for v in encoded] == [
            id(v) for v in report.values() if not isinstance(v, (str, cli._Encoded))]
    assert isinstance(report["coefficients"], cli._Encoded)


def test_plain_calls_of_a_solve_report_do_not_grow_with_the_band(tmp_path, monkeypatch):
    # neither the encoder's callbacks into _plain nor any other Python call
    # of a solve, its writing included, is made once per coefficient
    calls = []
    plain = cli._plain

    def counted(obj):
        calls.append(type(obj))
        return plain(obj)

    monkeypatch.setattr(cli, "_plain", counted)
    run(tmp_path, "solve", TINY, name="warm")
    counts, python_calls = [], []
    for k in (8, 64):
        calls.clear()
        frames = []
        # no collection inside the window, whose finalizers would add calls
        gc.collect()
        gc.disable()
        sys.setprofile(lambda frame, event, arg: frames.append(event == "call"))
        try:
            code, out = run(tmp_path, "solve", dict(TINY, K=k), name=f"k{k}")
        finally:
            sys.setprofile(None)
            gc.enable()
        assert code == 0 and len(report_of(out, "solve")["coefficients"]) == 2 * k + 1
        counts.append(len(calls))
        python_calls.append(sum(frames))
    assert counts[0] == counts[1]
    assert python_calls[0] == python_calls[1]


#: floats whose shortest form is a corner of repr: signed zero, the
#: smallest subnormal, the switches to exponent form at 1e-4 and 1e16, an
#: exponent past the fixed form's digits, round-off, integral floats
EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e-5, 1e-7, 1e16, 1e22, -1e22, 0.1 + 0.2,
               1.0, -3.0, 2.0**53, 1e15 + 0.5, 1.7976931348623157e308)

cell_floats = st.one_of(st.sampled_from(EDGE_FLOATS),
                        st.floats(allow_nan=False, allow_infinity=False))


def _old_coefficients(modes, coefficients):
    """The coefficient list as solve reports built it before the template."""
    return [{"k": k, "value": [{"re": z.real, "im": z.imag} for z in row]}
            for k, row in zip(modes.tolist(), coefficients.tolist())]


signed_zeros = st.sampled_from((0.0, -0.0))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_coefficient_block_is_the_bytes_of_the_encoder(data):
    n = data.draw(st.integers(1, 3))
    count = data.draw(st.integers(0, 6))
    modes = np.array(data.draw(st.lists(st.integers(-10**6, 10**6), min_size=count,
                                        max_size=count)), dtype=np.int64)
    # a solution is zero on most modes: rows of signed zeros alone, and
    # signed zeros mixed into the other rows
    rows = [data.draw(st.lists(signed_zeros if data.draw(st.booleans())
                               else st.one_of(cell_floats, signed_zeros),
                               min_size=2 * n, max_size=2 * n))
            for _ in range(count)]
    parts = np.array(rows, dtype=float).reshape(count, n, 2)
    if count and data.draw(st.booleans()):
        parts.flat[data.draw(st.integers(0, parts.size - 1))] = data.draw(
            st.sampled_from((math.nan, -math.nan)))
    if data.draw(st.booleans()):
        coefficients = parts[..., 0] + 1j * parts[..., 1]
    else:
        coefficients = parts[..., 0]
    block = cli._coefficients_json(modes, coefficients)
    nan = bool(np.isnan(coefficients).any())
    expected = json.dumps(_old_coefficients(modes, coefficients),
                          ensure_ascii=False, allow_nan=nan)
    # a NaN part is not finite, and its text is repr's ``nan``
    assert block.finite == (not nan)
    assert block.text == (expected.replace("NaN", "nan") if nan else expected)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_csv_is_the_str_of_each_cell_joined(data):
    width = data.draw(st.integers(1, 4))
    count = data.draw(st.integers(0, 6))
    header = [f"c{i}" for i in range(width)]
    table = np.array(data.draw(st.lists(cell_floats, min_size=count * width,
                                        max_size=count * width)),
                     dtype=float).reshape(count, width)
    cell = st.one_of(cell_floats, st.integers(-10**6, 10**6), st.just(""))
    tuples = [tuple(data.draw(st.lists(cell, min_size=width, max_size=width)))
              for _ in range(count)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        for rows, cells in ((table, table.tolist()), (tuples, tuples)):
            cli._write_csv(path, header, rows)
            lines = [",".join(header), *(",".join(map(str, row)) for row in cells)]
            assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


def _template_csv(header, rows):
    """The bytes of a CSV as one ``%s`` template wrote them: each cell's
    ``str``, comma-joined, one LF-ended line per row."""
    cells = np.asarray(rows, dtype=object).ravel().tolist()
    line = ",".join(["%s"] * len(header)) + "\n"
    return (",".join(header) + "\n" + (line * len(rows)) % tuple(cells)).encode("utf-8")


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_csv_across_a_block_boundary_is_the_template(tmp_path, extra):
    # a block is as many rows of three cells as _BLOCK_CELLS holds
    count = cli._BLOCK_CELLS // 3 + extra
    rng = np.random.default_rng(count)
    table = rng.standard_normal((count, 3)) * 10.0 ** rng.integers(-6, 18, (count, 3))
    table[::7, 1] = np.round(table[::7, 1])
    tuples = [(i, table[i, 0], "" if i % 3 else -table[i, 2]) for i in range(count)]
    header = ["a", "b", "c"]
    for rows in (table, tuples):
        cli._write_csv(tmp_path / "table.csv", header, rows)
        assert (tmp_path / "table.csv").read_bytes() == _template_csv(header, rows)


def test_solution_csv_over_several_blocks_is_the_template(tmp_path):
    # TINY's real solution has n = 2, so three columns
    doc = dict(TINY, N=3 * (cli._BLOCK_CELLS // 3) + 5)
    code, out = run(tmp_path, "solve", doc)
    assert code == 0
    config = parse_config(json.dumps(doc))
    _, header, table = cli._solution_csv(solve_periodic(config.problem))
    assert len(header) == 3 and len(table) == doc["N"]
    assert (out / "solution.csv").read_bytes() == _template_csv(header, table)


@pytest.mark.parametrize("columns", [3, 21])
def test_writer_memory_is_bounded_whatever_the_width(tmp_path, columns):
    # a block holds _BLOCK_CELLS cells, so a wide table (a complex solution
    # with n = 10 has 21 columns) takes no more memory than a narrow one
    table = np.random.default_rng(columns).standard_normal((16384, columns))
    header = [f"c{i}" for i in range(columns)]
    cli._write_csv(tmp_path / "table.csv", header, table[:2])  # loads the kernel's tables
    tracemalloc.start()
    try:
        cli._write_csv(tmp_path / "table.csv", header, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 2**20


def _unreadable_config_report(tmp_path, config):
    out = tmp_path / "out"
    code = cli.main(["solve", "--config", str(config), "--out", str(out)])
    report = report_of(out, "solve")
    assert code == 3 and report["exit_code"] == 3
    assert report["error"]["type"] == "validation"
    [violation] = report["error"]["violations"]
    assert violation["path"] == "$"
    return violation["message"]


def test_missing_config_file_writes_a_validation_report(tmp_path):
    message = _unreadable_config_report(tmp_path, tmp_path / "absent.json")
    assert "No such file" in message


def test_config_directory_writes_a_validation_report(tmp_path):
    folder = tmp_path / "folder.json"
    folder.mkdir()
    assert "Is a directory" in _unreadable_config_report(tmp_path, folder)


def test_config_not_in_utf8_writes_a_validation_report(tmp_path):
    config = tmp_path / "latin1.json"
    config.write_bytes(b'{"K": 8, "\xe9": 1}')
    assert "utf-8" in _unreadable_config_report(tmp_path, config)


def test_malformed_json_writes_a_validation_report(tmp_path):
    config = tmp_path / "truncated.json"
    config.write_text("{", encoding="utf-8")
    assert "not valid JSON" in _unreadable_config_report(tmp_path, config)


@pytest.mark.parametrize("text", ["{", "[1, 2]", "3.5", "null"])
def test_a_document_that_is_no_object_keeps_its_message_under_overrides(tmp_path, text):
    config = tmp_path / "config.json"
    config.write_text(text, encoding="utf-8")
    try:
        json.loads(text)
    except json.JSONDecodeError as exc:
        expected = f"not valid JSON: {exc}"
    else:
        expected = "top level must be an object"
    out = tmp_path / "out"
    code = cli.main(["solve", "--config", str(config), "--out", str(out), "--k", "4"])
    assert code == 3
    assert report_of(out, "solve")["error"]["violations"] == [
        {"path": "$", "message": expected}]


def test_overrides_replace_fields_of_the_decoded_document():
    overrides = {"K": 4, "N": 20, "K_diag": 32}
    injected = parse_config(json.dumps(TINY), overrides)
    assert injected.resolved == parse_config(json.dumps(dict(TINY, **overrides))).resolved
    assert (injected.truncation, injected.problem.grid, injected.window) == (4, 20, 32)
    assert parse_config(json.dumps(TINY), {}).resolved == parse_config(json.dumps(TINY)).resolved


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


def test_complex_solve_matches_the_golden_files(tmp_path):
    """The bytes of the solve and sweep files of TINY with 0.1i added to A's
    diagonal.

    Its solution is complex, so ``solution.csv`` has ``u{i}_re``/``u{i}_im``
    columns and the negative modes carry imaginary parts of their own.  The
    sweep is laid on the whole band -K..K, under a forcing of band 6 so
    that its rows K = 2 and 4 are narrower than the forcing and their
    residuals and changes are not zero.  A configuration holds real data
    only, so the problem is built through the API and the reports echo the
    configuration parsed.  Regenerate (and say why in CHANGES.md) by running
    this test's ``cli.run`` with ``tests/golden/complex`` as the output
    directory.
    """
    tiny = json.loads((GOLDEN / "tiny.json").read_text(encoding="utf-8"))
    wide = json.loads(json.dumps(tiny))
    wide["problem"]["forcing"]["cos"] = [[1.0, 0.0], [0.0, 0.5], [0.25, 0.0],
                                         [0.0, 0.125], [0.0625, 0.0], [0.0, 0.03125]]
    for command, doc in (("solve", tiny), ("sweep", wide)):
        config = parse_config(json.dumps(doc))
        shifted = config.problem.state_matrix + 0.1j * np.eye(2)
        config = replace(config, problem=replace(config.problem, state_matrix=shifted))
        out = tmp_path / command
        assert cli.run(command, config, out) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == sorted([f"{command}_report.json"] + SIDE_FILES[command])
        for name in names:
            assert (out / name).read_bytes() == (GOLDEN / "complex" / name).read_bytes(), name
    out = tmp_path / "solve"
    report = report_of(out, "solve")
    assert any(row["k"] < 0 and any(z["im"] for z in row["value"])
               for row in report["coefficients"])
    assert (out / "solution.csv").read_text(encoding="utf-8").startswith(
        "t,u0_re,u0_im,u1_re,u1_im\n")


@pytest.mark.parametrize("command, flags, echoed", [
    ("solve", ["--k", "4"], {"K": 4, "N": 16, "K_diag": 16}),
    ("diagnose", ["--window", "32"], {"K": 8, "N": 32, "K_diag": 32}),
    ("solve", ["--grid", "20"], {"K": 8, "N": 20, "K_diag": 16}),
])
def test_overrides_are_echoed_into_the_report(tmp_path, command, flags, echoed):
    out = tmp_path / "out"
    code = cli.main([command, "--config", str(GOLDEN / "tiny.json"), "--out", str(out)]
                    + flags)
    report = report_of(out, command)
    assert code == 0 and report["exit_code"] == 0
    assert {key: report["config"][key] for key in echoed} == echoed


def test_grid_override_is_validated_like_the_document(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["solve", "--config", str(GOLDEN / "tiny.json"), "--out", str(out),
                     "--grid", "3"])
    report = report_of(out, "solve")
    assert code == 3 and report["error"]["type"] == "validation"
    assert [v["path"] for v in report["error"]["violations"]] == ["N"]


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
    dict(SAMPLED, besov={"s": 1.0, "p": 3.0, "q": 2.0}, tolerances={"singular_cond": 1e12}),
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


NO_N = dict(TINY, problem={k: v for k, v in TINY["problem"].items() if k != "n"})
SIXTEEN_SAMPLES = [[1.0, 0.0]] * 16

#: (TINY with one field made invalid, the violation paths of the report)
INVALID_FIELDS = [
    pytest.param(_mutated(TINY, ("N",), 32.5), ["N"], id="non_integer_N"),
    pytest.param(_mutated(TINY, ("K",), -4), ["K"], id="negative_K"),
    pytest.param(_mutated(TINY, ("problem", "A"), [[-1.0, 0.25]]), ["problem.A"],
                 id="A_not_square"),
    pytest.param(_mutated(TINY, ("problem", "L", "atoms", 0, "coef"), [[0.1]]),
                 ["problem.L.atoms[0].coef"], id="atom_coef_wrong_shape"),
    pytest.param(_mutated(TINY, ("problem", "forcing", "const"), [0.5, 0.0, 1.0]),
                 ["problem.forcing.const"], id="const_wrong_length"),
    pytest.param(_mutated(TINY, ("problem", "G", "atoms", 0, "lag"), -1.0),
                 ["problem.G.atoms[0].lag"], id="negative_lag"),
    pytest.param(_mutated(TINY, ("problem", "horizon_periods"), 1),
                 ["problem.horizon_periods"], id="horizon_periods_unknown"),
    pytest.param(_mutated(TINY, ("problem", "kernel", "terms", 0, "m"), -1),
                 ["problem.kernel.terms[0].m"], id="negative_m"),
    pytest.param(_mutated(TINY, ("problem", "L", "distributed"), {"span": 1.0}),
                 ["problem.L.distributed.samples"], id="distributed_without_samples"),
    pytest.param(_mutated(TINY, ("problem", "L", "distributed"),
                          {"samples": [[[0.1, 0.0], [0.0, 0.1]]] * 3, "span": 1.0}),
                 ["problem.L.distributed.samples"], id="three_distributed_samples"),
    pytest.param(_mutated(TINY, ("problem", "L", "distributed"),
                          {"samples": [0.1, 0.2, 0.3, 0.4], "span": 1.0}),
                 ["problem.L.distributed.samples"], id="scalar_distributed_samples_at_n_2"),
    pytest.param(_mutated(TINY, ("problem", "forcing"),
                          {"samples": SIXTEEN_SAMPLES, "const": [1.0, 0.0]}),
                 ["problem.forcing"], id="samples_with_harmonics"),
    pytest.param(_mutated(TINY, ("problem", "forcing"), {"samples": [1.0] * 16}),
                 ["problem.forcing.samples"], id="scalar_forcing_samples_at_n_2"),
    pytest.param(_mutated(TINY, ("problem", "forcing"), {"samples": SIXTEEN_SAMPLES[:2]}),
                 ["problem.forcing.samples"], id="two_forcing_samples"),
    pytest.param([TINY], ["$"], id="top_level_list"),
    pytest.param(_mutated(NO_N, ("problem", "A"), 5), ["problem.n"], id="no_n_and_scalar_A"),
    # n = 2 is inferred from the rows of A, so a length-3 vector is rejected
    pytest.param(_mutated(NO_N, ("problem", "forcing", "const"), [0.5, 0.0, 1.0]),
                 ["problem.forcing.const"], id="n_inferred_from_A"),
    pytest.param(_mutated(TINY, ("besov",), {"s": -1.0}), ["besov"], id="nonpositive_s"),
    pytest.param(_mutated(TINY, ("K_list",), [4, 2, 8]), ["K_list"], id="K_list_not_ascending"),
    pytest.param(_mutated(TINY, ("K_list",), [4, 4, 8]), ["K_list"], id="K_list_repeated"),
    pytest.param(_mutated(TINY, ("N_list",), [32, 32]), ["N_list"], id="N_list_repeated"),
    pytest.param(_mutated(TINY, ("tolerances",), {"residual": 1e-9}), ["tolerances.residual"],
                 id="unknown_tolerance"),
]


@pytest.mark.parametrize("doc, paths", INVALID_FIELDS)
def test_each_invalid_field_exits_3_with_its_path(tmp_path, doc, paths):
    code, out = run(tmp_path, "solve", doc)
    report = report_of(out, "solve")
    assert code == 3 and report["exit_code"] == 3
    assert report["error"]["type"] == "validation"
    assert [v["path"] for v in report["error"]["violations"]] == paths


def test_dimension_is_inferred_from_A(tmp_path):
    code, out = run(tmp_path, "solve", NO_N)
    assert code == 0 and report_of(out, "solve")["config"]["problem"]["n"] == 2


#: configurations that together reach every path a command can take: TINY,
#: a sampled kernel (the oracle's spline stencil), a sampled forcing with no
#: delays or memory and a p != 2 norm, an off-grid atom lag, a singular mode
#: under ``tolerances.singular_cond``, a singular collocation system, a grid
#: below the forcing band, and an invalid document
PATH_CONFIGS = {
    "tiny": TINY,
    "sampled_kernel": SAMPLED,
    "sampled_forcing": {
        "problem": {"n": 1, "A": [[-1.0]], "forcing": {
            "samples": (np.cos(TWO_PI * np.arange(16) / 16) + 0.5).tolist()}},
        "K": 8, "K_diag": 16, "N_list": [16, 32], "K_list": [2, 4, 8],
        "besov": {"s": 1.0, "p": 3.0, "q": 2.0},
    },
    "off_grid_atom": _mutated(TINY, ("problem", "G", "atoms", 0, "lag"), 1.0),
    "singular_mode": _mutated(TINY, ("tolerances",), {"singular_cond": 1.5}),
    "singular_system": {
        "problem": {"n": 1, "A": [[-1.0]],
                    "G": {"atoms": [{"coef": [[-1.0]], "lag": np.pi / 2}]},
                    "forcing": {"cos": [[1.0]]}},
        "K": 8, "K_diag": 16, "N_list": [16, 20], "K_list": [2, 4, 8],
    },
    "aliasing": _mutated(TINY, ("N_list",), [2, 32]),
    "invalid": _mutated(TINY, ("K",), 0),
}

#: functions of the package that no command runs, each with its reason
NOT_RUN_BY_A_COMMAND = {
    ("symbols.py", "PeriodicGridFunction.zero"):
        "ProblemSpec's default forcing; a configuration always gives one",
}


def _package_functions():
    """(file name, qualified name) of every function and method defined in
    the package's modules, from their compiled code."""
    found = set()
    for info in pkgutil.iter_modules(specdde.__path__):
        path = Path(importlib.import_module(f"specdde.{info.name}").__file__)
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
            # class bodies are not optimised; lambdas and comprehensions are <...>
            if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
                found.add((path.name, code.co_qualname))
    return found


def test_every_package_function_runs_under_a_command(tmp_path):
    # the package is what the five commands run: a function no configuration
    # reaches is kept for tests or library callers alone and should go
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("specdde."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()     # a cached function runs again
    codes, outcomes = set(), {}
    sys.setprofile(lambda frame, event, arg: event == "call" and codes.add(frame.f_code))
    try:
        for name, doc in PATH_CONFIGS.items():
            outcomes[name] = {command: run(tmp_path, command, doc, f"{name}_{command}")[0]
                              for command in COMMANDS}
    finally:
        sys.setprofile(None)
    assert outcomes["tiny"] == dict.fromkeys(COMMANDS, 0)
    assert outcomes["singular_mode"] == dict.fromkeys(COMMANDS, 2)
    assert outcomes["singular_system"]["verify"] == 2
    assert outcomes["aliasing"]["verify"] == 3
    assert outcomes["invalid"] == dict.fromkeys(COMMANDS, 3)

    ran = {(Path(code.co_filename).name, code.co_qualname) for code in codes
           if Path(code.co_filename).parent == Path(specdde.__file__).parent}
    functions = _package_functions()
    assert set(NOT_RUN_BY_A_COMMAND) <= functions
    assert sorted(functions - ran - set(NOT_RUN_BY_A_COMMAND)) == []
    assert sorted(set(NOT_RUN_BY_A_COMMAND) & ran) == []
