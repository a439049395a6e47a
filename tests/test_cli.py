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
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import problems
import specdde
from specdde import (ModeSymbols, PeriodicGridFunction, SpectralSolution, besov_norm_report,
                     cli, collocation_solve, compare, convergence_sweep,
                     m_bounded_diagnostics, resolvent, solver)
from specdde.config import parse_config
from specdde.exceptions import ConfigError
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
    modal = ModeSymbols.from_spec(spec, 8).modal(spec.state_matrix)
    expected = resolvent._inverse_and_condition(modal)[1]
    assert list(condition) == ["max", "min", "worst_mode"]
    assert condition["max"] == np.max(expected) and condition["min"] == np.min(expected)
    assert condition["worst_mode"] == modes[np.argmax(expected)]


def test_sweep_synthesises_each_distinct_residual_and_nonzero_change_and_diagnose_never(
        inverse_ffts):
    config = parse_config(json.dumps(TINY))
    spec = config.problem
    m_bounded_diagnostics(spec, config.window)
    assert inverse_ffts == []
    # TINY's forcing is band 1, inside every row K = 2, 4, 8, so every row
    # has the same residual; the second forcing reaches mode 3, between the
    # rows K = 2 and K = 4, so rows 4 and 8 share theirs, and only the change
    # to row 4 is nonzero
    wider = replace(spec, forcing=PeriodicGridFunction.from_harmonics(
        cos=[[1.0, 0.0], [0.0, 0.0], [0.5, 0.25]], sin=[[0.0, 1.0]]))
    for problem, distinct, nonzero in ((spec, 1, [False, False]), (wider, 2, [True, False])):
        inverse_ffts.clear()
        rows = convergence_sweep(problem, config.truncation_sweep)["rows"]
        assert [row["solution_change"] != 0.0 for row in rows[1:]] == nonzero
        # one synthesis for each distinct row residual and one for each
        # nonzero change; an exactly zero change is 0.0 with none.  The
        # forcing's own 16-point grid is not the sweep's
        n_grid = max(problem.grid, 4 * config.truncation_sweep[-1], problem.forcing.n_samples)
        assert n_grid != problem.forcing.n_samples
        on_grid = [name for name, n in inverse_ffts if n == n_grid]
        assert len(on_grid) == distinct + sum(nonzero)
        # both problems are real with a harmonics forcing, so every row is real
        assert set(on_grid) == {"irfft"}


@pytest.fixture
def residual_syntheses(monkeypatch):
    """The arguments of every grid residual ``solver._grid_max`` computes
    while the test runs."""
    calls = []
    grid_max = solver._grid_max

    def counted(*args):
        calls.append(args)
        return grid_max(*args)

    monkeypatch.setattr(solver, "_grid_max", counted)
    return calls


def test_only_a_command_that_reports_the_grid_residual_synthesises_it(
        tmp_path, residual_syntheses):
    # besov and verify read the solution alone; compare is verify's oracle
    for command in ("besov", "verify"):
        assert run(tmp_path, command, TINY, command)[0] == 0
    compare(parse_config(json.dumps(TINY)).problem, [12, 48])
    assert residual_syntheses == []
    code, out = run(tmp_path, "solve", TINY, "solve")
    assert code == 0 and len(residual_syntheses) == 1
    modes, rhat, n_samples = residual_syntheses[0]
    assert report_of(out, "solve")["residual_grid"] == solver._grid_max(modes, rhat, n_samples)


def test_grid_residual_is_synthesised_once_with_the_bits_of_its_band(residual_syntheses):
    spec = parse_config(json.dumps(TINY)).problem
    solution = solve_periodic(spec)
    assert residual_syntheses == []
    first, second = solution.residual_grid, solution.residual_grid
    assert len(residual_syntheses) == 1
    # an exported class's float attribute: the max norm of the residual on
    # the whole layout of the solve
    assert "SpectralSolution" in specdde.__all__ and isinstance(solution, SpectralSolution)
    assert type(first) is float and first is second
    modes, _, _, rhat, _ = solver._band_solve(spec, [spec.truncation], resolvent.COND_LIMIT)
    assert np.float64(first).tobytes() == np.float64(
        solver._grid_max(modes, rhat, spec.grid)).tobytes()
    # a copy made after the read synthesises its own, with the same bits
    copied = replace(solution, truncation=solution.truncation)
    assert np.float64(copied.residual_grid).tobytes() == np.float64(first).tobytes()


def test_each_synthesis_is_one_irfft_for_a_real_function_and_one_ifft_else(
        tmp_path, inverse_ffts):
    # a real solve: its grid residual and the samples of solution.npy
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


def test_a_document_of_problem_alone_echoes_every_default_in_field_order():
    config = parse_config(json.dumps({"problem": TINY["problem"]}))
    assert config.resolved["problem"] == TINY["problem"]
    echoed = {key: value for key, value in config.resolved.items() if key != "problem"}
    assert json.dumps(echoed) == (
        '{"K": 64, "N": 256, "K_diag": 512, "besov": {"s": 1.0, "p": 2.0, "q": 2.0}, '
        '"N_list": [64, 128, 256], "K_list": [4, 8, 16, 32], '
        '"tolerances": {"singular_cond": 1000000000000.0}}')
    assert (config.truncation, config.problem.grid, config.window) == (64, 256, 512)
    assert (config.grid_sizes, config.truncation_sweep) == ([64, 128, 256], [4, 8, 16, 32])
    assert config.besov == specdde.BesovParams(s=1.0, p=2.0, q=2.0)
    assert config.tolerances == {"singular_cond": 1e12}


#: documents with several invalid top-level fields, each with its violations
#: in the order the parser reports them: unknown fields first, then the
#: problem, then the fields in echo order, N >= 2K+1 right after N's own
MANY_INVALID_FIELDS = [
    ({"tolerances": {"residual": 1e-9, "singular_cond": -1.0}, "K_list": [4, 2], "seed": 1,
      "N_list": "x", "besov": {"r": 1, "q": 0.5, "s": -1.0}, "K_diag": 0, "N": 20, "K": 10,
      "problem": TINY["problem"], "extra": 2},
     [("seed", "unknown field"), ("extra", "unknown field"),
      ("N", "must satisfy N >= 2K+1 (K=10, N=20)"), ("K_diag", "must be positive"),
      ("besov.r", "unknown field"),
      ("besov", "smoothness s must be positive and finite, got -1.0"),
      ("N_list", "must be a nonempty list of integers"), ("K_list", "must be strictly ascending"),
      ("tolerances.residual", "unknown tolerance"),
      ("tolerances.singular_cond", "must be positive")]),
    ({"problem": TINY["problem"], "K": 0, "N": 2.5, "K_diag": "x", "besov": [], "N_list": [],
      "K_list": [1, 1], "tolerances": 5},
     [("K", "must be positive"), ("N", "must be an integer"), ("K_diag", "must be a number"),
      ("besov", "must be an object"), ("N_list", "must be a nonempty list of integers"),
      ("K_list", "must be strictly ascending"), ("tolerances", "must be an object")]),
    ({"problem": TINY["problem"], "besov": {"s": "x", "p": 1e400, "q": 0.5}},
     [("besov.s", "must be a number"), ("besov.p", "must be finite")]),
]


@pytest.mark.parametrize("doc, violations", MANY_INVALID_FIELDS)
def test_invalid_top_level_fields_are_reported_in_field_order(doc, violations):
    with pytest.raises(ConfigError) as caught:
        parse_config(json.dumps(doc))
    assert caught.value.violations == violations


def test_empty_and_absent_besov_echo_the_same_defaults():
    absent, empty = (parse_config(json.dumps(doc)) for doc in (TINY, dict(TINY, besov={})))
    assert absent.besov == empty.besov == specdde.BesovParams(s=1.0, p=2.0, q=2.0)
    assert absent.resolved["besov"] == empty.resolved["besov"] == {"s": 1.0, "p": 2.0, "q": 2.0}


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


@pytest.mark.parametrize("command", ["solve", "verify", "besov"])
def test_a_zero_weight_kernel_term_changes_nothing(tmp_path, command):
    # the config accepts c = 0; the symbol adds an exact 0 and the oracle's
    # fold skips the term, so every number and side file is TINY's
    kernel = {"terms": TINY["problem"]["kernel"]["terms"] + [{"c": 0.0, "m": 0, "alpha": 1.0}]}
    doc = dict(TINY, problem=dict(TINY["problem"], kernel=kernel))
    code, out = run(tmp_path, command, doc, "zero_term")
    assert code == 0
    code, reference = run(tmp_path, command, TINY, "tiny")
    assert code == 0
    report, expected = report_of(out, command), report_of(reference, command)
    assert report.pop("config") != expected.pop("config")
    assert report == expected
    for name in SIDE_FILES[command]:
        assert (out / name).read_bytes() == (reference / name).read_bytes(), name


def test_off_grid_lag_writes_a_report(tmp_path):
    # off_grid_lag is a span of 5e8 oracle grid steps or more; 1e9 is 5.1e9
    # steps of the first grid, N = 32
    doc = json.loads(json.dumps(SAMPLED))
    doc["problem"]["L"]["distributed"]["span"] = 1e9
    code, out = run(tmp_path, "verify", doc)
    assert code == 3
    report = report_of(out, "verify")
    assert report["exit_code"] == 3
    assert report["error"]["type"] == "off_grid_lag"
    assert "span 1000000000.0" in report["error"]["message"]


@pytest.mark.parametrize("span", [1.0, 5.0, TWO_PI * 63 / 65])
def test_off_grid_span_verifies_at_second_order(tmp_path, span):
    # the kernel's last panel is partial; 2 pi 63/65 takes the solver's
    # direct route, q = 65 being above its FFT route's 64
    doc = json.loads(json.dumps(SAMPLED))
    doc["problem"]["L"]["distributed"]["span"] = span
    doc["N_list"] = [64, 128, 256, 512]
    code, out = run(tmp_path, "verify", doc)
    assert code == 0
    assert report_of(out, "verify")["fitted_order"] == pytest.approx(2.0, abs=0.01)


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


def test_atom_lag_of_too_many_grid_steps_writes_a_report(tmp_path):
    # lag 1e9 + 1 is 5.1e9 steps of the first grid, N = 32: the 1e-9 snap
    # test would take it at a node, and verify used to report order 0.28
    doc = {"problem": {"n": 1, "A": [[-1.0]],
                       "G": {"atoms": [{"coef": [[0.5]], "lag": 1e9 + 1}]},
                       "forcing": {"cos": [[1.0]]}},
           "K": 4, "N_list": [32, 64, 128, 256, 512]}
    code, out = run(tmp_path, "verify", doc)
    assert code == 3
    error = report_of(out, "verify")["error"]
    assert error["type"] == "off_grid_lag"
    assert "atom lag 1000000001.0" in error["message"] and "too many" in error["message"]
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

#: TINY with a 17-sample L kernel of alternating +-1e307: the slope system
#: of its spline overflows while the configuration is read, before a
#: command runs
KERNEL_OVERFLOW = dict(TINY, problem=dict(TINY["problem"], L=dict(
    TINY["problem"]["L"],
    distributed={"samples": (1e307 * (-1.0) ** np.arange(17)[:, None, None]
                             * np.eye(2)).tolist(),
                 "span": TWO_PI},
)))

#: TINY with forcing samples of +-1e308: their coefficients (at most 6.53e307)
#: are finite, and the transform that takes them is run on scaled samples
NEAR_LIMIT = dict(TINY, problem=dict(TINY["problem"], forcing={
    "samples": [[1e308, -1e308]] * 4 + [[-1e308, 1e308]] * 4}))

#: TINY at K = 1 with a mode-2 harmonic beyond it: solve, besov and verify
#: warn that the forcing is truncated
TRUNCATED = dict(TINY, K=1, K_list=[1], problem=dict(TINY["problem"], forcing=dict(
    TINY["problem"]["forcing"], cos=[[1.0, 0.0], [0.5, 0.0]])))

SIDE_FILES = {"solve": ["solution.npy"], "diagnose": [], "besov": [], "verify": [],
              "sweep": []}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("doc, command, fields", [
    (BEYOND, "solve", "solution.npy"),
    (OVERFLOW, "besov", "forcing, solution"),
    (RESONANT, "solve", "residual_grid, residual_modal, coefficients, solution.npy"),
    (RESONANT, "besov", "forcing, solution"),
    (RESONANT, "verify", "rows"),
    (RESONANT, "sweep", "rows"),
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


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("command", COMMANDS)
def test_an_inverse_beyond_the_float_range_is_a_singular_mode(tmp_path, n, command):
    # M(0) = 1e-310 I has condition number 1, but its inverse overflows: mode
    # 0 is rejected, not solved to inf * 0 = NaN where fhat(0) = 0
    doc = {"problem": {"n": n, "A": (-1e-310 * np.eye(n)).tolist(),
                       "forcing": {"cos": [[1.0] * n]}}}
    code, out = run(tmp_path, command, doc)
    assert code == 2
    assert report_of(out, command)["error"] == {
        "type": "singular_mode", "modes": [0], "conditions": [None],
        "message": "modal matrix numerically singular at k=0 (cond=inf)"}


#: forcing 1e200 (cos t + cos 2t) at K = 1: every reported value is in the
#: float range, but the squares of the residual and of the forcing are not
SQUARES_OVERFLOW = {"problem": {"n": 1, "A": [[-1.0]],
                                "forcing": {"cos": [[1e200], [1e200]]}}, "K": 1}


@pytest.mark.parametrize("command", ["solve", "sweep", "verify", "besov"])
def test_norms_whose_squares_overflow_are_reported(tmp_path, command):
    with warnings.catch_warnings(record=True) as caught:
        code, out = run(tmp_path, command, SQUARES_OVERFLOW)
    assert code == 0
    # the forcing's band 2 exceeds K = 1: each command that solves at K warns
    # once; the sweep measures every row against the whole forcing and does not
    expected = [] if command == "sweep" else [specdde.TruncationWarning]
    assert [w.category for w in caught] == expected
    report = report_of(out, command)
    if command == "solve":
        assert report["residual_grid"] == 1e200
        assert report["forcing_tail_energy"] == math.sqrt(0.5)
    if command == "besov":
        # blocks 1e200 ||cos t||_2 and 1e200 ||cos 2t||_2 (weight 2), each
        # 1e200 sqrt(pi); the solution, 1e200 Re(e^{it} / (1 + i)), is in block 0
        assert report["forcing"]["norm"] == pytest.approx(1e200 * math.sqrt(5 * math.pi),
                                                          rel=1e-14)
        assert report["solution"]["norm"] == pytest.approx(1e200 * math.sqrt(math.pi / 2),
                                                           rel=1e-14)


#: a 3 x 3 problem: its modal matrices and collocation systems take LAPACK
THREE = {
    "problem": {
        "n": 3,
        "A": [[-1.0, 0.25, 0.0], [0.0, -2.0, 0.5], [0.1, 0.0, -1.5]],
        "L": {"atoms": [{"coef": (0.1 * np.eye(3)).tolist(), "lag": TWO_PI}]},
        "G": {"atoms": [{"coef": [[0.1, 0.02, 0.0], [0.0, 0.1, 0.0], [0.0, 0.0, 0.05]],
                         "lag": TWO_PI / 4.0}]},
        "kernel": {"terms": [{"c": 0.2, "m": 0, "alpha": 2.0}]},
        "forcing": {"const": [0.5, 0.0, 0.0], "cos": [[1.0, 0.0, 0.5]],
                    "sin": [[0.0, 1.0, 0.0]]},
    },
    "K": 8, "K_diag": 16, "N_list": [32, 64, 128], "K_list": [2, 4, 8],
}


def test_a_three_by_three_problem_runs_solve_diagnose_and_verify(tmp_path):
    spec = parse_config(json.dumps(THREE)).problem
    modal = ModeSymbols.from_spec(spec, 8).modal(spec.state_matrix)
    forcing = np.zeros((17, 3), dtype=complex)
    forcing[7:10] = spec.forcing.coefficients
    matrices = np.moveaxis(modal, -1, 0)
    expected = np.linalg.solve(matrices, forcing[..., None])[..., 0]

    code, out = run(tmp_path, "solve", THREE)
    assert code == 0
    report = report_of(out, "solve")
    coefficients = np.array([[z["re"] + 1j * z["im"] for z in row["value"]]
                             for row in report["coefficients"]])
    np.testing.assert_allclose(coefficients, expected, rtol=0.0, atol=1e-15)
    assert report["residual_modal"] <= 1e-15
    condition = np.linalg.cond(matrices, 1)
    assert report["condition"]["max"] == np.max(condition)
    assert report["condition"]["min"] == np.min(condition)

    code, out = run(tmp_path, "diagnose", THREE)
    assert code == 0
    [row] = [r for r in report_of(out, "diagnose")["rows"] if r["name"] == "N"]
    window = ModeSymbols.from_spec(spec, 16).modal(spec.state_matrix)
    inverse_norms = np.linalg.svd(np.linalg.inv(np.moveaxis(window, -1, 0)),
                                  compute_uv=False)[:, 0]
    assert row["sup_norm"] == pytest.approx(np.max(inverse_norms), rel=1e-13)
    assert row["verdict"] == "bounded"

    code, out = run(tmp_path, "verify", THREE)
    assert code == 0
    report = report_of(out, "verify")
    gaps = [r["gap"] for r in report["rows"]]
    assert gaps == sorted(gaps, reverse=True)
    assert report["fitted_order"] == pytest.approx(2.0, abs=0.01)


@pytest.mark.parametrize("name, doc", [("tiny", TINY), ("sampled_kernel", SAMPLED),
                                       ("scalar", SQUARES_OVERFLOW)])
def test_no_lapack_inversion_for_two_by_two_and_scalar_problems(tmp_path, monkeypatch,
                                                                name, doc):
    def no_lapack(*args, **kwargs):
        raise AssertionError("a 2 x 2 or scalar problem called LAPACK")

    for function in ("inv", "solve", "cond"):
        monkeypatch.setattr(np.linalg, function, no_lapack)
    codes, warned = {}, {}
    for command in COMMANDS:
        with warnings.catch_warnings(record=True) as caught:
            codes[command] = run(tmp_path, command, doc, f"{name}_{command}")[0]
        warned[command] = [w.category for w in caught]
    assert codes == dict.fromkeys(COMMANDS, 0)
    # only the scalar configuration truncates its forcing (band 2 at K = 1)
    truncating = ("solve", "besov", "verify") if name == "scalar" else ()
    assert warned == {command: [specdde.TruncationWarning] * (command in truncating)
                      for command in COMMANDS}


#: runs every command of the configurations whose arithmetic overflows, as a
#: separate interpreter with the warning options it is given, and prints
#: {"<config> <command>": exit code}
_OVERFLOW_RUNS = """
import json, sys
from specdde import cli
root, codes = sys.argv[1], {}
for name in ("OVERFLOW", "BEYOND", "RESONANT", "SQUARES_OVERFLOW", "KERNEL_OVERFLOW",
             "NEAR_LIMIT", "TRUNCATED"):
    for command in ("solve", "diagnose", "besov", "verify", "sweep"):
        codes[f"{name} {command}"] = cli.main(
            [command, "--config", f"{root}/{name}.json", "--out", f"{root}/{name}/{command}"])
print(json.dumps(codes))
"""


def test_overflow_keeps_the_exit_code_contract_with_warnings_as_errors(tmp_path):
    # an overflow is judged by the non_finite check, never escapes as a
    # traceback, and a truncated forcing is shown as a warning, never raised:
    # the same codes and reports as a default run, and no exit 1
    docs = {"OVERFLOW": OVERFLOW, "BEYOND": BEYOND, "RESONANT": RESONANT,
            "SQUARES_OVERFLOW": SQUARES_OVERFLOW, "KERNEL_OVERFLOW": KERNEL_OVERFLOW,
            "NEAR_LIMIT": NEAR_LIMIT, "TRUNCATED": TRUNCATED}
    env = dict(os.environ, PYTHONPATH=str(Path(specdde.__file__).parents[1]))
    codes = {}
    for run_name, flags in (("default", []), ("strict", ["-W", "error"])):
        root = tmp_path / run_name
        root.mkdir()
        for name, doc in docs.items():
            (root / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
        done = subprocess.run([sys.executable, *flags, "-c", _OVERFLOW_RUNS, str(root)],
                              capture_output=True, text=True, env=env, check=True)
        codes[run_name] = json.loads(done.stdout.splitlines()[-1])
        assert "TruncationWarning: forcing bandwidth 2 exceeds truncation 1" in done.stderr
    assert codes["strict"] == codes["default"]
    assert 1 not in codes["strict"].values()
    assert codes["strict"]["SQUARES_OVERFLOW besov"] == 0
    assert {command: codes["strict"][f"TRUNCATED {command}"] for command in COMMANDS} == {
        command: 0 for command in COMMANDS}
    # the forcing is read and the oracle solves on it scaled; the Besov
    # blocks overflow
    assert {command: codes["strict"][f"NEAR_LIMIT {command}"] for command in COMMANDS} == {
        "solve": 0, "diagnose": 0, "besov": 3, "verify": 0, "sweep": 0}
    for name in docs:
        for command in COMMANDS:
            report = f"{name}/{command}/{command}_report.json"
            assert ((tmp_path / "strict" / report).read_bytes()
                    == (tmp_path / "default" / report).read_bytes()), report


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_solution_within_the_float_range_is_written_whatever_its_size(tmp_path):
    # no coefficient is scaled by N on its way to the samples
    code, out = run(tmp_path, "solve", OVERFLOW)
    assert code == 0
    _, table = _samples_of(out / "solution.npy")
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


#: a configuration and command for each outcome ``cli.run`` reports: every
#: command's success, each failure of ``cli._ERRORS``, non-finite report
#: values and a non-finite table alone
OUTCOMES = [
    *((TINY, command, None) for command in COMMANDS),
    ({"problem": {"n": 1, "A": [[-1e-310]], "forcing": {"cos": [[1.0]]}}},
     "solve", "singular_mode"),
    # N = 20 is 4 * odd: the collocation system is singular at the Nyquist frequency
    ({"problem": {"n": 1, "A": [[-1.0]], "G": {"atoms": [{"coef": [[-1.0]], "lag": np.pi / 2}]},
                  "forcing": {"cos": [[1.0]]}}, "K": 8, "N_list": [16, 20]},
     "verify", "singular_system"),
    ({"problem": {"n": 1, "A": [[-1.0]], "G": {"atoms": [{"coef": [[0.5]], "lag": 1e9 + 1}]},
                  "forcing": {"cos": [[1.0]]}}, "K": 4, "N_list": [32, 64]},
     "verify", "off_grid_lag"),
    (dict(TINY, N_list=[2, 32]), "verify", "aliasing"),
    (OVERFLOW, "besov", "non_finite"),
    (RESONANT, "solve", "non_finite"),
    (BEYOND, "solve", "non_finite"),
]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_each_outcome_writes_its_report_once(tmp_path, monkeypatch):
    # the outcome is decided before anything is written: a non-finite table
    # does not rewrite a report already written, and a failure writes no
    # solution.npy
    writes = Counter()
    write_text, save = Path.write_text, np.save

    def counted_text(path, *args, **kwargs):
        writes[path.name] += 1
        return write_text(path, *args, **kwargs)

    def counted_save(file, *args, **kwargs):
        writes[Path(file).name] += 1
        return save(file, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", counted_text)
    monkeypatch.setattr(np, "save", counted_save)
    for i, (doc, command, kind) in enumerate(OUTCOMES):
        writes.clear()
        code, out = run(tmp_path, command, doc, name=f"case{i}")
        assert report_of(out, command).get("error", {}).get("type") == kind, i
        assert writes[f"{command}_report.json"] == 1, i
        assert writes["solution.npy"] == (command == "solve" and code == 0), i
    assert {kind for kind, _, _ in cli._ERRORS.values()} < {kind for *_, kind in OUTCOMES}


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


def test_writer_takes_numpy_values(tmp_path):
    path = tmp_path / "report.json"
    cli._write_json(path, {"array": np.array([0.1, 2.0]), "int": np.int64(3),
                           "float": np.float64(0.1), "bool": np.bool_(True),
                           "tuple": (1, "é")})
    assert path.read_bytes().decode("utf-8") == (
        '{"array": [0.1, 2.0], "int": 3, "float": 0.1, "bool": true, "tuple": [1, "é"]}\n')
    for value in (float("nan"), np.float64("inf"), np.array([1.0, np.nan])):
        with pytest.raises(ValueError):
            cli._write_json(path, {"value": value})
    # no report holds a complex number: the coefficient block is pre-encoded
    with pytest.raises(TypeError, match="cannot serialize <class 'complex'>"):
        cli._write_json(path, {"value": 1.5 - 2j})


def test_writer_refuses_an_unknown_type_and_writes_nothing(tmp_path):
    path = tmp_path / "report.json"
    with pytest.raises(TypeError, match="cannot serialize <class 'object'>"):
        cli._write_json(path, {"n": 1, "value": object()})
    assert not path.exists()


def test_run_refuses_an_unknown_command(tmp_path):
    with pytest.raises(ValueError, match="unknown command 'bogus'"):
        cli.run("bogus", parse_config(json.dumps(TINY)), tmp_path / "out")
    assert not (tmp_path / "out").exists()


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


def _encoded_reports(monkeypatch):
    """Every report ``cli._encoded``, the one encoder, is asked to encode,
    in order."""
    reports = []
    encode = cli._encoded

    def recorded(obj):
        reports.append(obj)
        return encode(obj)

    monkeypatch.setattr(cli, "_encoded", recorded)
    return reports


def test_reports_are_written_by_the_c_encoder(tmp_path, monkeypatch):
    # the standard library encodes in C only without indent; a report
    # written in pure Python is several times slower.  Every value but a
    # pre-encoded block goes to the C encoder (a string to its C string
    # encoder); the block is spliced in as it is.
    encoded = _c_encoded(monkeypatch)
    reports = _encoded_reports(monkeypatch)
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


def _encoder_block(modes, coefficients):
    """(text, finite) of the coefficient block as the standard encoder
    writes it; a NaN part is not finite, and its text is repr's ``nan``."""
    nan = bool(np.isnan(coefficients).any())
    expected = json.dumps(_old_coefficients(modes, coefficients),
                          ensure_ascii=False, allow_nan=nan)
    return (expected.replace("NaN", "nan") if nan else expected), not nan


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_coefficient_block_is_the_bytes_of_the_encoder(data):
    # the block holds values: a zero of either sign is the encoder's 0.0
    n = data.draw(st.one_of(st.integers(1, 3), st.sampled_from((31, 32, 40))))
    count = data.draw(st.integers(0, 64))
    modes = np.array(data.draw(st.lists(st.integers(-10**6, 10**6), min_size=count,
                                        max_size=count)), dtype=np.int64)
    # a solution is zero on most modes: each row is one of a few sign
    # patterns of signed zeros, and up to 24 parts of the block are drawn
    zero_row = st.lists(signed_zeros, min_size=2 * n, max_size=2 * n)
    patterns = data.draw(st.lists(zero_row, min_size=1, max_size=3))
    pattern_of = data.draw(st.lists(st.integers(0, len(patterns) - 1),
                                    min_size=count, max_size=count))
    parts = np.array([patterns[i] for i in pattern_of], dtype=float).reshape(count, n, 2)
    if count:
        drawn = st.tuples(st.integers(0, parts.size - 1), st.one_of(cell_floats, signed_zeros))
        for at, value in data.draw(st.lists(drawn, max_size=24)):
            parts.flat[at] = value
    if count and data.draw(st.booleans()):
        parts.flat[data.draw(st.integers(0, parts.size - 1))] = data.draw(
            st.sampled_from((math.nan, -math.nan)))
    if data.draw(st.booleans()):
        coefficients = parts[..., 0] + 1j * parts[..., 1]
    else:
        coefficients = parts[..., 0]
    block = cli._coefficients_json(modes, coefficients)
    assert (block.text, block.finite) == _encoder_block(modes, coefficients + 0.0)


@pytest.mark.parametrize("complex_rows", [False, True])
def test_coefficient_block_writes_every_zero_sign_pattern_as_zero(complex_rows):
    # all 16 sign patterns of an n = 2 zero row, each twice, between live
    # rows whose zero parts are signed too; real rows keep the 4 patterns of
    # their real parts
    patterns = np.array([[-0.0 if code >> bit & 1 else 0.0 for bit in range(4)]
                         for code in range(16)]).reshape(16, 2, 2)
    live = np.array([[[1.5, -0.0], [0.0, -2.25e-7]]])
    parts = np.concatenate([np.concatenate([live * (i + 1), pattern[None]])
                            for i, pattern in enumerate(np.concatenate([patterns] * 2))]
                           + [live])
    coefficients = parts[..., 0] + 1j * parts[..., 1] if complex_rows else parts[..., 0]
    modes = np.arange(len(parts)) - len(parts) // 2
    block = cli._coefficients_json(modes, coefficients)
    assert (block.text, block.finite) == _encoder_block(modes, coefficients + 0.0)
    assert "-0.0," not in block.text and "-0.0}" not in block.text


def test_coefficient_block_reads_back_as_the_solution():
    # the benchmark's lumped problem: its 8,186 all-zero rows and the live
    # ones read back as solve_periodic's coefficients, value for value
    doc = problems.bench_workloads().config_document("lumped", 1)
    solution = solve_periodic(parse_config(json.dumps(doc)).problem)
    block = json.loads(cli._coefficients_json(solution.modes, solution.coefficients).text)
    assert [row["k"] for row in block] == solution.modes.tolist()
    values = np.array([[z["re"] + 1j * z["im"] for z in row["value"]] for row in block])
    assert values.shape == solution.coefficients.shape
    assert (values == solution.coefficients).all()


def _samples_of(path):
    """The records of a .npy side file, loaded without pickles, and the
    (rows, columns) float64 table they view."""
    records = np.load(path, allow_pickle=False)
    return records, records.view("<f8").reshape(len(records), len(records.dtype))


def _assert_npy_holds(path, header, table):
    """``path`` is a NumPy 1.0 file of one little-endian float64 field per
    column of ``table``, named by ``header`` in order, holding its bits."""
    assert path.read_bytes()[:8] == b"\x93NUMPY\x01\x00"
    records, loaded = _samples_of(path)
    assert records.dtype == np.dtype([(name, "<f8") for name in header])
    assert records.shape == (len(table),)
    np.testing.assert_array_equal(loaded.view(np.uint64),
                                  np.asarray(table, dtype=float).view(np.uint64))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_npy_reads_back_bit_for_bit(data):
    width = data.draw(st.integers(1, 5))
    count = data.draw(st.integers(0, 6))
    cells = st.one_of(cell_floats, signed_zeros)
    table = np.array(data.draw(st.lists(cells, min_size=count * width,
                                        max_size=count * width)),
                     dtype=float).reshape(count, width)
    if data.draw(st.booleans()):
        table = np.asfortranarray(table)
    header = [f"c{i}" for i in range(width)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.npy"
        cli._write_npy(path, header, table)
        _assert_npy_holds(path, header, table)


@pytest.mark.parametrize("complex_solution", [False, True])
def test_solution_npy_holds_the_samples_bit_for_bit(tmp_path, complex_solution):
    config = parse_config(json.dumps(TINY))
    if complex_solution:
        shifted = config.problem.state_matrix + 0.1j * np.eye(2)
        config = replace(config, problem=replace(config.problem, state_matrix=shifted))
    assert cli.run("solve", config, tmp_path) == 0
    grid = solve_periodic(config.problem).solution
    parts = [grid.samples.real, grid.samples.imag] if complex_solution else [grid.samples]
    header = ["t"] + [f"u{i}{suffix}" for i in range(2)
                      for suffix in (("_re", "_im") if complex_solution else ("",))]
    table = np.column_stack([grid.nodes] + [part[:, i] for i in range(2) for part in parts])
    _assert_npy_holds(tmp_path / "solution.npy", header, table)


@pytest.mark.parametrize("columns", [3, 21])
def test_writer_memory_is_bounded_whatever_the_width(tmp_path, columns):
    # the table is viewed as its records, not copied, and written straight
    # to the file, so even a wide table (a complex solution with n = 10 has
    # 21 columns) adds nothing near its own size
    table = np.random.default_rng(columns).standard_normal((16384, columns))
    header = [f"c{i}" for i in range(columns)]
    cli._write_npy(tmp_path / "table.npy", header, table[:2])
    tracemalloc.start()
    try:
        cli._write_npy(tmp_path / "table.npy", header, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 2**20 and peak < table.nbytes // 8


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


def test_truncation_is_the_problems_own():
    config = parse_config(json.dumps(TINY))
    config.problem.truncation = 7
    assert config.truncation == 7
    with pytest.raises(AttributeError):
        config.truncation = 5


def test_complex_solution_table_gives_each_component_re_then_im():
    spec = problems.mat2_rich()
    spec = replace(spec, state_matrix=spec.state_matrix + 0.1j * np.eye(2))
    solution = solve_periodic(spec)
    grid = solution.solution
    header, table = cli._solution_table(solution)
    assert header == ["t", "u0_re", "u0_im", "u1_re", "u1_im"]
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


def test_each_result_is_its_report_section():
    """Every result the API returns for TINY, encoded as a report encodes
    it, is the text of the matching fields of its golden report: diagnose,
    sweep and verify fill the report with their result's fields, and besov
    gives one result as its ``forcing`` and one as its ``solution``."""
    config = parse_config((GOLDEN / "tiny.json").read_text(encoding="utf-8"))
    spec, cond_limit = config.problem, config.tolerances["singular_cond"]
    solution = solve_periodic(spec, cond_limit=cond_limit).solution
    results = {
        ("diagnose", None): m_bounded_diagnostics(spec, config.window, cond_limit),
        ("sweep", None): convergence_sweep(spec, config.truncation_sweep, cond_limit),
        ("verify", None): compare(spec, config.grid_sizes, cond_limit),
        ("besov", "forcing"): besov_norm_report(spec.forcing, config.besov),
        ("besov", "solution"): besov_norm_report(solution, config.besov),
    }
    for (command, part), result in results.items():
        golden = json.loads((GOLDEN / f"{command}_report.json").read_text(encoding="utf-8"))
        if part is None:
            assert list(golden) == ["version", "command", "config", *result, "exit_code"]
            section = {key: golden[key] for key in result}
        else:
            section = golden[part]
        assert json.dumps(result, default=cli._plain) == json.dumps(section), command


def test_besov_at_p_3_matches_the_golden_file(tmp_path):
    """The bytes of the besov report of TINY under the band-6 forcing of
    ``test_complex_solve_matches_the_golden_files``, at p = 3, q = 2.

    At p != 2 the blocks are synthesised on a quadrature grid of 4 points
    per band mode, and the quadrature error is taken on a second, finer
    grid: that path is pinned here.  Forcing and solution reach |k| = 6,
    so levels 0..3 are live and |k| = 5 carries weight 3/4 in level 2.
    Regenerate (and say why in CHANGES.md) by running this test's
    ``cli.run`` with ``tests/golden/besov_p3`` as the output directory.
    """
    doc = json.loads((GOLDEN / "tiny.json").read_text(encoding="utf-8"))
    doc["problem"]["forcing"]["cos"] = [[1.0, 0.0], [0.0, 0.5], [0.25, 0.0],
                                        [0.0, 0.125], [0.0625, 0.0], [0.0, 0.03125]]
    doc["besov"] = {"s": 1.0, "p": 3.0, "q": 2.0}
    out = tmp_path / "besov"
    assert cli.run("besov", parse_config(json.dumps(doc)), out) == 0
    assert [p.name for p in out.iterdir()] == ["besov_report.json"]
    assert (out / "besov_report.json").read_bytes() == \
        (GOLDEN / "besov_p3" / "besov_report.json").read_bytes()
    report = report_of(out, "besov")
    for part in ("forcing", "solution"):
        assert np.count_nonzero(report[part]["block_norms"]) == 4
        assert report[part]["quadrature_error"] > 0.0


def test_complex_solve_matches_the_golden_files(tmp_path):
    """The bytes of the solve and sweep files of TINY with 0.1i added to A's
    diagonal.

    Its solution is complex, so ``solution.npy`` has ``u{i}_re``/``u{i}_im``
    fields and the negative modes carry imaginary parts of their own.  The
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
    assert np.load(out / "solution.npy", allow_pickle=False).dtype.names == (
        "t", "u0_re", "u0_im", "u1_re", "u1_im")


@pytest.mark.parametrize("command, flags, echoed", [
    ("solve", ["--k", "4"], {"K": 4, "N": 16, "K_diag": 16}),
])
def test_overrides_are_echoed_into_the_report(tmp_path, command, flags, echoed):
    out = tmp_path / "out"
    code = cli.main([command, "--config", str(GOLDEN / "tiny.json"), "--out", str(out)]
                    + flags)
    report = report_of(out, command)
    assert code == 0 and report["exit_code"] == 0
    assert {key: report["config"][key] for key in echoed} == echoed


def test_k_override_is_validated_like_the_document(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["solve", "--config", str(GOLDEN / "tiny.json"), "--out", str(out),
                     "--k", "0"])
    report = report_of(out, "solve")
    assert code == 3 and report["error"]["type"] == "validation"
    assert [v["path"] for v in report["error"]["violations"]] == ["K"]


def test_k_is_the_one_override(tmp_path, capsys):
    options = [a.option_strings for a in cli._parser()._actions]
    assert options == [["-h", "--help"], [], ["--config"], ["--out"], ["--k"]]
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["solve", "--config", str(GOLDEN / "tiny.json"), "--out", str(tmp_path),
                  "--n", "20"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --n 20" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_module_entry_point_writes_the_golden_solve_files(tmp_path):
    # ``python -m specdde.cli`` runs main through the module's __main__ guard
    src = str(Path(cli.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "specdde.cli", "solve", "--config", str(GOLDEN / "tiny.json"),
         "--out", str(tmp_path)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert result.returncode == 0, result.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["solution.npy", "solve_report.json"]
    for name in ("solve_report.json", "solution.npy"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


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


def test_one_parser_serves_every_call_and_one_mkdir_each(tmp_path, monkeypatch):
    # built on the first call of main, not at import, so set-up does not pay for it
    src = str(Path(cli.__file__).resolve().parents[1])
    script = "import specdde.cli\nprint(specdde.cli._parser.cache_info().currsize)\n"
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, check=True, env=dict(os.environ, PYTHONPATH=src))
    assert result.stdout.strip() == "0"

    made, mkdir = [], Path.mkdir

    def counted(path, *args, **kwargs):
        made.append(path)
        return mkdir(path, *args, **kwargs)

    monkeypatch.setattr(Path, "mkdir", counted)
    cli._parser.cache_clear()
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(TINY), encoding="utf-8")
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps(dict(TINY, K=0)), encoding="utf-8")
    calls = [["solve", "--config", str(config), "--out", str(tmp_path / "first")],
             # an override in between must not carry over to the next call
             ["solve", "--config", str(config), "--out", str(tmp_path / "k4"), "--k", "4"],
             ["solve", "--config", str(invalid), "--out", str(tmp_path / "invalid")],
             ["solve", "--config", str(config), "--out", str(tmp_path / "second")]]
    assert [cli.main(argv) for argv in calls] == [0, 0, 3, 0]
    assert cli._parser.cache_info().misses == 1
    assert made == [tmp_path / name for name in ("first", "k4", "invalid", "second")]
    first, second = ({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
                     for name in ("first", "second"))
    assert first == second and set(first) == {"solve_report.json", "solution.npy"}
    assert report_of(tmp_path / "k4", "solve")["config"]["K"] == 4


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

#: values a document leaves out, each reported ``required`` at its path
MISSING_VALUES = [
    pytest.param(dict(TINY, problem={k: v for k, v in TINY["problem"].items() if k != "A"}),
                 ["problem.A"], id="missing_A"),
    pytest.param(_mutated(TINY, ("problem", "L", "atoms", 0), {"lag": TWO_PI}),
                 ["problem.L.atoms[0].coef"], id="missing_atom_coef"),
    pytest.param(_mutated(TINY, ("problem", "forcing"), {"samples": None}),
                 ["problem.forcing.samples"], id="null_forcing_samples"),
    pytest.param(_mutated(TINY, ("problem", "A"), [[None, 0.25], [0.0, -2.0]]),
                 ["problem.A"], id="null_entry_of_A"),
    pytest.param(_mutated(TINY, ("problem", "forcing", "cos"), [[None, 0.0]]),
                 ["problem.forcing.cos[0]"], id="null_entry_of_cos"),
]

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
    pytest.param(_mutated(TINY, ("problem", "forcing", "const"), "x"),
                 ["problem.forcing.const"], id="string_const"),
    pytest.param(_mutated(TINY, ("problem", "forcing", "cos"), [True]),
                 ["problem.forcing.cos[0]"], id="boolean_cos_entry"),
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
    *MISSING_VALUES,
]


@pytest.mark.parametrize("doc, paths", INVALID_FIELDS)
def test_each_invalid_field_exits_3_with_its_path(tmp_path, doc, paths):
    code, out = run(tmp_path, "solve", doc)
    report = report_of(out, "solve")
    assert code == 3 and report["exit_code"] == 3
    assert report["error"]["type"] == "validation"
    assert [v["path"] for v in report["error"]["violations"]] == paths


@pytest.mark.parametrize("doc, paths", MISSING_VALUES)
def test_a_missing_value_is_required_not_non_finite(tmp_path, doc, paths):
    code, out = run(tmp_path, "solve", doc)
    assert code == 3
    assert report_of(out, "solve")["error"]["violations"] == [
        {"path": path, "message": "required"} for path in paths]


def test_a_nan_entry_is_not_finite_not_required():
    # a NaN literal is a number numpy reads as such; only a null is missing
    doc = _mutated(TINY, ("problem", "A"), [[math.nan, 0.25], [0.0, -2.0]])
    with pytest.raises(ConfigError) as caught:
        parse_config(json.dumps(doc))
    assert caught.value.violations == [("problem.A", "must be finite")]


def test_dimension_is_inferred_from_A(tmp_path):
    code, out = run(tmp_path, "solve", NO_N)
    assert code == 0 and report_of(out, "solve")["config"]["problem"]["n"] == 2


#: configurations that together reach every path a command can take: TINY,
#: a sampled kernel (the oracle's spline stencil), a sampled forcing with no
#: delays or memory and a p != 2 norm, an off-grid atom lag, an off-grid
#: kernel span (the solver's direct route), a singular mode under
#: ``tolerances.singular_cond``, a singular collocation system, a grid below
#: the forcing band, and two invalid documents, one with a null entry
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
    # a span off every grid, which the solver takes by its direct route
    "off_grid_span": _mutated(SAMPLED, ("problem", "L", "distributed", "span"), 5.0),
    "singular_mode": _mutated(TINY, ("tolerances",), {"singular_cond": 1.5}),
    "singular_system": {
        "problem": {"n": 1, "A": [[-1.0]],
                    "G": {"atoms": [{"coef": [[-1.0]], "lag": np.pi / 2}]},
                    "forcing": {"cos": [[1.0]]}},
        "K": 8, "K_diag": 16, "N_list": [16, 20], "K_list": [2, 4, 8],
    },
    "aliasing": _mutated(TINY, ("N_list",), [2, 32]),
    "invalid": _mutated(TINY, ("K",), 0),
    "null_entry": _mutated(TINY, ("problem", "A"), [[None, 0.25], [0.0, -2.0]]),
    # det M(0) = 1e-600 underflows: the inversion scales that row
    "overflow": OVERFLOW,
}

#: functions of the package that no command runs, each with its reason
NOT_RUN_BY_A_COMMAND = {
    ("symbols.py", "PeriodicGridFunction.zero"):
        "ProblemSpec's default forcing; a configuration always gives one",
    ("config.py", "RunConfig.truncation"):
        "K for library callers; the commands hand the problem, which holds it, on",
}


def _package_functions():
    """(file name, qualified name) of every function and method defined in
    the package's modules, from their compiled code, keyed by (file name,
    first line, name), which a running frame's code also gives.  The
    qualified name is built here: ``co_qualname`` needs Python 3.11."""
    found = {}
    for info in pkgutil.iter_modules(specdde.__path__):
        path = Path(importlib.import_module(f"specdde.{info.name}").__file__)
        stack = [(compile(path.read_text(encoding="utf-8"), str(path), "exec"), "")]
        while stack:
            code, prefix = stack.pop()
            optimized = code.co_flags & inspect.CO_OPTIMIZED
            name = prefix + code.co_name if code.co_name != "<module>" else ""
            # class bodies are not optimised; lambdas and comprehensions are <...>
            if optimized and not code.co_name.startswith("<"):
                found[path.name, code.co_firstlineno, code.co_name] = (path.name, name)
            inner = name + (".<locals>." if optimized else ".") if name else ""
            stack.extend((c, inner) for c in code.co_consts if isinstance(c, types.CodeType))
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
    assert outcomes["off_grid_span"] == dict.fromkeys(COMMANDS, 0)
    assert outcomes["singular_mode"] == dict.fromkeys(COMMANDS, 2)
    assert outcomes["singular_system"]["verify"] == 2
    assert outcomes["aliasing"]["verify"] == 3
    assert outcomes["invalid"] == outcomes["null_entry"] == dict.fromkeys(COMMANDS, 3)
    assert outcomes["overflow"]["solve"] == 0

    named = _package_functions()
    functions = set(named.values())
    ran = {named.get((Path(code.co_filename).name, code.co_firstlineno, code.co_name))
           for code in codes if Path(code.co_filename).parent == Path(specdde.__file__).parent}
    assert set(NOT_RUN_BY_A_COMMAND) <= functions
    assert sorted(functions - ran - set(NOT_RUN_BY_A_COMMAND)) == []
    assert sorted(set(NOT_RUN_BY_A_COMMAND) & ran) == []
