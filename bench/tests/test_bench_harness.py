"""Self-tests of the benchmark: configs, gates, tracer and failure accounting."""

import copy
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from gates import Gates  # noqa: E402
from tracer import Span, Tracer  # noqa: E402

from specdde import cli  # noqa: E402
from specdde.config import parse_config  # noqa: E402
from specdde.exceptions import AliasingError  # noqa: E402
from specdde.solver import solve_periodic  # noqa: E402

SPECTRAL = workloads.SPECTRAL


@pytest.mark.parametrize("workload", sorted(workloads.COMMANDS))
@pytest.mark.parametrize("seed", [0, 7, 123456789])
def test_configs_parse_and_solve(workload, seed):
    doc = workloads.config_document(workload, seed)
    assert doc == workloads.config_document(workload, seed)
    config = parse_config(json.dumps(doc))
    K = min(config.truncation, 256)          # the conditioning is k-uniform
    config.problem.truncation, config.problem.grid = K, 4 * K
    solution = solve_periodic(config.problem)   # raises SingularModeError if singular
    assert solution.residual_modal < 1e-12


def small_lumped(seed):
    """The lumped problem at the sizes of a quick test."""
    doc = workloads.config_document("lumped", seed)
    doc.update(K=32, K_diag=64, K_list=[4, 8, 16, 32])
    return doc


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """Reports of the spectral commands on a small lumped config."""
    work = tmp_path_factory.mktemp("bench")
    doc = small_lumped(3)
    config = work / "config.json"
    config.write_text(json.dumps(doc))
    out = {}
    for command in SPECTRAL:
        assert cli.main([command, "--config", str(config), "--out", str(work)]) == 0
        out[command] = json.loads((work / f"{command}_report.json").read_text())
    return Gates(doc, SPECTRAL), out


def test_gates_accept_the_program_output(reports):
    gates, out = reports
    for command, report in out.items():
        assert gates.check(command, report) == [], command


def _perturbed(report, edit):
    report = copy.deepcopy(report)
    edit(report)
    return report


PERTURBATIONS = {
    "solve": lambda r: r["coefficients"][40]["value"][1].update(
        re=r["coefficients"][40]["value"][1]["re"] + 1e-6),
    "diagnose": lambda r: r["rows"][0].update(sup_norm=r["rows"][0]["sup_norm"] * (1 + 1e-6)),
    "besov": lambda r: r["solution"].update(norm=r["solution"]["norm"] * (1 + 1e-6)),
    "sweep": lambda r: r["rows"][-1].update(residual_full_band=1e-6),
}


@pytest.mark.parametrize("command", SPECTRAL)
def test_each_gate_rejects_a_perturbed_result(reports, command):
    gates, out = reports
    assert gates.check(command, _perturbed(out[command], PERTURBATIONS[command]))


def test_diagnose_gate_rejects_a_changed_verdict(reports):
    gates, out = reports
    bad = _perturbed(out["diagnose"], lambda r: r["rows"][6].update(verdict="bounded"))
    assert any("verdict" in reason for reason in gates.check("diagnose", bad))


def test_verify_gate():
    doc = small_lumped(3)
    gates = Gates(doc, ["verify"])
    good = {"exit_code": 0, "fitted_order": 2.0,
            "rows": [{"n": n, "gap": gates.gap * (128 / n) ** 2} for n in doc["N_list"]]}
    assert gates.check("verify", good) == []
    worse = _perturbed(good, lambda r: r["rows"][0].update(gap=gates.gap * 1.001))
    assert gates.check("verify", worse)
    assert gates.check("verify", _perturbed(good, lambda r: r.update(fitted_order=1.85)))


def test_self_time_is_duration_minus_child_coverage():
    tracer = Tracer()
    tracer.spans = [
        Span("cli.main", 0.0, 10.0, -1, 0),
        Span("solver.solve_periodic", 1.0, 3.0, 0, 0),
        Span("solver.residual", 2.0, 4.0, 0, 0),     # overlaps its sibling
        Span("linalg.svd", 8.0, 9.0, 0, 0),
        Span("symbols.symbol_window", 1.5, 2.5, 1, 0),
    ]
    assert tracer.self_times() == pytest.approx([6.0, 1.0, 2.0, 1.0, 1.0])
    assert tracer.layer_of(3) == "cli"


def test_wrapped_nested_calls_record_parents_and_self_time():
    tracer = Tracer()
    inner = tracer.wrap("solver.inner", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()
        inner()

    outer = tracer.wrap("cli.outer", outer_body)
    tracer.enabled = True
    tracer.request()
    outer()
    names = [s.name for s in tracer.spans]
    assert names == ["cli.outer", "solver.inner", "solver.inner"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 0]
    own = tracer.self_times()
    total = tracer.spans[0].end - tracer.spans[0].start
    children = sum(s.end - s.start for s in tracer.spans[1:])
    assert own[0] == pytest.approx(total - children)
    assert 0.005 < own[0] < 0.04


def test_install_wraps_reimported_names_and_restores_them():
    original, svd = cli.solve_periodic, np.linalg.svd
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.solve_periodic.__wrapped__ is original
        assert np.linalg.svd.__wrapped__ is svd
    finally:
        tracer.uninstall()
    assert cli.solve_periodic is original and np.linalg.svd is svd


class _RaisingCli:
    @staticmethod
    def main(argv):
        raise AliasingError("N=64 too small for bandwidth K=64")


def test_raising_invocation_is_counted_as_failed(tmp_path):
    client = run.Client(_RaisingCli, gates=None, config=tmp_path / "c.json", work=tmp_path)
    client.run_pass(["verify"])
    assert client.attempted == 1 and client.failed == 1
    assert "verify: AliasingError" in client.failures
    assert not client.times and not client.passes
    client.run_probe(tmp_path / "c.json")
    assert client.probe == {"AliasingError": 1}


class _WritingCli:
    @staticmethod
    def main(argv):
        out = Path(argv[argv.index("--out") + 1])
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{argv[0]}_report.json").write_text("{}", encoding="utf-8")
        return 0


class _AcceptingGates:
    @staticmethod
    def check(command, report):
        return []


class _FixedUnits:
    def __init__(self, values):
        self.values, self.samples = iter(values), []

    def unit(self):
        self.samples.append(next(self.values))
        return self.samples[-1]


def test_invocations_are_scaled_by_the_mean_of_the_units_around_them(tmp_path):
    client = run.Client(_WritingCli, _AcceptingGates, tmp_path / "c.json", tmp_path,
                        calibration=_FixedUnits([1.0, 3.0, 5.0]))
    client.run_pass(["solve", "diagnose"])
    assert client.failed == 0
    assert client.scaled["solve"] == [client.times["solve"][0] / 2.0]
    assert client.scaled["diagnose"] == [client.times["diagnose"][0] / 4.0]
