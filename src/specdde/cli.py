"""Batch front end: solve / diagnose / besov / verify / sweep.

One command per process; reports are UTF-8 JSON with LF newlines, fixed field
order and floats printed at 17 significant digits, so identical configs
produce byte-identical files.  Exit codes: 0 success, 2 solvability failure
(singular mode or singular collocation system), 3 validation failure (an
invalid document, or values a command cannot use: an off-grid lag, an
unreachable fold tolerance, a grid too coarse for a bandwidth).  Every
failure writes a report with an ``error.type``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .besov import besov_norm_report
from .config import RunConfig, parse_config
from .exceptions import (
    AliasingError,
    ConfigError,
    OffGridLagError,
    PeriodizationError,
    SingularModeError,
    SingularSystemError,
)
from .oracle import compare
from .resolvent import m_bounded_diagnostics
from .solver import convergence_sweep, solve_periodic

COMMANDS = ("solve", "diagnose", "besov", "verify", "sweep")


def _format_float(x: float) -> str:
    if np.isnan(x) or np.isinf(x):
        return "null"
    text = format(float(x), ".17g")
    return text


def _dumps(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return _dumps({"re": float(obj.real), "im": float(obj.imag)}, indent)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, np.ndarray):
        return _dumps(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [inner + _dumps(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k), ensure_ascii=False)}: "
            f"{_dumps(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _write_json(path: Path, obj) -> None:
    path.write_text(_dumps(obj) + "\n", encoding="utf-8", newline="\n")


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            _format_float(v) if isinstance(v, float) else str(v) for v in row
        ))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _solution_csv(path: Path, solution) -> None:
    grid = solution.solution
    nodes = grid.nodes
    real = grid.is_real
    header = ["t"]
    for i in range(grid.dim):
        header += [f"u{i}"] if real else [f"u{i}_re", f"u{i}_im"]
    rows = []
    for j, t in enumerate(nodes):
        row = [float(t)]
        for i in range(grid.dim):
            value = grid.samples[j, i]
            row += [float(value.real)] if real else [float(value.real),
                                                     float(value.imag)]
        rows.append(row)
    _write_csv(path, header, rows)


def _coefficient_list(solution):
    return [
        {"k": int(k), "value": [complex(c) for c in solution.coefficients[i]]}
        for i, k in enumerate(solution.modes)
    ]


def _run_solve(config: RunConfig, out_dir: Path, report: dict) -> None:
    solution = solve_periodic(config.problem,
                              cond_limit=config.tolerances["singular_cond"])
    _solution_csv(out_dir / "solution.csv", solution)
    report["residual_grid"] = solution.residual_grid
    report["residual_modal"] = solution.residual_modal
    report["forcing_tail_energy"] = solution.forcing_tail_energy
    report["solution_csv"] = "solution.csv"
    report["coefficients"] = _coefficient_list(solution)


def _run_diagnose(config: RunConfig, out_dir: Path, report: dict) -> None:
    diag = m_bounded_diagnostics(config.problem, config.window,
                                 cond_limit=config.tolerances["singular_cond"])
    report.update(diag.to_dict())


def _run_besov(config: RunConfig, out_dir: Path, report: dict) -> None:
    solution = solve_periodic(config.problem,
                              cond_limit=config.tolerances["singular_cond"])
    forcing = besov_norm_report(config.problem.forcing, config.besov)
    computed = besov_norm_report(solution.solution, config.besov)
    report["params"] = {"s": config.besov.s, "p": config.besov.p,
                        "q": config.besov.q}
    report["forcing"] = forcing.to_dict()
    report["solution"] = computed.to_dict()


def _run_verify(config: RunConfig, out_dir: Path, report: dict) -> None:
    comparison = compare(config.problem, config.grid_sizes,
                         cond_limit=config.tolerances["singular_cond"])
    report.update(comparison.to_dict())
    _write_csv(out_dir / "verify_table.csv", ["n", "gap"],
               [(n, float(g)) for n, g in comparison.rows])


def _run_sweep(config: RunConfig, out_dir: Path, report: dict) -> None:
    sweep = convergence_sweep(config.problem, config.truncation_sweep,
                              cond_limit=config.tolerances["singular_cond"])
    report.update(sweep.to_dict())
    _write_csv(
        out_dir / "sweep_table.csv",
        ["K", "residual_full_band", "solution_change"],
        [(row.truncation, row.residual_full_band,
          "" if row.solution_change is None else row.solution_change)
         for row in sweep.rows],
    )


_RUNNERS = {
    "solve": _run_solve,
    "diagnose": _run_diagnose,
    "besov": _run_besov,
    "verify": _run_verify,
    "sweep": _run_sweep,
}


#: errors the configuration's values cause once a command runs (exit 3)
_INPUT_ERRORS = {
    OffGridLagError: "off_grid_lag",
    PeriodizationError: "periodization",
    AliasingError: "aliasing",
}


def run(command: str, config: RunConfig, out_dir: Path) -> int:
    """Execute one command, writing <command>_report.json plus side files."""
    if command not in _RUNNERS:
        raise ValueError(f"unknown command {command!r}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = {"version": __version__, "command": command,
              "config": config.resolved}
    try:
        _RUNNERS[command](config, out_dir, report)
        status = 0
    except SingularModeError as exc:
        report["error"] = {
            "type": "singular_mode",
            "modes": exc.modes,
            "conditions": [c if np.isfinite(c) else None for c in exc.conditions],
            "message": str(exc),
        }
        status = 2
    except SingularSystemError as exc:
        report["error"] = {
            "type": "singular_system",
            "condition": exc.condition if np.isfinite(exc.condition) else None,
            "message": str(exc),
        }
        status = 2
    except tuple(_INPUT_ERRORS) as exc:
        report["error"] = {"type": _INPUT_ERRORS[type(exc)], "message": str(exc)}
        status = 3
    report["exit_code"] = status
    _write_json(out_dir / f"{command}_report.json", report)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="specdde",
        description="Spectral solver and diagnostics for periodic neutral "
                    "delay integro-differential problems.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON configuration")
    parser.add_argument("--out", default="reports", help="output directory")
    parser.add_argument("--k", type=int, default=None, help="override truncation K")
    parser.add_argument("--grid", type=int, default=None, help="override grid N")
    parser.add_argument("--window", type=int, default=None,
                        help="override diagnostic window K_diag")
    args = parser.parse_args(argv)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    text = Path(args.config).read_text(encoding="utf-8")

    # overrides are injected into the document so they are validated and
    # echoed into the report like any other field
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None
    if isinstance(doc, dict):
        for key, value in (("K", args.k), ("N", args.grid),
                           ("K_diag", args.window)):
            if value is not None:
                doc[key] = value
        text = json.dumps(doc)

    try:
        config = parse_config(text)
    except ConfigError as exc:
        report = {
            "version": __version__,
            "command": args.command,
            "error": {
                "type": "validation",
                "violations": [{"path": p, "message": m}
                               for p, m in exc.violations],
            },
            "exit_code": 3,
        }
        _write_json(out_dir / f"{args.command}_report.json", report)
        print(f"configuration invalid: {exc}", file=sys.stderr)
        return 3

    return run(args.command, config, out_dir)


if __name__ == "__main__":
    raise SystemExit(main())
