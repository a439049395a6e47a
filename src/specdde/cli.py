"""Batch front end: solve / diagnose / besov / verify / sweep.

One command per process; reports are RFC 8259 JSON in UTF-8 with LF newlines,
fixed field order and floats in Python's shortest round-trip form, so
identical configs produce byte-identical files.  Exit codes: 0 success, 2
solvability failure (singular mode or singular collocation system), 3
validation failure (an invalid document, or values a command cannot use: an
off-grid lag, an unreachable fold tolerance, a grid too coarse for a
bandwidth) or a ``non_finite`` result (a NaN or infinity in the output, which
then writes no side file).  Every failure writes a report with an
``error.type``.
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


def _plain(obj):
    """The JSON form of the non-JSON types a report holds (for a numpy
    scalar, ``tolist()`` is ``item()``)."""
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _write_json(path: Path, obj) -> None:
    """RFC 8259 JSON indented by 2, streamed to the file; a NaN or infinity
    raises ValueError and leaves the file partly written."""
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, ensure_ascii=False, allow_nan=False,
                  default=_plain)
        fh.write("\n")


def _finite(obj) -> bool:
    """Whether obj holds no NaN or infinity (an array is checked directly)."""
    if isinstance(obj, np.ndarray):
        return bool(np.isfinite(obj).all())
    try:
        json.dumps(obj, allow_nan=False, default=_plain)
    except ValueError:
        return False
    return True


def _write_csv(path: Path, header, rows) -> None:
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
    lines = [",".join(header)] + [",".join(map(str, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _solution_csv(solution):
    grid = solution.solution
    parts = ("",) if grid.is_real else ("_re", "_im")
    header = ["t"] + [f"u{i}{part}" for i in range(grid.dim) for part in parts]
    values = (grid.samples.real if grid.is_real
              else np.stack([grid.samples.real, grid.samples.imag], axis=2))
    table = np.column_stack([grid.nodes, values.reshape(len(grid.nodes), -1)])
    return "solution.csv", header, table


# A runner fills the report and returns its side files as (name, header, rows).

def _run_solve(config: RunConfig, report: dict):
    solution = solve_periodic(config.problem,
                              cond_limit=config.tolerances["singular_cond"])
    report["residual_grid"] = solution.residual_grid
    report["residual_modal"] = solution.residual_modal
    report["forcing_tail_energy"] = solution.forcing_tail_energy
    cond = solution.condition
    report["condition"] = {"max": cond.max(), "min": cond.min(),
                           "worst_mode": solution.modes[np.argmax(cond)]}
    report["solution_csv"] = "solution.csv"
    report["coefficients"] = [{"k": k, "value": value} for k, value
                              in zip(solution.modes, solution.coefficients)]
    return [_solution_csv(solution)]


def _run_diagnose(config: RunConfig, report: dict):
    diag = m_bounded_diagnostics(config.problem, config.window,
                                 cond_limit=config.tolerances["singular_cond"])
    report.update(diag.to_dict())
    return []


def _run_besov(config: RunConfig, report: dict):
    solution = solve_periodic(config.problem,
                              cond_limit=config.tolerances["singular_cond"])
    forcing = besov_norm_report(config.problem.forcing, config.besov)
    computed = besov_norm_report(solution.solution, config.besov)
    report["params"] = {"s": config.besov.s, "p": config.besov.p,
                        "q": config.besov.q}
    report["forcing"] = forcing.to_dict()
    report["solution"] = computed.to_dict()
    return []


def _run_verify(config: RunConfig, report: dict):
    comparison = compare(config.problem, config.grid_sizes,
                         cond_limit=config.tolerances["singular_cond"])
    report.update(comparison.to_dict())
    return [("verify_table.csv", ["n", "gap"], comparison.rows)]


def _run_sweep(config: RunConfig, report: dict):
    sweep = convergence_sweep(config.problem, config.truncation_sweep,
                              cond_limit=config.tolerances["singular_cond"])
    report.update(sweep.to_dict())
    rows = [(row.truncation, row.residual_full_band,
             "" if row.solution_change is None else row.solution_change)
            for row in sweep.rows]
    return [("sweep_table.csv", ["K", "residual_full_band", "solution_change"], rows)]


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
    """Execute one command, writing <command>_report.json plus side files.

    A NaN or infinity anywhere in the output turns the report into a
    ``non_finite`` error naming the fields that hold it; side files are
    written only after the report has encoded, so then none is written.
    """
    if command not in _RUNNERS:
        raise ValueError(f"unknown command {command!r}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    head = {"version": __version__, "command": command, "config": config.resolved}
    report = dict(head)
    side_files = []
    try:
        side_files = _RUNNERS[command](config, report)
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
    path = out_dir / f"{command}_report.json"
    fields = [name for name, _, rows in side_files if not _finite(rows)]
    try:
        _write_json(path, report)
    except ValueError:
        fields = [key for key, value in report.items() if not _finite(value)] + fields
    if fields:
        status = 3
        _write_json(path, dict(head, error={
            "type": "non_finite",
            "message": f"NaN or infinity in {', '.join(fields)}",
        }, exit_code=status))
        side_files = []
    for name, header, rows in side_files:
        _write_csv(out_dir / name, header, rows)
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
