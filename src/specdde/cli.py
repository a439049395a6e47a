"""Batch front end: solve / diagnose / besov / verify / sweep.

One command per process; a report is one line of RFC 8259 JSON in UTF-8
(the standard library's default separators, then one LF), with fixed field
order and floats in Python's shortest round-trip form, so identical configs
produce byte-identical files.  The solve report's ``coefficients`` block
holds the coefficients' values, not the sign bits of their zeros: a zero
part is written ``0.0`` whatever its sign bit, so the block is the bytes
the standard encoder writes for the list of ``{"k", "value": [{"re", "im"},
...]}`` objects of ``coefficients + 0.0``.  It is formatted by a template,
not by the encoder, and an all-zero row, most of a solution, passes k
alone.  The solution's samples go to ``solution.npy``, NumPy format 1.0
as ``np.save`` writes it without pickles: a 1-D array of records, one
little-endian float64 field per column, named ``t`` then ``u{i}`` for a
real solution (one ``irfft``) or ``u{i}_re``, ``u{i}_im`` for a complex one
(one ``ifft``), so every sample reads back bit for bit.  The sweep and
verify tables, a few rows each, are CSV: a header line of column names,
then one line per row, each cell in ``str`` form, comma-separated, every
line ended by one LF; a float's ``str`` is its shortest round-trip ``repr``.
Exit codes: 0 success, 2 solvability failure (singular mode or singular
collocation system), 3 validation failure (an invalid document, or values
a command cannot use: an atom lag or a distributed span of 5e8 oracle grid
steps or more, ``off_grid_lag``, or a grid too coarse for a bandwidth) or
a ``non_finite`` result (a NaN or infinity in the output, which then writes
no side file).  Every failure writes a report with an ``error.type``.
``main`` builds its argument parser once a process, on first use, and an
invocation makes its output directory once: in ``run``, or before the
validation report of an invalid configuration.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .besov import besov_norm_report
from .config import RunConfig, parse_config
from .exceptions import (
    AliasingError,
    ConfigError,
    OffGridLagError,
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


@dataclass(frozen=True)
class _Encoded:
    """A report value already encoded as JSON ``text``; ``finite`` says
    whether every number it encodes is finite, since a template writes a
    NaN as ``nan`` where the encoder would refuse it."""

    text: str
    finite: bool


def _write_json(path: Path, report: dict) -> None:
    """RFC 8259 JSON on one line plus a trailing LF.  Each value of the
    report is encoded by the standard library, in C (it encodes in C only
    without ``indent``), and an ``_Encoded`` value is spliced in as it is,
    in its place in the field order, with the encoder's separators.  A NaN
    or infinity raises ValueError and writes nothing."""
    encode = json.JSONEncoder(ensure_ascii=False, allow_nan=False, default=_plain).encode
    items = []
    for key, value in report.items():
        if isinstance(value, _Encoded):
            if not value.finite:
                raise ValueError(f"NaN or infinity in {key}")
            text = value.text
        else:
            text = encode(value)
        items.append(f"{encode(key)}: {text}")
    path.write_text("{" + ", ".join(items) + "}\n", encoding="utf-8", newline="\n")


def _finite(obj) -> bool:
    """Whether obj holds no NaN or infinity (an array is checked directly,
    and a pre-encoded block gives its own flag)."""
    if isinstance(obj, _Encoded):
        return obj.finite
    if isinstance(obj, np.ndarray):
        return bool(np.isfinite(obj).all())
    try:
        json.dumps(obj, allow_nan=False, default=_plain)
    except ValueError:
        return False
    return True


def _write_csv(path: Path, header, rows) -> None:
    """The header line, then one line per row of ``rows`` (a list of
    tuples), each cell in ``str`` form, comma-separated, each line ended by
    LF."""
    lines = [",".join(header)] + [",".join(map(str, row)) for row in rows]
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def _write_npy(path: Path, header, table) -> None:
    """A (rows, columns) float ``table`` as ``np.save`` writes it, without
    pickles: a 1-D array of records with one little-endian float64 field
    per column, named by ``header``.  A C-contiguous float64 table, as
    ``_solution_table`` makes it, is viewed as the records, not copied."""
    records = np.dtype([(name, "<f8") for name in header])
    np.save(path, np.ascontiguousarray(table, dtype="<f8").view(records)[:, 0],
            allow_pickle=False)


def _row_template(text: str, width: int) -> str:
    """The ``%s`` template of a coefficient row of ``width`` parts, re and
    im of each component in turn, each written ``text``.  k is always an
    argument."""
    values = ['{"re": %s, "im": %s}' % (text, text)] * (width // 2)
    return '{"k": %s, "value": [' + ", ".join(values) + "]}"


def _coefficients_json(modes, coefficients) -> _Encoded:
    """The JSON text of ``[{"k": k, "value": [{"re": .., "im": ..}, ...]}, ...]``,
    one object per mode, in the bytes the standard encoder writes for
    ``coefficients + 0.0``, which calls ``int.__repr__`` and
    ``float.__repr__``: a zero part is written ``0.0`` whatever its sign
    bit, and every other part, NaN included, keeps its ``repr``.  A
    solution is zero on most modes, and every all-zero row shares one
    template with its zeros written in, so such a row passes k alone.  A
    row with a nonzero part passes k and every part.  One ``%`` pass over
    the rows' templates, its arguments in row order, writes the block."""
    parts = np.ascontiguousarray(coefficients, dtype=complex).view(float)
    rows, width = parts.shape
    nonzero = parts != 0
    live = np.zeros(rows, dtype=bool)
    for column in nonzero.T:  # whole columns: numpy reduces a short row axis slowly
        live |= column
    # each row's k goes at ``first``, a live row's parts after it
    first = np.arange(rows) + width * (np.cumsum(live) - live)
    at = (first + 1)[:, None] + np.arange(width)
    args = np.empty(rows + width * np.count_nonzero(live), dtype=object)
    args[first] = modes  # an integer array's items go in as Python ints
    args[at[nonzero]] = list(map(repr, parts[nonzero].tolist()))
    args[at[~nonzero & live[:, None]]] = "0.0"
    templates = np.array([_row_template("0.0", width), _row_template("%s", width)],
                         dtype=object)[live.view(np.uint8)]
    text = "[" + ", ".join(templates.tolist()) % tuple(args.tolist()) + "]"
    return _Encoded(text, bool(np.isfinite(parts).all()))


def _solution_table(solution):
    grid = solution.solution
    samples = grid.samples
    real = np.isrealobj(samples)
    parts = ("",) if real else ("_re", "_im")
    header = ["t"] + [f"u{i}{part}" for i in range(grid.dim) for part in parts]
    values = samples if real else np.stack([samples.real, samples.imag], axis=2)
    table = np.column_stack([grid.nodes, values.reshape(len(grid.nodes), -1)])
    return "solution.npy", header, table


# A runner fills the report and returns its side files as (name, header,
# rows): a float array is written as .npy records, a list of tuples as CSV.

def _run_solve(config: RunConfig, report: dict):
    solution = solve_periodic(config.problem,
                              cond_limit=config.tolerances["singular_cond"])
    report["residual_grid"] = solution.residual_grid
    report["residual_modal"] = solution.residual_modal
    report["forcing_tail_energy"] = solution.forcing_tail_energy
    cond = solution.condition
    report["condition"] = {"max": cond.max(), "min": cond.min(),
                           "worst_mode": solution.modes[np.argmax(cond)]}
    report["solution_file"] = "solution.npy"
    report["coefficients"] = _coefficients_json(solution.modes, solution.coefficients)
    return [_solution_table(solution)]


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
    AliasingError: "aliasing",
}


def run(command: str, config: RunConfig, out_dir: Path) -> int:
    """Execute one command, writing <command>_report.json plus side files.

    A NaN or infinity anywhere in the output turns the report into a
    ``non_finite`` error naming the fields that hold it; side files are
    written only after the report has encoded, so then none is written.
    The command runs with numpy's floating-point warnings off, so an
    overflow on the way is judged by that check alone, also where warnings
    are raised as errors (``python -W error::RuntimeWarning``).
    """
    if command not in _RUNNERS:
        raise ValueError(f"unknown command {command!r}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    head = {"version": __version__, "command": command, "config": config.resolved}
    report = dict(head)
    side_files = []
    try:
        # a NaN or infinity is judged below, field by field, not by a warning
        with np.errstate(all="ignore"):
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
        write = _write_npy if isinstance(rows, np.ndarray) else _write_csv
        write(out_dir / name, header, rows)
    return status


def _read_config(args) -> RunConfig:
    """Parse the ``--config`` file with the command-line overrides injected
    into the document, so they are validated and echoed into the report like
    any other field.  A file that cannot be read as UTF-8 text is a
    ConfigError at ``$``."""
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([("$", f"cannot read the configuration: {exc}")]) from None
    overrides = {key: value for key, value in (("K", args.k), ("N", args.grid),
                                               ("K_diag", args.window))
                 if value is not None}
    return parse_config(text, overrides)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use (not at import), once a process."""
    parser = argparse.ArgumentParser(prog="specdde", description="Spectral solver and diagnostics "
                                     "for periodic neutral delay integro-differential problems.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON configuration")
    parser.add_argument("--out", default="reports", help="output directory")
    parser.add_argument("--k", type=int, default=None, help="override truncation K")
    parser.add_argument("--grid", type=int, default=None, help="override grid N")
    parser.add_argument("--window", type=int, default=None,
                        help="override diagnostic window K_diag")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    out_dir = Path(args.out)
    try:
        config = _read_config(args)
    except ConfigError as exc:
        violations = [{"path": p, "message": m} for p, m in exc.violations]
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_json(out_dir / f"{args.command}_report.json", {
            "version": __version__, "command": args.command,
            "error": {"type": "validation", "violations": violations}, "exit_code": 3})
        print(f"configuration invalid: {exc}", file=sys.stderr)
        return 3
    return run(args.command, config, out_dir)


if __name__ == "__main__":
    raise SystemExit(main())
