"""Batch front end: solve / diagnose / besov / verify / sweep.

One command per process; a report is one line of RFC 8259 JSON in UTF-8
(the standard library's default separators, then one LF), with fixed field
order and floats in Python's shortest round-trip form, so identical configs
produce byte-identical files.  The solve report's ``coefficients`` block is
formatted by a template, not by the encoder, and a zero part's text comes
from its sign bit alone, but it is the bytes the standard encoder would
write for its list of ``{"k", "value": [{"re", "im"}, ...]}`` objects.  A
side file is CSV: a header line of column names, then one line per row,
each cell in ``str`` form, comma-separated, every line ended by one LF; a
float's ``str`` is its shortest round-trip ``repr``, which
``_repr.repr_bytes`` computes for a block of a fixed number of cells at
once (the solution's samples are most of what a solve writes: a real
solution's are one ``irfft``, a column per component, a complex one's one
``ifft``, columns ``_re`` and ``_im``).  Exit codes: 0
success, 2 solvability failure (singular mode or singular collocation
system), 3 validation failure (an invalid document, or values a command
cannot use: an off-grid lag or a grid too coarse for a bandwidth) or a
``non_finite`` result (a NaN or infinity in the output, which then writes no
side file).  Every failure writes a report with an ``error.type``.
"""

from __future__ import annotations

import argparse
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


#: cells of a side file formatted at a time, whatever the table's width: the
#: formatter holds a few hundred bytes of temporaries per cell
_BLOCK_CELLS = 12288


def _cell_bytes(block):
    """Each cell of a block of rows as a fixed-width, NUL-padded bytes
    array of shape (rows, columns): ``repr_bytes`` of a float array, and
    ``str`` of each cell of a list of tuples.  Those lists are the sweep
    and verify tables, a few rows each, where ``str`` costs less than the
    kernel's fixed sequence of array operations.  ``_write_csv`` passes
    ``_BLOCK_CELLS`` cells at a time, which bounds the kernel's temporaries."""
    if isinstance(block, np.ndarray):
        # imported here so that only a command that writes a float table
        # compiles and loads the kernel
        from ._repr import repr_bytes

        return repr_bytes(block)
    return np.array([[str(v) for v in row] for row in block], dtype=bytes)


def _csv_bytes(cells) -> bytes:
    """The CSV lines of a (rows, columns) bytes array: each cell's bytes
    up to its NUL padding, then a comma, or LF after a row's last cell."""
    rows, columns = cells.shape
    width = cells.dtype.itemsize
    lines = np.zeros((rows, columns, width + 1), np.uint8)
    lines[..., :width] = cells.view(np.uint8).reshape(rows, columns, width)
    lines[..., width] = ord(",")
    lines[:, -1, width] = ord("\n")
    return lines[lines != 0].tobytes()


def _write_csv(path: Path, header, rows) -> None:
    """The header line, then one line per row of ``rows`` (a float array or
    a list of tuples), each cell in ``str`` form, comma-separated, each line
    ended by LF.  ``str`` of a float is its ``repr``, which ``repr_bytes``
    writes for a whole block of a float array at once.  A block is as many
    rows as ``_BLOCK_CELLS`` cells hold (at least one), whatever the
    table's width.  Every float must be finite, as ``run`` checks before it
    writes a side file."""
    step = max(1, _BLOCK_CELLS // len(header))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        for start in range(0, len(rows), step):
            fh.write(_csv_bytes(_cell_bytes(rows[start:start + step])))


#: the text of a zero part, indexed by its sign bit
_ZEROS = np.array(["0.0", "-0.0"], dtype=object)


def _coefficients_json(modes, coefficients) -> _Encoded:
    """The JSON text of ``[{"k": k, "value": [{"re": .., "im": ..}, ...]}, ...]``,
    one object per mode, in the bytes the standard encoder writes, which
    calls ``int.__repr__`` and ``float.__repr__``.  A solution is zero on
    most modes, so a zero part's text, ``0.0`` or ``-0.0``, is read off its
    sign bit, and only the nonzero parts (NaN included) go through
    ``repr``; one ``%s`` template then writes every row."""
    parts = np.ascontiguousarray(coefficients, dtype=complex).view(float)
    value = ", ".join(['{"re": %s, "im": %s}'] * (parts.shape[1] // 2))
    row = '{"k": %s, "value": [' + value + "]}"
    cells = np.empty((len(parts), parts.shape[1] + 1), dtype=object)
    cells[:, 0] = modes  # an integer array's items go in as Python ints
    cells[:, 1:] = _ZEROS[np.signbit(parts).view(np.uint8)]
    live = parts != 0
    cells[:, 1:][live] = list(map(repr, parts[live].tolist()))
    text = "[" + ", ".join([row] * len(parts)) % tuple(cells.ravel().tolist()) + "]"
    return _Encoded(text, bool(np.isfinite(parts).all()))


def _solution_csv(solution):
    grid = solution.solution
    samples = grid.samples
    real = np.isrealobj(samples)
    parts = ("",) if real else ("_re", "_im")
    header = ["t"] + [f"u{i}{part}" for i in range(grid.dim) for part in parts]
    values = samples if real else np.stack([samples.real, samples.imag], axis=2)
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
    report["coefficients"] = _coefficients_json(solution.modes, solution.coefficients)
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
    try:
        config = _read_config(args)
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
