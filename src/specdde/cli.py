"""Batch front end: solve / diagnose / besov / verify / sweep.

One command per process.  Every command writes ``<command>_report.json``,
and solve alone also writes ``solution.npy``; the sweep and verify rows
are the report's ``rows``.  The one command-line override is ``--k``,
which sets the configuration's ``K`` before it is validated and echoed.
A report is one line of RFC 8259 JSON in UTF-8 (the standard library's
default separators, then one LF), with fixed field order and floats in
Python's shortest round-trip form, so identical configs produce
byte-identical files.  The solve report's ``coefficients`` block holds the
coefficients' values, not the sign bits of their zeros: a zero part is
written ``0.0`` whatever its sign bit, so the block is the bytes the
standard encoder writes for the list of ``{"k", "value": [{"re", "im"},
...]}`` objects of ``coefficients + 0.0``.  It is formatted by a template,
not by the encoder, and an all-zero row, most of a solution, passes k
alone.  ``solution.npy`` holds the solution's samples, NumPy format 1.0
as ``np.save`` writes it without pickles: a 1-D array of records, one
little-endian float64 field per column, named ``t`` then ``u{i}`` for a
real solution (one ``irfft``) or ``u{i}_re``, ``u{i}_im`` for a complex one
(one ``ifft``), so every sample reads back bit for bit.
Exit codes: 0 success, 2 solvability failure (singular mode or singular
collocation system), 3 validation failure (an invalid document, or values
a command cannot use: an atom lag or a distributed span of 5e8 oracle grid
steps or more, ``off_grid_lag``, or a grid too coarse for a bandwidth) or
a ``non_finite`` result (a NaN or infinity in the output).  Every failure
writes a report with an ``error.type``; one table, ``_ERRORS``, maps each
failure a command raises to its type, exit code and reported attributes.
``run`` writes each file once, and shows a TruncationWarning, never raises
it, whatever the warning filters.  ``main`` builds its argument parser once
a process, on first use, and an invocation makes its output directory
once: in ``run``, or before the validation report of an invalid
configuration.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from dataclasses import asdict, dataclass
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
    TruncationWarning,
)
from .oracle import compare
from .resolvent import m_bounded_diagnostics
from .solver import convergence_sweep, solve_periodic


def _plain(obj):
    """The JSON form of the non-JSON types a report holds (for a numpy
    scalar, ``tolist()`` is ``item()``)."""
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


def _encoded(report: dict):
    """(text, keys): the report as RFC 8259 JSON on one line plus a
    trailing LF, and the keys whose values hold a NaN or infinity, in
    field order.  Each value is encoded once, by the standard library in C
    (it encodes in C only without ``indent``), and an ``_Encoded`` value is
    spliced in as it is, in its place in the field order, with the
    encoder's separators, and gives its own ``finite`` flag.  A named key's
    value is left out of the text."""
    encode = json.JSONEncoder(ensure_ascii=False, allow_nan=False, default=_plain).encode
    items, non_finite = [], []
    for key, value in report.items():
        if isinstance(value, _Encoded):
            text = value.text if value.finite else None
        else:
            try:
                text = encode(value)
            except ValueError:  # the encoder stops at the first NaN or infinity
                text = None
        if text is None:
            non_finite.append(key)
        else:
            items.append(f"{encode(key)}: {text}")
    return "{" + ", ".join(items) + "}\n", non_finite


def _write_json(path: Path, report: dict) -> None:
    """Write the report's ``_encoded`` text; a NaN or infinity raises
    ValueError and writes nothing."""
    text, non_finite = _encoded(report)
    if non_finite:
        raise ValueError(f"NaN or infinity in {', '.join(non_finite)}")
    path.write_text(text, encoding="utf-8", newline="\n")


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
    return header, table


# A runner fills the report; solve's also returns the solution's (header,
# table), which ``run`` writes to the file the report names.

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
    return _solution_table(solution)


def _run_diagnose(config: RunConfig, report: dict):
    report.update(m_bounded_diagnostics(config.problem, config.window,
                                        cond_limit=config.tolerances["singular_cond"]))


def _run_besov(config: RunConfig, report: dict):
    solution = solve_periodic(config.problem,
                              cond_limit=config.tolerances["singular_cond"])
    report["params"] = asdict(config.besov)
    report["forcing"] = besov_norm_report(config.problem.forcing, config.besov)
    report["solution"] = besov_norm_report(solution.solution, config.besov)


def _run_verify(config: RunConfig, report: dict):
    report.update(compare(config.problem, config.grid_sizes,
                          cond_limit=config.tolerances["singular_cond"]))


def _run_sweep(config: RunConfig, report: dict):
    report.update(convergence_sweep(config.problem, config.truncation_sweep,
                                    cond_limit=config.tolerances["singular_cond"]))


_RUNNERS = {
    "solve": _run_solve,
    "diagnose": _run_diagnose,
    "besov": _run_besov,
    "verify": _run_verify,
    "sweep": _run_sweep,
}

COMMANDS = tuple(_RUNNERS)


#: each failure a command reports: its error type, its exit code, and the
#: attributes its report gives, in order (a non-finite number in them is null)
_ERRORS = {
    SingularModeError: ("singular_mode", 2, ("modes", "conditions")),
    SingularSystemError: ("singular_system", 2, ("condition",)),
    OffGridLagError: ("off_grid_lag", 3, ()),
    AliasingError: ("aliasing", 3, ()),
}


def run(command: str, config: RunConfig, out_dir: Path) -> int:
    """Execute one command and write its outcome, each file once: the
    ``_ERRORS`` report of a failure, else a ``non_finite`` report when a NaN
    or infinity is anywhere in the output (naming its fields, and
    ``solution.npy`` for the samples), else the result and, for solve, then
    ``solution.npy``.  numpy's floating-point warnings are off, so an
    overflow is judged by that check alone, and a TruncationWarning is shown
    under the default action whatever the interpreter's filters, so
    ``python -W error`` still writes the report."""
    if command not in _RUNNERS:
        raise ValueError(f"unknown command {command!r}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    head = {"version": __version__, "command": command, "config": config.resolved}
    report = dict(head)
    table = None
    try:
        # a NaN or infinity is judged below, field by field, not by a warning
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("default", TruncationWarning)
            table = _RUNNERS[command](config, report)
        status = 0
    except tuple(_ERRORS) as exc:
        kind, status, attributes = _ERRORS[type(exc)]
        error = report["error"] = {"type": kind}
        for name in attributes:  # a non-finite number is written null
            value = getattr(exc, name)
            error[name] = np.where(np.isfinite(value), value, None).tolist()
        error["message"] = str(exc)
    report["exit_code"] = status
    text, fields = _encoded(report)
    if table is not None and not np.isfinite(table[1]).all():
        fields.append(report["solution_file"])
    if fields:
        status = 3
        text, _ = _encoded(dict(head, error={
            "type": "non_finite",
            "message": f"NaN or infinity in {', '.join(fields)}",
        }, exit_code=status))
    (out_dir / f"{command}_report.json").write_text(text, encoding="utf-8", newline="\n")
    if table is not None and not fields:
        _write_npy(out_dir / report["solution_file"], *table)
    return status


def _read_config(args) -> RunConfig:
    """Parse the ``--config`` file with ``--k``, when given, injected into the
    document as ``K``, so it is validated and echoed into the report like
    any other field.  A file that cannot be read as UTF-8 text is a
    ConfigError at ``$``."""
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([("$", f"cannot read the configuration: {exc}")]) from None
    return parse_config(text, {} if args.k is None else {"K": args.k})


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use (not at import), once a process."""
    parser = argparse.ArgumentParser(prog="specdde", description="Spectral solver and diagnostics "
                                     "for periodic neutral delay integro-differential problems.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON configuration")
    parser.add_argument("--out", default="reports", help="output directory")
    parser.add_argument("--k", type=int, default=None, help="override truncation K")
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
