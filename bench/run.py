#!/usr/bin/env python3
"""End-to-end benchmark of the ``specdde`` batch CLI.

One closed-loop client with a single outstanding request: each pass calls
``specdde.cli.main`` once per command of the workload, in process, writes
the reports to a scratch directory inside the checkout and checks every one
of them (``gates.py``).  Only invocations that pass their gate are timed.
Each timed invocation is also divided by a calibration unit timed next to
it, so that ``pass_ref_s`` follows the program and not the host's speed.

    python3 bench/run.py --workload lumped --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload, one process each

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see README.md).  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os
import sys

#: BLAS threads of this process and of every child it starts
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import numpy  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402
from gates import Gates  # noqa: E402
from tracer import Tracer  # noqa: E402

#: fewest fresh interpreters per run for the set-up time
SETUP_RUNS = 9
#: fewest timed passes per run, whatever --seconds says
MIN_PASSES = 3
#: median time of one calibration unit on the 2-vCPU VM the benchmark was
#: tuned on; ``pass_ref_s`` is expressed at that machine speed
CALIBRATION_REF_S = 0.011
#: median start of a bare interpreter (``python -c pass``) from this process
#: on the same VM; ``setup_s`` is expressed at that machine speed
BARE_START_REF_S = 0.05

SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import specdde.cli
from specdde.config import parse_config
imported = time.perf_counter()
with open(sys.argv[2], encoding="utf-8") as fh:
    parse_config(fh.read())
print(imported - start, time.perf_counter() - imported)
"""

END_TO_END = {"pass_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "config.parse_config.s": "s",
    "symbols.symbol_window.calls": "count",
    "symbols.symbol_window.self_s": "s",
    "symbols.useful_ratio": "ratio",
    "symbols.kernel_nodes": "count",
    "symbols.synthesis.self_s": "s",
    "symbols.synthesis.points": "count",
    "resolvent.resolvent_family.calls": "count",
    "resolvent.resolvent_family.self_s": "s",
    "resolvent.assemble_modal_window.calls": "count",
    "resolvent.m_bounded_diagnostics.self_s": "s",
    "resolvent.svd_matrices": "count",
    "resolvent.svd.self_s": "s",
    "resolvent.inv.self_s": "s",
    "solver.solve_periodic.self_s": "s",
    "solver.residual.calls": "count",
    "solver.residual.self_s": "s",
    "solver.solves": "count",
    "besov.besov_norm.calls": "count",
    "besov.besov_norm_report.self_s": "s",
    "oracle.collocation_solve.self_s": "s",
    "oracle.linalg_solve.self_s": "s",
    "oracle.dense_bytes": "B",
    "oracle.periodize_kernel.self_s": "s",
    "cli.run.self_s": "s",
    "cli.report_bytes": "B",
    "trace.overhead_ratio": "ratio",
}


class Setup:
    """Set-up time: fresh interpreters that import the CLI and parse the
    config.  One is started after every pass, so the samples spread over the
    run, and at least SETUP_RUNS are taken.  Each is divided by the mean of
    two bare interpreter starts around it: process start-up drifts with the
    host by tens of percent over minutes, and the bare start drifts with it,
    while no change to ``specdde`` can change the bare start."""

    def __init__(self, config: Path):
        self.config = config
        self.walls, self.scaled, self.parses = [], [], []

    @staticmethod
    def bare_start() -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], capture_output=True, timeout=120,
                       check=True)
        return time.perf_counter() - start

    def sample(self):
        before = self.bare_start()
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(self.config)],
                              capture_output=True, text=True, timeout=120, check=True)
        wall = time.perf_counter() - start
        after = self.bare_start()
        self.walls.append(wall)
        self.scaled.append(wall / ((before + after) / 2.0))
        self.parses.append(float(done.stdout.split()[1]))

    def medians(self):
        """(set-up time at the reference speed, wall-clock set-up time,
        parse time), each a median."""
        while len(self.walls) < SETUP_RUNS:
            self.sample()
        return (statistics.median(self.scaled) * BARE_START_REF_S,
                statistics.median(self.walls), statistics.median(self.parses))


class Calibration:
    """A fixed unit of pure-Python and numpy work that never touches
    ``specdde``: float formatting, a float loop, a batched 2x2 SVD, a LAPACK
    solve and elementwise transcendentals.  It is timed right before and
    right after every invocation.  The host's speed drifts by tens of percent
    over minutes, and the program and the unit slow down together, so an
    invocation's time divided by the unit's time next to it measures the
    program, not the host."""

    def __init__(self):
        rng = numpy.random.default_rng(0)
        self.mats = rng.standard_normal((4000, 2, 2))
        self.dense = rng.standard_normal((200, 200)) + 200.0 * numpy.eye(200)
        self.vec = rng.standard_normal(60000)
        self.samples = []

    def unit(self) -> float:
        gc.collect()
        start = time.perf_counter()
        ",".join(f"{x:.17g}" for x in self.mats.ravel()[:4000])
        acc = 0.0
        for i in range(20000):
            acc += i * 0.5
        numpy.linalg.svd(self.mats, compute_uv=False)
        numpy.linalg.solve(self.dense, self.dense[:, :16])
        numpy.cos(1.5 * self.vec).sum() + numpy.exp(-self.vec * self.vec).sum()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed


class Client:
    """Closed-loop client: one CLI invocation at a time, each one checked."""

    def __init__(self, cli, gates, config: Path, work: Path, tracer=None, calibration=None):
        self.cli, self.gates, self.config, self.work = cli, gates, config, work
        self.tracer = tracer
        self.calibration = calibration
        self.attempted = 0
        self.failures = Counter()
        self.first = {}
        self.times = defaultdict(list)
        self.scaled = defaultdict(list)   # invocation time / calibration unit next to it
        self.pass_count = 0
        self.passes = []          # (pass index, seconds, report bytes) of clean passes
        self.requests = []        # (pass index, command) per traced invocation
        self.probe = Counter()

    def invoke(self, command: str, config: Path, out: Path, extra=()):
        """Run one command; (seconds, {file: bytes}, exit code), or the name
        of the exception it raised."""
        shutil.rmtree(out, ignore_errors=True)
        # Users run one command per process, so no invocation should pay for
        # collecting the garbage of the previous one: without this, where the
        # collector's thresholds fall moves single timings by tens of percent.
        gc.collect()
        start = time.perf_counter()
        try:
            code = self.cli.main([command, "--config", str(config), "--out", str(out), *extra])
        except Exception as exc:  # an uncaught error is a failed invocation
            return type(exc).__name__
        elapsed = time.perf_counter() - start
        return elapsed, {p.name: p.read_bytes() for p in sorted(out.iterdir())}, code

    def check(self, command: str, files: dict, code: int) -> list:
        reasons = [] if code == 0 else [f"exit code {code}"]
        if files != self.first.setdefault(command, files):
            reasons.append("report not byte-identical to the first one")
        name = f"{command}_report.json"
        if name not in files:
            return reasons + [f"{name} missing"]
        return reasons + self.gates.check(command, json.loads(files[name]))

    def run_pass(self, commands, timed: bool = True):
        tracing = self.tracer is not None and self.tracer.enabled
        total, written, clean = 0.0, 0, True
        before = self.calibration.unit() if self.calibration else None
        for command in commands:
            self.attempted += 1
            if tracing:
                self.tracer.request()
                self.requests.append((self.pass_count, command))
            extra = ("--k", str(workloads.VERIFY_K)) if command == "verify" else ()
            outcome = self.invoke(command, self.config, self.work / command, extra)
            after = self.calibration.unit() if self.calibration else None
            if tracing:
                self.tracer.enabled = False
            reasons = [outcome] if isinstance(outcome, str) else self.check(command, *outcome[1:])
            if tracing:
                self.tracer.enabled = True
            unit, before = (None if after is None else (before + after) / 2.0), after
            if reasons:
                self.failures[f"{command}: {'; '.join(reasons)}"] += 1
                clean = False
                continue
            if timed:
                self.times[command].append(outcome[0])
                if unit is not None:
                    self.scaled[command].append(outcome[0] / unit)
            total += outcome[0]
            written += sum(len(b) for b in outcome[1].values())
        if timed:
            if clean:
                self.passes.append((self.pass_count, total, written))
            self.pass_count += 1

    def run_probe(self, config: Path):
        """verify at the config defaults: a known failure, kept out of the
        timings and of ``failed``, reported by outcome."""
        outcome = self.invoke("verify", config, self.work / "verify-defaults")
        if not isinstance(outcome, str):
            outcome = f"exit code {outcome[2]}"
        self.probe[outcome] += 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def run_passes(client, commands, seconds, probe, setup, alternate_trace=False):
    """Passes until ``seconds`` have gone by (at least MIN_PASSES of each
    kind); with ``alternate_trace`` every second pass is traced."""
    deadline = time.perf_counter() + seconds
    done = 0
    while done < MIN_PASSES * (1 + alternate_trace) or time.perf_counter() < deadline:
        if alternate_trace:
            client.tracer.enabled = done % 2 == 1
        client.run_pass(commands)
        if alternate_trace:
            client.tracer.enabled = False
        if probe is not None:
            client.run_probe(probe)
        setup.sample()
        done += 1


def tail(samples) -> str:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    if n < 20:
        return f"n={n}, max={max(samples):.6f} (no percentile has 10 samples beyond it)"
    pct = int(100 * (1 - 10 / n))
    return f"n={n}, p{pct}={statistics.quantiles(samples, n=100)[pct - 1]:.6f}"


def pass_rows(tracer, client) -> dict:
    """Per traced pass: span counts, counters and self times summed by name.
    numpy.linalg rows are also keyed by the layer that called them."""
    self_s = tracer.self_times()
    rows = defaultdict(Counter)
    for i, span in enumerate(tracer.spans):
        row = rows[client.requests[span.request][0]]
        prefixes = [span.name]
        if span.name.startswith("linalg."):
            prefixes.append(f"{tracer.layer_of(i)}.{span.name}")
        for prefix in prefixes:
            row[f"{prefix}.calls"] += 1
            row[f"{prefix}.self_s"] += self_s[i]
            for key, value in span.counts.items():
                row[f"{prefix}.{key}"] += value
    return rows


def layer_value(row, name):
    evaluated = row["symbols.symbol_window.evaluated"] + row["symbols.symbol.evaluated"]
    distinct = row["symbols.symbol_window.distinct"] + row["symbols.symbol.distinct"]
    derived = {
        "symbols.useful_ratio": distinct / evaluated if evaluated else 0.0,
        "symbols.kernel_nodes": row["symbols.evaluate.nodes"],
        "resolvent.svd_matrices": row["resolvent.linalg.svd.matrices"]
        + row["resolvent.linalg.cond.matrices"],
        "resolvent.svd.self_s": row["resolvent.linalg.svd.self_s"]
        + row["resolvent.linalg.cond.self_s"],
        "resolvent.inv.self_s": row["resolvent.linalg.inv.self_s"],
        "solver.solves": row["solver.solve_periodic.calls"],
        "oracle.linalg_solve.self_s": row["oracle.linalg.solve.self_s"],
        "oracle.dense_bytes": row["oracle.linalg.solve.bytes"],
    }
    return derived[name] if name in derived else row[name]


def layer_shares(tracer, client) -> dict:
    """Per command: each layer's self time as a share of the command's time."""
    self_s = tracer.self_times()
    totals, layers = Counter(), defaultdict(Counter)
    for i, span in enumerate(tracer.spans):
        command = client.requests[span.request][1]
        layers[command][tracer.layer_of(i)] += self_s[i]
        if span.parent < 0:
            totals[command] += span.end - span.start
    return {c: sorted(((t / totals[c], layer) for layer, t in layers[c].items()), reverse=True)
            for c in totals}


def command_counts(tracer, client) -> dict:
    """Per command: mean calls per invocation of a few key functions."""
    names = ("symbols.symbol_window", "resolvent.resolvent_family", "solver.solve_periodic")
    counts = defaultdict(Counter)
    for span in tracer.spans:
        counts[client.requests[span.request][1]][span.name] += 1
    invocations = Counter(c for _, c in client.requests)
    return {c: [counts[c][n] / invocations[c] for n in names] for c in counts}


def end_to_end(client, setup) -> dict:
    """The end-to-end metrics, printed with the wall-clock medians."""
    passes = [t for _, t, _ in client.passes]
    units = client.calibration.samples
    setup_s, setup_wall, _ = setup.medians()
    scaled = {c: statistics.median(v) * CALIBRATION_REF_S for c, v in client.scaled.items()}
    metrics = {
        "pass_ref_s": sum(scaled.values()),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "pass_ref_s": "sum over the pass's commands of the median invocation at the "
                      f"reference speed ({CALIBRATION_REF_S * 1e3:g} ms calibration unit)",
        "setup_s": f"median of {len(setup.walls)} fresh interpreters at the reference "
                   f"speed ({BARE_START_REF_S * 1e3:g} ms bare interpreter start)",
        "peak_rss_mb": "peak resident memory of this process",
    }
    for name, unit in END_TO_END.items():
        print(f"  {name:<12} {metrics[name]:.6f} {unit:<3} {notes[name]}")
    print(f"  calibration unit {statistics.median(units) * 1e3:.3f} ms median, "
          f"{min(units) * 1e3:.3f} ms min, n={len(units)}")
    print("  wall clock, not bounded (the host's speed drifts, see README):")
    print(f"  {'pass_s':<12} {statistics.median(passes) if passes else 0.0:.6f} s   "
          f"{tail(passes) if passes else 'no clean pass'}")
    print(f"  {'setup_s':<12} {setup_wall:.6f} s   {tail(setup.walls)}")
    for command, samples in client.times.items():
        print(f"  {command + '_s':<12} {statistics.median(samples):.6f} s   {tail(samples)}; "
              f"at reference speed {scaled.get(command, 0.0):.6f} s")
    return metrics


def per_layer(tracer, client, parse_s) -> dict:
    """Per-pass layer metrics of the traced (odd) passes: counts must repeat
    exactly, times are medians; the overhead compares with the even passes."""
    traced = [(i, t, b) for i, t, b in client.passes if i % 2 == 1]
    untraced = [t for i, t, _ in client.passes if i % 2 == 0]
    if not traced or not untraced:
        client.failures["no clean traced and untraced pass"] += 1
        return dict.fromkeys(PER_LAYER, 0)
    rows = pass_rows(tracer, client)
    rows = [rows[i] for i, _, _ in traced]
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name == "config.parse_config.s":
            value = parse_s
        elif name == "cli.report_bytes":
            value = traced[0][2]
        elif name == "trace.overhead_ratio":
            value = statistics.median(t for _, t, _ in traced) / statistics.median(untraced) - 1.0
        else:
            values = [layer_value(row, name) for row in rows]
            value = statistics.median(values) if unit == "s" else values[0]
            if unit != "s" and any(v != values[0] for v in values):
                client.failures[f"count {name} differs between passes: {values}"] += 1
        metrics[name] = value
        print(f"  {name:<40} {value:.6g} {unit}")
    print("  layer self time as a share of each command (traced passes):")
    for command, shares in layer_shares(tracer, client).items():
        print(f"    {command:<9} " + ", ".join(f"{layer} {s:.1%}" for s, layer in shares))
    print("  calls per invocation (symbol_window / resolvent_family / solve_periodic):")
    for command, counts in command_counts(tracer, client).items():
        print(f"    {command:<9} " + " / ".join(f"{c:g}" for c in counts))
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    commands = workloads.COMMANDS[name]
    doc = workloads.config_document(name, seed)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        config = work / "config.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        probe = None
        if "verify" in commands:
            probe = work / "defaults.json"
            probe.write_text(json.dumps(workloads.defaults_document(doc)), encoding="utf-8")
        setup = Setup(config)

        import specdde.cli as cli

        tracer = Tracer() if trace else None
        calibration = None if trace else Calibration()
        client = Client(cli, Gates(doc, commands), config, work, tracer, calibration)
        mix = ", ".join(f"{c} x{n}" for c, n in Counter(commands).items())
        print(f"workload {name}: seed {seed}, each pass {mix}; "
              f"nproc {os.cpu_count()}, BLAS threads {BLAS_THREADS}, numpy "
              f"{numpy.__version__}, scipy {scipy.__version__}; one closed-loop client")
        client.run_pass(commands, timed=False)      # warm-up: lazy imports, spline build
        if not trace:
            run_passes(client, commands, seconds, probe, setup)
            metrics = end_to_end(client, setup)
        else:
            tracer.install()
            try:
                run_passes(client, commands, seconds, probe, setup, alternate_trace=True)
            finally:
                tracer.uninstall()
            metrics = per_layer(tracer, client, setup.medians()[2])
            trace_file = OUT / f"trace-{name}-seed{seed}.json"
            trace_file.write_text(json.dumps({
                "requests": client.requests,
                "spans": [[s.name, s.start, s.end, s.parent, s.request, s.counts]
                          for s in tracer.spans],
            }), encoding="utf-8")
            print(f"  spans written to {trace_file.relative_to(ROOT)}")
        print(f"  failed_frac  {client.failed / client.attempted:.6f} "
              f"({client.failed}/{client.attempted} invocations)")
        for reason, count in client.failures.items():
            print(f"    failed x{count}: {reason}")
        for outcome, count in client.probe.items():
            print(f"  known-defect probe, verify at config defaults (K=64, N_list "
                  f"[64, 128, 256]): {outcome} x{count}; not timed, not in `failed`")
        units = PER_LAYER if trace else END_TO_END
        correct = client.failed == 0 and all(client.times[c] for c in commands)
        return {"correct": correct, "attempted": client.attempted, "failed": client.failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in its own process; prints a summary table."""
    results = {}
    for name in workloads.COMMANDS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write("\n".join(done.stdout.splitlines()[:-1]) + "\n")
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        results[name] = json.loads(done.stdout.splitlines()[-1])
    names = list(next(iter(results.values()))["metrics"])
    print(f"{'metric':<40}" + "".join(f"{w:>14}" for w in results))
    for metric in names:
        print(f"{metric:<40}" + "".join(f"{r['metrics'][metric]['value']:>14.6g}"
                                        for r in results.values()))
    print(f"{'correct / failed / attempted':<40}" + "".join(
        f"{str(r['correct']) + ' ' + str(r['failed']) + '/' + str(r['attempted']):>14}"
        for r in results.values()))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.COMMANDS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "specdde" / "__init__.py").is_file():
        print(f"specdde sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
