"""``_repr.csv_lines`` writes ``float.__repr__`` of each cell, byte for
byte: a one-column block's lines are each value's ``repr`` plus LF."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import specdde
from specdde._repr import csv_lines

#: values formatted per kernel call in these tests, which bounds its
#: temporaries
CHUNK = 1 << 16


def _lines(values):
    """The lines ``csv_lines`` writes for a one-column block of values,
    each without its LF."""
    text = csv_lines(np.reshape(np.asarray(values, dtype=float), (-1, 1)))
    assert text.endswith(b"\n") or text == b""
    return text.split(b"\n")[:-1]


def _mismatches(values):
    """The values whose kernel bytes differ from ``repr``, each with both."""
    values = np.asarray(values, dtype=float).ravel()
    bad = []
    for start in range(0, len(values), CHUNK):
        chunk = values[start:start + CHUNK].tolist()
        got = _lines(chunk)
        assert len(got) == len(chunk)
        bad += [(v, g) for v, g in zip(chunk, got) if g != repr(v).encode("ascii")]
    return bad


def _with_neighbours(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([np.nextafter(values, -np.inf), values,
                           np.nextafter(values, np.inf)])


def _signed(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, -values])


def test_platform_writes_the_short_repr():
    # repr_bytes reproduces the "short" repr; a build with the legacy repr
    # writes %.17g, and its side files would differ from the kernel's
    assert sys.float_repr_style == "short"


def test_random_bit_patterns():
    bits = np.random.default_rng(20171001).integers(0, 1 << 64, size=1 << 20,
                                                    dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)]
    assert len(values) > 10**6 - 1000
    assert _mismatches(values) == []


def test_every_power_of_two():
    assert _mismatches(_signed(np.ldexp(1.0, np.arange(-1074, 1024)))) == []


def test_every_power_of_ten_and_its_neighbours():
    tens = np.array([float(f"1e{n}") for n in range(-323, 309)])
    assert _mismatches(_signed(_with_neighbours(tens))) == []


def test_subnormals():
    bits = np.random.default_rng(7).integers(1, 1 << 52, size=1 << 16, dtype=np.uint64)
    edges = np.array([1, 2, 3, 9, 10, 99, 100, (1 << 52) - 1], dtype=np.uint64)
    values = np.concatenate([bits, edges]).view(np.float64)
    assert (values < 2.2250738585072014e-308).all()
    assert _mismatches(_signed(values)) == []


def test_the_switches_to_exponent_form_and_their_neighbours():
    values = _with_neighbours([1e-4, 1e16, 1e-5, 1e15, 9.999999999999999e-05,
                               9999999999999998.0])
    got = _mismatches(_signed(values))
    assert got == []
    assert _lines([1e-4, 1e16, -1e-5]) == [b"0.0001", b"1e+16", b"-1e-05"]


def test_signed_zero():
    assert _lines([0.0, -0.0]) == [b"0.0", b"-0.0"]


def test_integers_and_scaled_normals():
    integers = np.arange(-1000, 300001, dtype=float)
    rng = np.random.default_rng(11)
    scaled = rng.standard_normal(1 << 17) * 10.0 ** rng.uniform(-8, 20, 1 << 17)
    assert _mismatches(np.concatenate([integers, scaled])) == []


def test_longest_text_fills_the_width():
    # the longest text of a double is 24 bytes, a line 25 with its separator
    assert _lines([-1.2345678901234567e-308, -0.00012345678901234567]) == [
        b"-1.2345678901234567e-308", b"-0.00012345678901234567"]
    assert csv_lines(np.full((2, 2), -1.2345678901234567e-308)) == (
        b"-1.2345678901234567e-308,-1.2345678901234567e-308\n" * 2)


def test_shape_is_kept():
    # a row is a line, a column a comma-separated cell
    values = np.arange(6.0).reshape(2, 3) / 4
    assert csv_lines(values) == b"0.0,0.25,0.5\n0.75,1.0,1.25\n"
    assert csv_lines(values.T) == b"0.0,0.75\n0.25,1.0\n0.5,1.25\n"
    assert csv_lines(np.empty((0, 3))) == b""


#: cells of every layout: zero, negative, subnormal and exponent-form values
EDGE_CELLS = [0.0, -0.0, -1.5, 5e-324, -2.2250738585072014e-308, 1e16, -1e-05,
              -1.2345678901234567e-308, 0.0001, 123456789012345.6]


def test_non_finite_values_give_bytes_not_an_error():
    # run() writes no side file with a NaN or infinity, but the kernel's
    # table lookups must still stay in range for their bit patterns
    lines = csv_lines(np.array([[np.inf, -np.inf, np.nan, -np.nan]]))
    assert lines.endswith(b"\n") and lines.count(b",") == 3


def test_python_calls_do_not_depend_on_the_values():
    # a fixed sequence of array operations: no loop over the values' forms,
    # and the exponent suffix and trailing-zero count run for every cell
    edges = np.resize(np.array(EDGE_CELLS), (1024, 3))
    edges[:, 2] = edges[::-1, 0]
    blocks = [np.zeros((1024, 3)),
              np.random.default_rng(3).standard_normal((1024, 3)),
              np.random.default_rng(4).integers(0, 1 << 62, (1024, 3),
                                                dtype=np.uint64).view(float),
              edges]
    assert csv_lines(edges).decode().splitlines() == [
        ",".join(map(repr, row)) for row in edges.tolist()]
    csv_lines(blocks[0])
    counts = []
    for block in blocks:
        frames = []
        sys.setprofile(lambda frame, event, arg: frames.append(event))
        try:
            csv_lines(block)
        finally:
            sys.setprofile(None)
        counts.append(frames.count("call"))
    assert counts == [counts[0]] * len(blocks)


def test_the_kernel_is_loaded_and_built_on_first_use():
    # importing the CLI loads no kernel, and importing the kernel builds no table
    script = ("import sys, specdde.cli; print('specdde._repr' in sys.modules); "
              "import specdde._repr as r; print(r._tables.cache_info().currsize)")
    src = str(Path(specdde.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, check=True, env=dict(os.environ, PYTHONPATH=src))
    assert result.stdout.split() == ["False", "0"]
