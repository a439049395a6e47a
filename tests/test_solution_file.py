"""``solution.npy`` holds the solution's samples exactly: ``cli._write_npy``
stores each float64 cell's bits, whatever the value, as one little-endian
field per column of a NumPy format 1.0 file."""

import json
import sys

import numpy as np
import pytest

from specdde import cli
from specdde.config import parse_config
from specdde.solver import solve_periodic

from test_cli import TINY


def _written(tmp_path, table, header=None):
    """The file ``_write_npy`` makes of ``table`` and the table it loads."""
    table = np.asarray(table, dtype=float)
    if table.ndim == 1:
        table = table.reshape(-1, 1)
    header = header or [f"c{i}" for i in range(table.shape[1])]
    path = tmp_path / "table.npy"
    cli._write_npy(path, header, table)
    records = np.load(path, allow_pickle=False)
    assert records.dtype == np.dtype([(name, "<f8") for name in header])
    return path, records.view("<f8").reshape(len(records), len(header))


def _mismatches(tmp_path, values):
    """The values whose loaded bits differ from those written."""
    values = np.asarray(values, dtype=float).ravel()
    _, loaded = _written(tmp_path, values)
    bad = loaded[:, 0].view(np.uint64) != values.view(np.uint64)
    return values[bad].tolist()


def _with_neighbours(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([np.nextafter(values, -np.inf), values,
                           np.nextafter(values, np.inf)])


def _signed(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, -values])


def test_random_bit_patterns(tmp_path):
    # every bit pattern, NaN payloads included, is stored as it is
    bits = np.random.default_rng(20171001).integers(0, 1 << 64, size=1 << 20,
                                                    dtype=np.uint64)
    _, loaded = _written(tmp_path, bits.view(np.float64))
    np.testing.assert_array_equal(loaded[:, 0].view(np.uint64), bits)


def test_every_power_of_two(tmp_path):
    assert _mismatches(tmp_path, _signed(np.ldexp(1.0, np.arange(-1074, 1024)))) == []


def test_every_power_of_ten_and_its_neighbours(tmp_path):
    tens = np.array([float(f"1e{n}") for n in range(-323, 309)])
    assert _mismatches(tmp_path, _signed(_with_neighbours(tens))) == []


def test_subnormals(tmp_path):
    bits = np.random.default_rng(7).integers(1, 1 << 52, size=1 << 16, dtype=np.uint64)
    edges = np.array([1, 2, 3, 9, 10, 99, 100, (1 << 52) - 1], dtype=np.uint64)
    values = np.concatenate([bits, edges]).view(np.float64)
    assert (values < 2.2250738585072014e-308).all()
    assert _mismatches(tmp_path, _signed(values)) == []


def test_integers_and_scaled_normals(tmp_path):
    integers = np.arange(-1000, 300001, dtype=float)
    rng = np.random.default_rng(11)
    scaled = rng.standard_normal(1 << 17) * 10.0 ** rng.uniform(-8, 20, 1 << 17)
    assert _mismatches(tmp_path, np.concatenate([integers, scaled])) == []


def test_signed_zero(tmp_path):
    _, loaded = _written(tmp_path, [0.0, -0.0])
    assert np.signbit(loaded[:, 0]).tolist() == [False, True]


def test_non_finite_values_are_stored_as_their_bits(tmp_path):
    # run() writes no side file with a NaN or infinity, but the writer
    # itself neither refuses nor alters them
    values = np.array([np.inf, -np.inf, np.nan, -np.nan])
    _, loaded = _written(tmp_path, values.reshape(1, 4))
    np.testing.assert_array_equal(loaded.view(np.uint64), values.view(np.uint64).reshape(1, 4))


def test_shape_is_kept(tmp_path):
    # a row is a record, a column a field, in either memory order
    values = np.arange(6.0).reshape(2, 3) / 4
    assert _written(tmp_path, values)[1].tolist() == values.tolist()
    assert _written(tmp_path, values.T)[1].tolist() == values.T.tolist()
    assert _written(tmp_path, np.asfortranarray(values))[1].tolist() == values.tolist()
    assert _written(tmp_path, np.empty((0, 3)))[1].shape == (0, 3)


def test_file_is_the_format_1_0_header_then_the_rows_as_bytes(tmp_path):
    table = np.random.default_rng(5).standard_normal((100, 3))
    path, _ = _written(tmp_path, table, ["t", "u0", "u1"])
    with open(path, "rb") as fh:
        assert np.lib.format.read_magic(fh) == (1, 0)
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
        start = fh.tell()
    assert (shape, fortran_order) == ((100,), False)
    assert dtype.names == ("t", "u0", "u1") and dtype.itemsize == 24
    # the header is padded to a multiple of 64 bytes, so the rows are aligned
    assert start % 64 == 0
    assert path.read_bytes()[start:] == table.astype("<f8").tobytes()


def test_a_c_contiguous_table_is_saved_as_a_view_not_a_copy(tmp_path, monkeypatch):
    saved = []
    save = np.save
    monkeypatch.setattr(np, "save", lambda path, array, **kw: (saved.append(array),
                                                               save(path, array, **kw)))
    table = np.random.default_rng(6).standard_normal((64, 5))
    cli._write_npy(tmp_path / "table.npy", [f"c{i}" for i in range(5)], table)
    [array] = saved
    assert array.shape == (64,) and np.shares_memory(array, table)


def test_python_calls_do_not_depend_on_the_values(tmp_path):
    # one view and one np.save, whatever the values: no loop over them
    blocks = [np.zeros((1024, 3)),
              np.random.default_rng(3).standard_normal((1024, 3)),
              np.random.default_rng(4).integers(0, 1 << 62, (1024, 3),
                                                dtype=np.uint64).view(float),
              np.resize(np.array([0.0, -0.0, 5e-324, 1e16, -1e-05]), (1024, 3))]
    header = ["c0", "c1", "c2"]
    cli._write_npy(tmp_path / "table.npy", header, blocks[0])
    counts = []
    for block in blocks:
        events = []
        sys.setprofile(lambda frame, event, arg: events.append(event))
        try:
            cli._write_npy(tmp_path / "table.npy", header, block)
        finally:
            sys.setprofile(None)
        counts.append(events.count("call"))
    assert counts == [counts[0]] * len(blocks)


def test_the_file_reads_back_memory_mapped(tmp_path):
    table = np.random.default_rng(8).standard_normal((256, 4))
    path, loaded = _written(tmp_path, table)
    mapped = np.load(path, mmap_mode="r", allow_pickle=False)
    assert mapped.dtype == np.load(path, allow_pickle=False).dtype
    np.testing.assert_array_equal(mapped.view("<f8").reshape(256, 4), loaded)


@pytest.mark.parametrize("grid", [17, 32, 33, 16384])
def test_solve_writes_one_record_per_grid_node(tmp_path, grid):
    # odd and even grids, and the bench's size, hold every sample
    config = parse_config(json.dumps(dict(TINY, N=grid)))
    assert cli.run("solve", config, tmp_path) == 0
    records = np.load(tmp_path / "solution.npy", allow_pickle=False)
    solution = solve_periodic(config.problem).solution
    assert records.dtype.names == ("t", "u0", "u1") and len(records) == grid
    np.testing.assert_array_equal(records["t"].view(np.uint64),
                                  solution.nodes.view(np.uint64))
    for i in range(2):
        np.testing.assert_array_equal(records[f"u{i}"].view(np.uint64),
                                      solution.samples[:, i].view(np.uint64))
