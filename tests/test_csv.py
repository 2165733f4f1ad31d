"""The dataset CSV reader and the CSV writers (the dataset, labels and
posterior files, and the benchmark's metrics and aggregate tables) against
their row-wise references.

`read_dataset_csv` parses feature cells with numpy's C parser; the reference
in helpers.py parses them with Python's `float()`. On every file both accept
they must return bitwise-equal arrays, and on a malformed file the same
message for the same line. The writers format a block of rows at a time;
the references in helpers.py write row by row through `csv.writer`, and
both must write the same bytes.
"""
import math
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cpsm import bench, data
from cpsm.data import read_dataset_csv, write_dataset_csv, write_labels_csv, write_posterior_csv
from cpsm.errors import ValidationError
from helpers import (
    row_wise_read_dataset_csv,
    row_wise_write_dataset_csv,
    row_wise_write_labels_csv,
    row_wise_write_posterior_csv,
    row_wise_write_table,
)

# Signed zero, the smallest subnormal, the smallest normal, near the largest
# double, and values whose shortest repr switches notation.
_EDGE_VALUES = [-0.0, 5e-324, 2.2250738585072014e-308, 1e308, 1e-05, 1e16]


def _assert_same(result, expected):
    for got, want in zip(result[:2], expected[:2]):
        assert got.shape == want.shape
        assert got.flags.c_contiguous
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    if expected[2] is None:
        assert result[2] is None
    else:
        assert result[2].dtype == expected[2].dtype
        assert np.array_equal(result[2], expected[2])


@pytest.mark.parametrize("labeled", [True, False])
def test_round_trip_keeps_every_bit(tmp_path, labeled):
    values = np.array(_EDGE_VALUES + [-v for v in _EDGE_VALUES] + [0.1, 1 / 3, np.pi])
    rng = np.random.default_rng(0)
    z = rng.permutation(values).reshape(-1, 3)
    x = np.vstack([rng.permutation(values) for _ in range(3)]).reshape(z.shape[0], -1)
    y = np.arange(z.shape[0]) % 3 + 1 if labeled else None
    path = tmp_path / "edge.csv"
    write_dataset_csv(path, z, x, y)
    result = read_dataset_csv(path)
    _assert_same(result, row_wise_read_dataset_csv(path))
    _assert_same(result, (z, x, y))


@pytest.mark.parametrize(
    "text",
    [
        "y,z1,x1,x2\r\n1,0.5,-1.25,3\r\n2,1e-3,0.1,-0.0\r\n",
        "y,z1,x1,x2\n1,0.5,-1.25,3\n2,1e-3,0.1,-0.0",
        'y,z1,x1,x2\n"1","0.5",-1.25,"3"\n2,"1e-3","0.1","-0.0"\n',
        "y,z1,x1,x2\n 1 , 0.5,-1.25 ,\t3\n2,1e-3  ,  0.1,-0.0\t\n",
        'y,z1,x1,x2\r\n"1", 0.5,"-1.25 " ,3\r\n2,1e-3,0.1,-0.0',
        "y,z1,x1\n,.5,5.\n,+.5e-3,-7E+2\n",
        "y,z1\n1,2\n",
        "y,x1\n,2\n",
        "y,z1\n9007199254740993,0.5\n9223372036854775807,1\n",
    ],
    ids=["crlf", "no-final-newline", "double-quoted", "spaces", "all-at-once",
         "number-spellings", "no-x", "no-z", "labels-past-2-to-the-53"],
)
def test_dialect_matches_the_reference(tmp_path, text):
    path = tmp_path / "dialect.csv"
    path.write_bytes(text.encode())
    _assert_same(read_dataset_csv(path), row_wise_read_dataset_csv(path))


# Cells Python's float() (and so the old row-wise reader) took that numpy's
# parser rejects, and a quoted cell that the csv module continued onto the
# next line: each is now rejected at its line.
@pytest.mark.parametrize(
    "row, fault",
    [
        ("1,1_0,0.5,1.0\n", "non-numeric feature value"),
        ("1,١,0.5,1.0\n", "non-numeric feature value"),
        ("1,１,0.5,1.0\n", "non-numeric feature value"),
        ('1,0.0,0.5,"1.0\n"\n', "quoted cell runs past the end of the line"),
        ('1,0.0,"0.5\n",1.0\n', "quoted cell runs past the end of the line"),
    ],
    ids=["underscore-digits", "arabic-indic-digit", "fullwidth-digit", "quoted-newline",
         "quoted-newline-mid-row"],
)
def test_python_only_spellings_are_rejected(tmp_path, row, fault):
    path = tmp_path / "spelling.csv"
    path.write_text("y,z1,x1,x2\n2,1.0,-0.5,0.0\n" + row + "2,1.0,-0.5,0.0\n", encoding="utf-8")
    assert row_wise_read_dataset_csv(path)[0].shape == (3, 1)
    with pytest.raises(ValidationError) as caught:
        read_dataset_csv(path)
    assert str(caught.value) == f"{path}: line 3: {fault}"


_ROWS = 60_000
_DEEP = 50_001


def _deep_faults():
    """Each fault of the short-file cases on a line deep in a long file, and
    on the last line of a parsing block, the first line of the next and the
    last line of the file: (line, labeled file, faulty row, message)."""
    faults = [
        ("non-numeric", True, "2,1.0,abc,0.0\n", "non-numeric feature value"),
        ("nan", True, "2,1.0,nan,0.0\n", "non-finite feature value"),
        # Python 3.10's csv module rejects a NUL character.
        ("nul", True, "2,1.0,\0,0.0\n", "non-numeric feature value"),
        # numpy reads a quote left open on a block's last line as closed.
        ("open-quote", True, '2,1.0,-0.5,"0.0\n', "quoted cell runs past the end of the line"),
        ("bad-label", True, "x,1.0,-0.5,0.0\n", "field 'y': bad label 'x'"),
        ("short-row", True, "2,1.0,-0.5\n", "expected 4 fields, got 3"),
        ("blank-line", True, "\n", "expected 4 fields, got 0"),
        ("unlabeled-in-labeled", True, ",1.0,-0.5,0.0\n", "mixed labeled and unlabeled rows"),
        ("labeled-in-unlabeled", False, "2,1.0,-0.5,0.0\n", "mixed labeled and unlabeled rows"),
    ]
    lines = {"deep": _DEEP, "block-end": data._BLOCK_LINES + 1,
             "block-start": data._BLOCK_LINES + 2, "last": _ROWS + 1}
    return [
        pytest.param(line, labeled, row, message, id=f"{name}-{where}")
        for name, labeled, row, message in faults
        for where, line in lines.items()
    ]


@pytest.mark.parametrize("line, labeled, bad_row, message", _deep_faults())
def test_a_fault_deep_in_a_long_file_names_its_line(tmp_path, line, labeled, bad_row, message):
    rows = ["1,0.0,0.5,1.0\n" if labeled else ",0.0,0.5,1.0\n"] * _ROWS
    rows[line - 2] = bad_row
    path = tmp_path / "long.csv"
    path.write_text("y,z1,x1,x2\n" + "".join(rows), encoding="utf-8")
    with pytest.raises(ValidationError) as caught:
        read_dataset_csv(path)
    assert str(caught.value).startswith(f"{path}: line {line}: {message}")


def test_a_label_too_large_for_an_int_is_a_bad_label(tmp_path):
    # So are the spellings Python's int() takes and strtod does not; a sign
    # and padding are still a label.
    path = tmp_path / "big.csv"
    for cell in ["99999999999999999999", "1_0", "١"]:
        path.write_text(f"y,z1,x1\n1,0.5,1\n{cell},0.5,1\n", encoding="utf-8")
        with pytest.raises(ValidationError) as caught:
            read_dataset_csv(path)
        assert str(caught.value) == f"{path}: line 3: field 'y': bad label {cell!r}"
    path.write_text("y,z1,x1\n+1,0.5,1\n 2 ,0.5,1\n", encoding="utf-8")
    assert read_dataset_csv(path)[2].tolist() == [1, 2]


def test_the_first_of_two_faults_in_one_block_is_reported(tmp_path):
    # The bad feature cell comes before the short row, which is found first
    # because its line is checked before the cells of its block are parsed.
    rows = ["1,0.0,0.5,1.0\n"] * 100
    rows[10] = "1,0.0,abc,1.0\n"
    rows[20] = "1,0.0\n"
    path = tmp_path / "two.csv"
    path.write_text("y,z1,x1,x2\n" + "".join(rows), encoding="utf-8")
    with pytest.raises(ValidationError, match="line 12: non-numeric feature value"):
        read_dataset_csv(path)


# Files the reference and the reader must agree on: random values with
# random spellings, quoting, spacing and line ends, and now and then a fault.
_LABELS = st.sampled_from(["1", "2", "3", " 2", "0", "-1", "x", "1.0", "1_0", "١"])
_SPELLINGS = ["nan", "-inf", "1e400", "abc", "", "1e", ".5", "5.", "+.5e-3", "-0.0", "5e-324", "1,5"]
_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(str),
    st.integers(-10**20, 10**20).map(str),
)


@st.composite
def _dataset_text(draw):
    d_z = draw(st.integers(0, 2))
    d_x = draw(st.integers(0, 2))
    header = ["y"] + [f"z{i}" for i in range(1, d_z + 1)] + [f"x{i}" for i in range(1, d_x + 1)]
    labeled = draw(st.booleans())
    faulty = draw(st.integers(0, 9)) == 0
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(1, 6))):
        label = draw(_LABELS) if labeled else ""
        if faulty and draw(st.integers(0, 5)) == 0:
            label = draw(st.sampled_from(["", "1", "x"]))
        cells = [label] + [
            draw(st.one_of(_NUMBER, st.sampled_from(_SPELLINGS)) if faulty else _NUMBER)
            for _ in range(d_z + d_x)
        ]
        if faulty and draw(st.integers(0, 5)) == 0:
            cells = cells[:-1] if draw(st.booleans()) else cells + ["1"]
        if draw(st.booleans()):
            cells = [f'"{c}"' if draw(st.booleans()) else c for c in cells]
        if draw(st.booleans()):
            cells = [f" {c}\t" if draw(st.booleans()) else c for c in cells]
        lines.append(",".join(cells))
    if faulty and draw(st.booleans()):
        lines.insert(draw(st.integers(1, len(lines))), "")
    return end.join(lines) + draw(st.sampled_from(["", end]))


def _outcome(read, path):
    try:
        return read(path)
    except (ValueError, ValidationError) as exc:
        return str(exc).removeprefix(f"{path}: ")


@settings(max_examples=300, deadline=None)
@given(text=_dataset_text())
@example(text="y\n\n")  # a block of blank lines, on which numpy warns
@example(text="y,z1\n1,0.5,2\n2,0.5,3\n")  # one field too many on every line
def test_random_files_read_as_the_reference_reads_them(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("random") / "random.csv"
    path.write_bytes(text.encode())
    expected = _outcome(row_wise_read_dataset_csv, path)
    result = _outcome(read_dataset_csv, path)
    if isinstance(expected, str):
        assert result == expected
    else:
        _assert_same(result, expected)


# Every value whose repr is special: NaN, the infinities, signed zero, the
# smallest subnormal, the switches to exponent notation and the largest double.
_WRITE_VALUES = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 1e-05, 1.7976931348623157e308]
_B = data._BLOCK_ROWS
_WRITE_ROWS = [0, 1, _B - 1, _B, _B + 1]


def _matrix(rng, n, d):
    """n x d normal draws with about a third of the cells an edge value."""
    m = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-8, 9, (n, d))
    edge = rng.random((n, d)) < 0.3
    m[edge] = rng.choice(_WRITE_VALUES, size=int(edge.sum()))
    return m


def _same_bytes(tmp_path, write, reference, *args):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write(got, *args)
    reference(want, *args)
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("n", _WRITE_ROWS)
@pytest.mark.parametrize("d_z, d_x", [(0, 0), (0, 1), (2, 3), (5, 10)])
@pytest.mark.parametrize("labels", [None, "int", "float"])
def test_dataset_and_labels_writers_write_the_reference_bytes(tmp_path, n, d_z, d_x, labels):
    rng = np.random.default_rng(n * 100 + d_z * 10 + d_x)
    z, x = _matrix(rng, n, d_z), _matrix(rng, n, d_x)
    y = None if labels is None else rng.integers(1, 2**62, n).astype(labels)
    _same_bytes(tmp_path, write_dataset_csv, row_wise_write_dataset_csv, z, x, y)
    if y is not None:
        _same_bytes(tmp_path, write_labels_csv, row_wise_write_labels_csv, y)


@pytest.mark.parametrize("n", _WRITE_ROWS)
@pytest.mark.parametrize("k", [1, 2, 4])
def test_posterior_writer_writes_the_reference_bytes(tmp_path, n, k):
    rng = np.random.default_rng(n * 10 + k)
    posterior = rng.dirichlet(np.ones(k), n)
    posterior[rng.random((n, k)) < 0.1] = rng.choice(_WRITE_VALUES)
    _same_bytes(tmp_path, write_posterior_csv, row_wise_write_posterior_csv, posterior)


@pytest.mark.parametrize("n", _WRITE_ROWS)
def test_benchmark_tables_write_the_reference_bytes(tmp_path, n):
    # 2n runs over 16 cells. Every run of the first cell fails, so that it is
    # written with `runs` 0 and NaN statistics; a run of another fails with
    # probability 0.3.
    rng = np.random.default_rng(n)
    cells = [(m, a, k) for m in bench.METHODS for a in (0.05, 0.5) for k in (0.0, 5.0)]
    rows = []
    for seed in range(2 * n):
        method, a, k = cells[seed % len(cells)]
        scores = [np.float64(rng.random()), rng.random(), rng.choice(_WRITE_VALUES)]
        if seed % len(cells) == 0 or rng.random() < 0.3:
            scores = [np.nan] * 3
        rows.append(bench.MetricRow(method, a, k, 2000, seed, *scores))
    _same_bytes(tmp_path, bench.write_metrics_csv,
                lambda path, rows: row_wise_write_table(path, bench.METRICS_HEADER,
                                                        map(astuple, rows)), rows)
    _same_bytes(tmp_path, bench.write_aggregate_csv,
                lambda path, rows: row_wise_write_table(path, bench.AGGREGATE_HEADER,
                                                        bench.aggregate_rows(rows)), rows)


_FLOAT_MATRICES = hnp.arrays(
    np.float64, st.tuples(st.integers(0, _B + 1), st.integers(0, 6)), elements=st.floats()
)


@settings(max_examples=100, deadline=None)
@given(zx=_FLOAT_MATRICES, split=st.integers(0, 3), labeled=st.booleans())
def test_random_matrices_are_written_as_the_reference_writes_them(tmp_path_factory, zx, split,
                                                                    labeled):
    tmp_path = tmp_path_factory.mktemp("write")
    split = min(split, zx.shape[1])
    y = np.arange(1, zx.shape[0] + 1) if labeled else None
    _same_bytes(tmp_path, write_dataset_csv, row_wise_write_dataset_csv,
                zx[:, :split], zx[:, split:], y)
    _same_bytes(tmp_path, write_posterior_csv, row_wise_write_posterior_csv, zx)


def test_writing_a_long_file_holds_a_few_blocks_of_cells(tmp_path):
    # Formatting all 50,000 rows of 15 floats at once peaks at 53 MB; the
    # writer's blocks of 256 rows peak at 0.28 MB (numpy 2.4.6).
    rng = np.random.default_rng(0)
    z, x, y = rng.standard_normal((50_000, 5)), rng.standard_normal((50_000, 10)), np.ones(50_000)
    tracemalloc.start()
    try:
        write_dataset_csv(tmp_path / "long.csv", z, x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


# Arrays the writers refuse, and the message, raised before the file is
# opened: rows of z, x and y that would not line up, feature or posterior
# cells that are no numbers, or labels that "%d" would truncate (1.7 written
# as 1) or that the reader refuses (False as 0).
_Z = np.zeros((300, 2))
_UNWRITABLE = {
    "x-more-rows": (
        lambda path: write_dataset_csv(path, np.zeros((256, 2)), np.zeros((300, 3)), None),
        "x shape (300, 3) != (256, 3)",
    ),
    "y-fewer-rows": (
        lambda path: write_dataset_csv(path, _Z, _Z, np.ones(256, dtype=int)),
        "y shape (256,) != (300,)",
    ),
    "x-fewer-rows": (
        lambda path: write_dataset_csv(path, _Z, np.zeros((299, 1)), None),
        "x shape (299, 1) != (300, 1)",
    ),
    "z-1-D": (
        lambda path: write_dataset_csv(path, np.zeros(300), _Z, None),
        "z must be a 2-D matrix, got ndim=1",
    ),
    "y-2-D": (
        lambda path: write_dataset_csv(path, _Z, _Z, np.ones((300, 1), dtype=int)),
        "y must be a 1-D vector, got ndim=2",
    ),
    "y-empty": (
        lambda path: write_dataset_csv(path, _Z, _Z, np.ones(0, dtype=int)),
        "y shape (0,) != (300,)",
    ),
    "z-numeric-string": (
        lambda path: write_dataset_csv(path, [["1.5"]], [[0.0]], None),
        "z must be a matrix of numbers",
    ),
    "z-string": (
        lambda path: write_dataset_csv(path, [["a"]], [[0.0]], None),
        "z must be a matrix of numbers",
    ),
    "z-ragged": (
        lambda path: write_dataset_csv(path, [[0.0], [0.0, 1.0]], np.zeros((2, 1)), None),
        "z must be a matrix of numbers",
    ),
    "z-overflow": (
        lambda path: write_dataset_csv(path, [[10**400]], [[0.0]], None),
        "z must be a matrix of numbers",
    ),
    "posterior-1-D": (
        lambda path: write_posterior_csv(path, np.full(3, 0.5)),
        "posterior must be a 2-D matrix, got ndim=1",
    ),
    "posterior-strings": (
        lambda path: write_posterior_csv(path, np.array([["a", "b"]])),
        "posterior must be a matrix of numbers",
    ),
    "dataset-fraction": (
        lambda path: write_dataset_csv(path, _Z[:2], _Z[:2], [1.5, 2.0]), "y must be integers"
    ),
    "dataset-bool": (
        lambda path: write_dataset_csv(path, _Z[:2], _Z[:2], [True, False]), "y must be integers"
    ),
    "labels-fraction": (lambda path: write_labels_csv(path, [1.7, 2.2]), "y must be integers"),
    "labels-bool": (lambda path: write_labels_csv(path, [True, False]), "y must be integers"),
    "labels-empty-2-D": (
        lambda path: write_labels_csv(path, [[]]), "y must be a 1-D vector, got ndim=2"
    ),
    "labels-zero": (
        lambda path: write_labels_csv(path, [1, 0]), "y must be 1-based positive integers"
    ),
}


@pytest.mark.parametrize("case", _UNWRITABLE)
def test_the_writers_refuse_what_they_cannot_write_whole(tmp_path, case):
    write, message = _UNWRITABLE[case]
    with pytest.raises(ValidationError) as caught:
        write(tmp_path / "out.csv")
    assert str(caught.value) == message
    assert not (tmp_path / "out.csv").exists()


def test_a_nested_list_posterior_writes_the_bytes_of_its_array(tmp_path):
    rows = [[0.25, 0.75], [1.0, 0.0], [math.nan, math.inf]]
    _same_bytes(tmp_path, write_posterior_csv,
                lambda path, rows: write_posterior_csv(path, np.array(rows)), rows)


def test_a_boolean_posterior_is_written_as_the_float_reader_converts_it(tmp_path):
    write_posterior_csv(tmp_path / "out.csv", np.array([[True, False], [False, True]]))
    assert (tmp_path / "out.csv").read_text() == "p1,p2\n1.0,0.0\n0.0,1.0\n"
