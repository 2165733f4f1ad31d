"""The dataset CSV reader against the row-wise reference reader.

`read_dataset_csv` parses feature cells with numpy's C parser; the reference
in helpers.py parses them with Python's `float()`. On every file both accept
they must return bitwise-equal arrays, and on a malformed file the same
message for the same line.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpsm import data
from cpsm.data import read_dataset_csv, write_dataset_csv
from cpsm.errors import ValidationError
from helpers import row_wise_read_dataset_csv

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
    ],
    ids=["crlf", "no-final-newline", "double-quoted", "spaces", "all-at-once",
         "number-spellings", "no-x", "no-z"],
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
    ],
    ids=["underscore-digits", "arabic-indic-digit", "fullwidth-digit", "quoted-newline"],
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
def test_random_files_read_as_the_reference_reads_them(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("random") / "random.csv"
    path.write_bytes(text.encode())
    expected = _outcome(row_wise_read_dataset_csv, path)
    result = _outcome(read_dataset_csv, path)
    if isinstance(expected, str):
        assert result == expected
    else:
        _assert_same(result, expected)
