"""Dataset containers, the CSV on-disk format, and the reader of the JSON
documents (configs and fit files).

Features are split into a conditioning block ``z`` (the columns that drive
the shift of the label distribution) and the remaining block ``x``. The
stacked feature matrix used by full-feature models is always ``[z | x]``,
matching the CSV column order ``y,z1..,x1..``.
"""
from __future__ import annotations

import contextlib
import csv
import itertools
import json
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_choice


def _check_shape(out: np.ndarray, name: str, shape: tuple) -> np.ndarray:
    """`out`, if it has `shape`: the tuple's length is the rank, and a None in
    it allows any size on that axis. A wrong rank raises ValidationError as
    "{name} must be a 2-D matrix, got ndim=1" and a wrong size as
    "{name} shape {got} != {want}": nothing is reshaped."""
    if out.ndim != len(shape):
        noun = "vector" if len(shape) == 1 else "matrix"
        raise ValidationError(f"{name} must be a {len(shape)}-D {noun}, got ndim={out.ndim}")
    want = tuple(got if size is None else size for got, size in zip(out.shape, shape))
    if out.shape != want:
        raise ValidationError(f"{name} shape {out.shape} != {want}")
    return out


def _as_floats(arr, name: str, shape: tuple = (None, None)) -> np.ndarray:
    """`arr` as a float array of `shape`, read by the number rule and
    `_check_shape`, uncopied if it is one; its cells may be NaN or infinite.
    A string, even a numeric one such as "1.5", ragged rows or 10**400
    raises ValidationError; a bool reads as 1.0 or 0.0."""
    try:
        out = np.asarray(arr)
        if out.dtype.kind in "OSU" and any(isinstance(v, (str, bytes)) for v in out.flat):
            raise TypeError  # numpy would parse "1.5"; the number rule does not
        out = out.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):  # strings, ragged rows, 10**400
        noun = "vector" if len(shape) == 1 else "matrix"
        raise ValidationError(f"{name} must be a {noun} of numbers") from None
    return _check_shape(out, name, shape)


def as_float_matrix(arr, name: str, shape: tuple = (None, None)) -> np.ndarray:
    """`arr` as a float array of `shape` with finite entries, uncopied if it
    is one: the rule of every public numeric input. It is `_as_floats` plus
    the finite test. The tuple's length is the rank, and a None in it allows
    any size on that axis. A string, even a numeric one such as "1.5",
    ragged rows, 10**400, a wrong rank, a wrong size (as
    "{name} shape {got} != {want}"), NaN or inf raises ValidationError:
    nothing is reshaped."""
    out = _as_floats(arr, name, shape)
    if out.size and not np.all(np.isfinite(out)):
        raise ValidationError(f"{name} contains non-finite values")
    return out


# The largest label the int label vector holds.
_MAX_LABEL = int(np.iinfo(int).max)


def _as_label_vector(arr, name: str = "labels", shape: tuple = (None,)) -> np.ndarray:
    """`arr` as an int vector of labels >= 1 at `shape`, read by
    `_check_shape`, uncopied if it is one, or ValidationError naming `name`."""
    try:
        y = np.asarray(arr)
    except ValueError:  # ragged rows
        raise ValidationError(f"{name} must be integers") from None
    _check_shape(y, name, shape)
    if y.size == 0:
        raise ValidationError(f"{name} are empty")
    if y.dtype.kind == "f":
        # NaN, inf and floats past the int range fail one of these tests.
        y = y.astype(float, copy=False)
        whole = np.all((y == np.floor(y)) & (np.abs(y) < _MAX_LABEL))
    else:
        whole = y.dtype.kind in "iu"  # not booleans, strings, None or other objects
    if not whole:
        raise ValidationError(f"{name} must be integers")
    yi = y.astype(int, copy=False)
    if yi.min() < 1:
        raise ValidationError(f"{name} must be 1-based positive integers")
    return yi


@dataclass
class UnlabeledDataset:
    """Feature blocks without labels (the deployment-side view)."""

    z: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        self.z = as_float_matrix(self.z, "z")
        self.x = as_float_matrix(self.x, "x", shape=(self.z.shape[0], None))

    @property
    def n_rows(self) -> int:
        return self.z.shape[0]

    @property
    def d_z(self) -> int:
        return self.z.shape[1]

    @property
    def d_x(self) -> int:
        return self.x.shape[1]

    def features(self, block: str = "zx") -> np.ndarray:
        """Select a feature block: "z" or the stacked "zx"."""
        check_choice("feature block", block, ("z", "zx"))
        return self.z if block == "z" else np.hstack([self.z, self.x])


@dataclass
class LabeledDataset(UnlabeledDataset):
    """Feature blocks plus integer labels in {1..K}."""

    y: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        self.y = _as_label_vector(self.y, shape=(self.n_rows,))

    @property
    def n_classes(self) -> int:
        return int(self.y.max())

    def class_prior(self) -> np.ndarray:
        """Empirical frequencies of the labels 1..K."""
        counts = np.bincount(self.y, minlength=self.n_classes + 1)[1:]
        return counts / counts.sum()

    def unlabeled(self) -> UnlabeledDataset:
        """The same rows with labels dropped."""
        return UnlabeledDataset(z=self.z, x=self.x)


# Rows formatted at a time, so that the cells held as Python objects stay few.
_BLOCK_ROWS = 256


def _write_blocks(path, header: list[str], line: str, *columns: np.ndarray) -> None:
    """Write `header`, then each row of the 2-D `columns` side by side by the format `line`."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, columns[0].shape[0], _BLOCK_ROWS):
            # As objects, numbers are Python ints and floats, whose %r is repr.
            block = [c[start : start + _BLOCK_ROWS] for c in columns]
            cells = np.concatenate(block, axis=1, dtype=object)
            fh.write((line + "\n") * len(cells) % tuple(cells.ravel()))


def _label_column(y, rows: int | None = None) -> np.ndarray:
    """`y` as an (n, 1) column of `rows` rows (None: any count), read by
    `_as_label_vector`, or by `_check_shape` alone when it is empty."""
    y = np.asarray(y)
    read = _as_label_vector if y.size else _check_shape
    return read(y, "y", (rows,)).reshape(-1, 1)


def write_dataset_csv(path, z: np.ndarray, x: np.ndarray, y: np.ndarray | None) -> None:
    """Write rows as ``y,z1..,x1..``; y cells are left empty when y is None.

    z and x are read by `_as_floats`, x at z's row count, so a cell may be
    NaN or infinite but not a string such as "1.5"; y, when given, is read
    as `LabeledDataset` reads its labels, at z's row count. A fault raises
    ValidationError naming the array, as in "x shape (300, 3) != (256, 3)",
    before the file is opened. A file may have no rows."""
    z = _as_floats(z, "z")
    x = _as_floats(x, "x", shape=(z.shape[0], None))
    d_z, d_x = z.shape[1], x.shape[1]
    header = ["y"] + [f"z{i}" for i in range(1, d_z + 1)] + [f"x{i}" for i in range(1, d_x + 1)]
    labels = [] if y is None else [_label_column(y, z.shape[0])]
    # csv quotes one cell here: a row of a lone empty cell is `""`.
    line = ",".join(["" if y is None else "%d"] + ["%r"] * (d_z + d_x)) or '""'
    _write_blocks(path, header, line, *labels, z, x)


def write_labels_csv(path, y: np.ndarray) -> None:
    """Write labels as the lone column ``y``; they are read as
    `LabeledDataset` reads them, so a fraction or a bool raises
    ValidationError before the file is opened."""
    _write_blocks(path, ["y"], "%d", _label_column(y))


def write_posterior_csv(path, posterior: np.ndarray) -> None:
    """Write an (n, K) posterior as columns ``p1..pK``. It is read by
    `_as_floats`, so a cell may be NaN or infinite and a bool is written as
    1.0 or 0.0, but a string or a 1-D array raises ValidationError before
    the file is opened."""
    posterior = _as_floats(posterior, "posterior")
    header = [f"p{j}" for j in range(1, posterior.shape[1] + 1)]
    _write_blocks(path, header, ",".join(["%r"] * len(header)), posterior)


def _parse_header(header: list[str], path) -> tuple[int, int]:
    if not header or header[0] != "y":
        raise ValidationError(f"{path}: line 1: first column must be 'y', got {header[:1]}")
    d_z = 0
    pos = 1
    while pos < len(header) and header[pos] == f"z{d_z + 1}":
        d_z += 1
        pos += 1
    d_x = 0
    while pos < len(header) and header[pos] == f"x{d_x + 1}":
        d_x += 1
        pos += 1
    if pos != len(header):
        raise ValidationError(
            f"{path}: line 1: unexpected column {header[pos]!r} at position {pos + 1}; "
            f"expected y,z1..z{d_z},x1..x{d_x} layout"
        )
    return d_z, d_x


# Data lines handed to numpy's parser at a time, so that the text held at
# once stays a few MB however long the file is.
_BLOCK_LINES = 8192


def _label(cell: str) -> int:
    """A y cell's label: 0 for an empty cell, else an integer in 1.._MAX_LABEL
    or ValueError. int() alone would also take `1_0` and non-ASCII digits such
    as `١`; ASCII without `_` leaves padding, a sign and digits, as in strtod."""
    if cell == "":
        return 0
    label = int(cell) if cell.isascii() and "_" not in cell else 0
    if not 1 <= label <= _MAX_LABEL:
        raise ValueError(f"bad label {cell!r}")
    return label


def _parse_lines(lines: list[str], width: int) -> np.ndarray:
    """`lines`, data lines of `width` fields, as records of the label `y`
    (read by `_label`) and the `width - 1` feature cells `f`; numpy skips a
    blank line and raises ValueError on any other it cannot read."""
    return np.loadtxt(
        lines, dtype=[("y", int), ("f", float, (width - 1,))], delimiter=",", comments=None,
        quotechar='"', converters={0: _label}, ndmin=1, encoding=None,
    )


def _fields(line: str) -> list[str]:
    """The cells of one CSV line, split on commas where csv rejects it."""
    try:
        return next(csv.reader([line]), [])
    except csv.Error:  # before Python 3.11, csv rejects a NUL character
        return line.rstrip("\r\n").split(",")


def _line_fault(line: str, width: int) -> str | None:
    """The first fault of a data line in a file of `width` columns, or None."""
    fields = _fields(line)
    # numpy would read a quote left open on into the next line.
    if fields and fields[-1].endswith(("\n", "\r")):
        return "quoted cell runs past the end of the line"
    if len(fields) != width:
        return f"expected {width} fields, got {len(fields)}"
    try:
        _label(fields[0])
    except ValueError:
        return f"field 'y': bad label {fields[0]!r}"
    try:
        _parse_lines([line], width)
    except ValueError:
        return "non-numeric feature value"
    return None


def _parse_block(lines: list[str], first_line: int, width: int, path) -> np.ndarray:
    """`_parse_lines` of the data lines from line `first_line` on. A block
    numpy rejects, reads as fewer records than lines, or ends in a faulty
    line raises ValidationError naming its first faulty line."""
    try:
        with warnings.catch_warnings():
            # numpy warns when every line was blank; the count shows it.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            records = _parse_lines(lines, width)
    except ValueError:
        records = ()
    # numpy takes a quote left open on the block's last line as closed.
    if len(records) == len(lines) and _line_fault(lines[-1], width) is None:
        return records
    for lineno, line in enumerate(lines, start=first_line):
        fault = _line_fault(line, width)
        if fault is not None:
            raise ValidationError(f"{path}: line {lineno}: {fault}")
    raise AssertionError(f"{path}: numpy rejects lines {first_line}.. that each read alone")


@contextlib.contextmanager
def _open_text(path, **kwargs):
    """`path` opened as UTF-8 text; bytes that are not UTF-8 raise ValidationError."""
    with open(path, "r", encoding="utf-8", **kwargs) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text: {exc}") from None


def read_dataset_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Read a dataset CSV; returns (z, x, y) with y None when all y cells are
    empty. A malformed file raises ValidationError naming the file and line;
    data row i is line i + 2.

    The file is read in one pass, and numpy's C parser is the one parser of
    a data line: it reads blocks of lines, y cells through `_label`, so the
    text is never held whole. Python reads the lines of a block it rejects
    only to name the first faulty one. The dialect is comma-separated UTF-8
    with LF or CRLF line ends and optional double quotes around a cell; a
    blank line is a row of 0 fields and there are no comment lines. Feature
    cells are numbers as C `strtod` spells them, with optional surrounding
    whitespace: Python-only spellings such as `1_0` or non-ASCII digits are
    non-numeric. A `y` cell is empty or an integer >= 1.
    """
    with _open_text(path, newline="") as fh:
        first = fh.readline()
        if not first:
            raise ValidationError(f"{path}: line 1: empty file, expected a header")
        d_z, d_x = _parse_header(_fields(first), path)
        blocks = []
        while block := list(itertools.islice(fh, _BLOCK_LINES)):
            blocks.append(_parse_block(block, 2 + len(blocks) * _BLOCK_LINES, 1 + d_z + d_x, path))
    if not blocks:
        raise ValidationError(f"{path}: line 2: no data rows")
    z = np.concatenate([b["f"][:, :d_z] for b in blocks])
    x = np.concatenate([b["f"][:, d_z:] for b in blocks])
    finite = np.isfinite(z).all(axis=1) & np.isfinite(x).all(axis=1)
    if not finite.all():
        line = int(np.argmin(finite)) + 2
        raise ValidationError(f"{path}: line {line}: non-finite feature value")
    y = np.concatenate([b["y"] for b in blocks])
    n, n_labeled = y.shape[0], int(np.count_nonzero(y))
    if n_labeled == 0:
        return z, x, None
    if n_labeled != n:
        line = int(np.argmax((y > 0) != (y[0] > 0))) + 2
        raise ValidationError(
            f"{path}: line {line}: mixed labeled and unlabeled rows ({n_labeled} of {n} labeled)"
        )
    return z, x, y


def read_labels_csv(path) -> np.ndarray:
    """Read a labels CSV: a dataset CSV whose header is the lone column `y`
    and whose every y cell holds a label."""
    z, x, y = read_dataset_csv(path)
    if z.shape[1] + x.shape[1]:
        raise ValidationError(f"{path}: line 1: expected the lone column 'y', got feature columns")
    if y is None:
        raise ValidationError(f"{path}: line 2: every label is empty")
    return y


def read_json_object(path) -> dict:
    """The JSON object in the file at `path`; invalid JSON, text that is not
    UTF-8, or a value that is not an object raises ValidationError."""
    with _open_text(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: top-level JSON value must be an object")
    return doc


def read_labeled_csv(path, role: str) -> LabeledDataset:
    """Read a dataset CSV whose rows must all carry labels."""
    z, x, y = read_dataset_csv(path)
    if y is None:
        raise ValidationError(f"{path}: {role} must be labeled")
    return LabeledDataset(z=z, x=x, y=y)
