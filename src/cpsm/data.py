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
import json
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


def as_float_matrix(arr, name: str) -> np.ndarray:
    """`arr` as a 2-D float matrix with finite entries."""
    out = np.asarray(arr, dtype=float)
    if out.ndim != 2:
        raise ValidationError(f"{name} must be a 2-D matrix, got ndim={out.ndim}")
    if out.size and not np.all(np.isfinite(out)):
        raise ValidationError(f"{name} contains non-finite values")
    return out


# The largest label the int label vector holds.
_MAX_LABEL = int(np.iinfo(int).max)


def _as_label_vector(arr, name: str = "labels") -> np.ndarray:
    y = np.asarray(arr)
    if y.ndim != 1:
        raise ValidationError(f"{name} must be a 1-D vector, got ndim={y.ndim}")
    if y.size == 0:
        raise ValidationError(f"{name} are empty")
    if y.dtype.kind == "f":
        # NaN, inf and floats past the int range fail one of these tests.
        y = y.astype(float, copy=False)
        whole = np.all((y == np.floor(y)) & (np.abs(y) < _MAX_LABEL))
    else:
        whole = y.dtype.kind in "biu"  # not strings, None or other objects
    if not whole:
        raise ValidationError(f"{name} must be integers")
    yi = y.astype(int)
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
        self.x = as_float_matrix(self.x, "x")
        if self.z.shape[0] != self.x.shape[0]:
            raise ValidationError(
                f"row mismatch: z has {self.z.shape[0]}, x has {self.x.shape[0]}"
            )

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
        if block == "z":
            return self.z
        if block == "zx":
            return np.hstack([self.z, self.x])
        raise ValidationError(f"unknown feature block {block!r}, expected 'z' or 'zx'")


@dataclass
class LabeledDataset(UnlabeledDataset):
    """Feature blocks plus integer labels in {1..K}."""

    y: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        self.y = _as_label_vector(self.y)
        n = self.y.shape[0]
        if self.n_rows != n:
            raise ValidationError(
                f"row mismatch: z has {self.z.shape[0]}, x has {self.x.shape[0]}, y has {n}"
            )

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


def dataset_header(d_z: int, d_x: int) -> list[str]:
    return ["y"] + [f"z{i}" for i in range(1, d_z + 1)] + [f"x{i}" for i in range(1, d_x + 1)]


def write_csv(path, header: list[str], rows) -> None:
    """Write the header row and then `rows`, each an iterable of cell
    strings, as UTF-8 CSV with "\n" line ends."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_dataset_csv(path, z: np.ndarray, x: np.ndarray, y: np.ndarray | None) -> None:
    """Write rows as ``y,z1..,x1..``; y cells are left empty when y is None."""
    z = np.asarray(z, dtype=float)
    x = np.asarray(x, dtype=float)

    def rows():
        for i in range(z.shape[0]):
            row = ["" if y is None else str(int(y[i]))]
            row.extend(map(repr, z[i].tolist()))
            row.extend(map(repr, x[i].tolist()))
            yield row

    write_csv(path, dataset_header(z.shape[1], x.shape[1]), rows())


def write_labels_csv(path, y: np.ndarray) -> None:
    write_csv(path, ["y"], ([str(int(v))] for v in y))


def write_posterior_csv(path, posterior: np.ndarray) -> None:
    """Write an (n, K) posterior as columns ``p1..pK``."""
    write_csv(
        path,
        [f"p{j}" for j in range(1, posterior.shape[1] + 1)],
        (map(repr, row.tolist()) for row in posterior),
    )


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


# Data lines handed to numpy's parser at a time. A feature cell it rejects
# is found by parsing that block's lines again one by one, and the text held
# at once stays a few MB however long the file is.
_BLOCK_LINES = 8192


def _parse_features(lines: list[str], width: int) -> np.ndarray:
    """The feature cells (all but the first) of `lines`, each a data line
    of `width` fields, as a (len(lines), width - 1) float matrix."""
    return np.loadtxt(
        lines, delimiter=",", comments=None, quotechar='"', usecols=range(1, width), ndmin=2
    )


def _parse_block(lines: list[str], first_line: int, width: int, path) -> np.ndarray:
    try:
        return _parse_features(lines, width)
    except ValueError:
        for lineno, line in enumerate(lines, start=first_line):
            try:
                _parse_features([line], width)
            except ValueError:
                raise ValidationError(f"{path}: line {lineno}: non-numeric feature value") from None
        raise


def _line_fault(line: str, width: int, labels: list[int]) -> str | None:
    """What is wrong with a data line before its feature cells are parsed,
    or None after appending its label (0 for an empty y cell) to `labels`."""
    if '"' in line:
        fields = next(csv.reader([line]), [])
        # A quote left open would make numpy's parser read on into the next
        # line, so that its rows no longer match the file's lines.
        if fields and fields[-1].endswith(("\n", "\r")):
            return "quoted cell runs past the end of the line"
        n_fields = len(fields)
        y_cell = fields[0] if fields else ""
    else:
        body = line.rstrip("\r\n")
        n_fields = body.count(",") + 1 if body else 0
        y_cell = body.partition(",")[0]
    if n_fields != width:
        return f"expected {width} fields, got {n_fields}"
    if y_cell == "":
        labels.append(0)
        return None
    # int() alone would also take `1_0` and non-ASCII digits such as `١`;
    # ASCII without `_` leaves padding, a sign and digits, as strtod spells
    # an integer.
    label = 0
    if y_cell.isascii() and "_" not in y_cell:
        try:
            label = int(y_cell)
        except ValueError:
            pass
    if not 1 <= label <= _MAX_LABEL:
        return f"field 'y': bad label {y_cell!r}"
    labels.append(label)
    return None


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

    The file is read in one pass. Python checks each line's field count and
    y cell, and numpy's C parser reads the feature cells in blocks of lines,
    so the text is never held whole. The dialect is comma-separated UTF-8
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
        d_z, d_x = _parse_header(next(csv.reader([first]), []), path)
        width = 1 + d_z + d_x
        labels: list[int] = []
        blocks: list[np.ndarray] = []
        block: list[str] = []

        def parse_block() -> None:
            # `block` holds the last of the len(labels) checked data lines;
            # numpy warns on no lines, so an empty block is not passed on.
            if block:
                blocks.append(_parse_block(block, len(labels) + 2 - len(block), width, path))
                block.clear()

        for lineno, line in enumerate(fh, start=2):
            fault = _line_fault(line, width, labels)
            if fault is not None:
                parse_block()  # a bad feature cell on an earlier line comes first
                raise ValidationError(f"{path}: line {lineno}: {fault}")
            block.append(line)
            if len(block) == _BLOCK_LINES:
                parse_block()
        parse_block()
    n = len(labels)
    if n == 0:
        raise ValidationError(f"{path}: line 2: no data rows")
    z = np.concatenate([b[:, :d_z] for b in blocks])
    x = np.concatenate([b[:, d_z:] for b in blocks])
    finite = np.isfinite(z).all(axis=1) & np.isfinite(x).all(axis=1)
    if not finite.all():
        line = int(np.argmin(finite)) + 2
        raise ValidationError(f"{path}: line {line}: non-finite feature value")
    y = np.asarray(labels, dtype=int)
    n_labeled = int(np.count_nonzero(y))
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
