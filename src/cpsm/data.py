"""Dataset containers and the CSV on-disk format.

Features are split into a conditioning block ``z`` (the columns that drive
the shift of the label distribution) and the remaining block ``x``. The
stacked feature matrix used by full-feature models is always ``[z | x]``,
matching the CSV column order ``y,z1..,x1..``.
"""
from __future__ import annotations

import csv
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


def check_sample_weights(weights, n_rows: int) -> np.ndarray:
    """Per-row weights as a finite, nonnegative float vector of length `n_rows`."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (n_rows,):
        raise ValidationError("sample_weights length must match rows")
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValidationError("sample_weights must be finite and nonnegative")
    return w


def _as_label_vector(arr, name: str = "labels") -> np.ndarray:
    y = np.asarray(arr)
    if y.ndim != 1:
        raise ValidationError(f"{name} must be a 1-D vector, got ndim={y.ndim}")
    if y.size == 0:
        raise ValidationError(f"{name} are empty")
    yi = y.astype(int)
    if not np.all(yi == y):
        raise ValidationError(f"{name} must be integers")
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
    """Feature blocks plus integer labels in {1..K}.

    ``sample_weights`` are optional nonnegative per-row weights used by
    hard-label fitting.
    """

    y: np.ndarray
    sample_weights: np.ndarray | None = None

    def __post_init__(self):
        super().__post_init__()
        self.y = _as_label_vector(self.y)
        n = self.y.shape[0]
        if self.n_rows != n:
            raise ValidationError(
                f"row mismatch: z has {self.z.shape[0]}, x has {self.x.shape[0]}, y has {n}"
            )
        if self.sample_weights is not None:
            self.sample_weights = check_sample_weights(self.sample_weights, n)

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


def read_labels_csv(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["y"]:
            raise ValidationError(f"{path}: expected header 'y', got {header}")
        values = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 1:
                raise ValidationError(f"{path}: line {lineno}: expected one field")
            try:
                values.append(int(row[0]))
            except ValueError:
                raise ValidationError(f"{path}: line {lineno}: bad label {row[0]!r}") from None
    return _as_label_vector(values, f"{path}: labels")


def _parse_header(header: list[str], path) -> tuple[int, int]:
    if not header or header[0] != "y":
        raise ValidationError(f"{path}: first column must be 'y', got {header[:1]}")
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
            f"{path}: unexpected column {header[pos]!r} at position {pos + 1}; "
            f"expected y,z1..z{d_z},x1..x{d_x} layout"
        )
    return d_z, d_x


def read_dataset_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Read a dataset CSV; returns (z, x, y) with y None when all y cells are empty."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValidationError(f"{path}: empty file")
        d_z, d_x = _parse_header(header, path)
        labels: list[int] = []
        z_rows: list[list[float]] = []
        x_rows: list[list[float]] = []
        n_labeled = 0
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 1 + d_z + d_x:
                raise ValidationError(
                    f"{path}: line {lineno}: expected {1 + d_z + d_x} fields, got {len(row)}"
                )
            if row[0] == "":
                labels.append(0)
            else:
                try:
                    labels.append(int(row[0]))
                except ValueError:
                    raise ValidationError(
                        f"{path}: line {lineno}: field 'y': bad label {row[0]!r}"
                    ) from None
                n_labeled += 1
            try:
                z_rows.append([float(v) for v in row[1 : 1 + d_z]])
                x_rows.append([float(v) for v in row[1 + d_z :]])
            except ValueError:
                raise ValidationError(f"{path}: line {lineno}: non-numeric feature value") from None
    n = len(labels)
    if n == 0:
        raise ValidationError(f"{path}: no data rows")
    z = np.asarray(z_rows, dtype=float).reshape(n, d_z)
    x = np.asarray(x_rows, dtype=float).reshape(n, d_x)
    if n_labeled == 0:
        return z, x, None
    if n_labeled != n:
        raise ValidationError(f"{path}: mixed labeled and unlabeled rows ({n_labeled} of {n} labeled)")
    return z, x, np.asarray(labels, dtype=int)


def read_labeled_csv(path, role: str) -> LabeledDataset:
    """Read a dataset CSV whose rows must all carry labels."""
    z, x, y = read_dataset_csv(path)
    if y is None:
        raise ValidationError(f"{path}: {role} must be labeled")
    return LabeledDataset(z=z, x=x, y=y)
