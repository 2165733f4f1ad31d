"""Independent oracles shared by the test modules.

Everything here recomputes expected values through a different route than
the library: explicit enumeration, central finite differences, or direct
density arithmetic. Keep these free of calls into the code paths they check
(the Gaussian family draws its classes through `predict_proba`).
"""
import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

from cpsm import LabeledDataset, SoftmaxParams, adjust_posterior, predict_proba
from cpsm.em import M_STEP
from cpsm.softmax import clamp_probs, fit_soft


def finite_difference_gradient(func, x0: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function of a flat vector."""
    x0 = np.asarray(x0, dtype=float)
    grad = np.zeros_like(x0)
    for i in range(x0.size):
        hi = x0.copy()
        lo = x0.copy()
        hi[i] += step
        lo[i] -= step
        grad[i] = (func(hi) - func(lo)) / (2.0 * step)
    return grad


def zero_params(n_classes: int, n_features: int) -> SoftmaxParams:
    """The model whose every score is 0: uniform class probabilities."""
    return SoftmaxParams.from_weight_matrix(n_classes, np.zeros((n_classes - 1, 1 + n_features)))


def row_wise_e_step(models, target, theta):
    """Reference E-step: target responsibilities under `theta`, composed from
    the public pieces on every target row. Both conditionals are scored row
    by row and reweighted through the checked `adjust_posterior`."""
    p_xz = clamp_probs(predict_proba(models.posterior_model, target.features("zx")))
    p_z = clamp_probs(predict_proba(models.conditional_model, target.z))
    q_z = clamp_probs(predict_proba(theta, target.z))
    return adjust_posterior(p_xz, q_z, p_z)


def row_wise_em(models, target, config, m_step=None):
    """Reference EM that runs `row_wise_e_step` every round. `m_step(posterior,
    theta)` is its M-step; by default it refits the shifted model on every
    target row, the loop `fit_cpsm` ran before it grouped z into distinct
    patterns. Returns the final theta, the posterior and the surrogate trace."""
    if m_step is None:
        def m_step(posterior, theta):
            return fit_soft(target.z, posterior, M_STEP, init=theta)

    theta = models.conditional_model
    trace = []
    for it in range(config.max_em_iters + 1):
        if it > 0:
            theta = m_step(result.posterior, theta)
        result = row_wise_e_step(models, target, theta)
        trace.append(float(np.log(result.row_normalizer).sum()))
        if it > 0 and trace[-1] - trace[-2] < config.em_tolerance:
            break
    return theta, result.posterior, np.asarray(trace)


def random_discrete_joint(rng: np.random.Generator) -> dict:
    """A random source/target pair of joints over binary x, z, y that share
    the x-given-(y, z) conditional. Probabilities kept away from 0 and 1."""
    def unit(lo=0.05, hi=0.95):
        return lo + (hi - lo) * rng.random()

    p_z1 = unit()
    p_x1_given_z = {z: unit() for z in (0, 1)}
    p_y1_given_xz = {(x, z): unit() for x in (0, 1) for z in (0, 1)}

    p_joint = {}
    for x, z, y in itertools.product((0, 1), (0, 1), (1, 2)):
        pz = p_z1 if z == 1 else 1.0 - p_z1
        px = p_x1_given_z[z] if x == 1 else 1.0 - p_x1_given_z[z]
        py = p_y1_given_xz[(x, z)] if y == 1 else 1.0 - p_y1_given_xz[(x, z)]
        p_joint[(x, z, y)] = pz * px * py

    # Source conditionals derived from the joint.
    p_y1_given_z = {}
    for z in (0, 1):
        num = sum(p_joint[(x, z, 1)] for x in (0, 1))
        den = sum(p_joint[(x, z, y)] for x in (0, 1) for y in (1, 2))
        p_y1_given_z[z] = num / den

    # Target: new z marginal and new y-given-z, same x-given-(y, z).
    q_z1 = unit()
    q_y1_given_z = {z: unit() for z in (0, 1)}
    q_joint = {}
    for x, z, y in itertools.product((0, 1), (0, 1), (1, 2)):
        p_yz = sum(p_joint[(xx, z, y)] for xx in (0, 1))
        p_x_given_yz = p_joint[(x, z, y)] / p_yz
        qz = q_z1 if z == 1 else 1.0 - q_z1
        qy = q_y1_given_z[z] if y == 1 else 1.0 - q_y1_given_z[z]
        q_joint[(x, z, y)] = qz * qy * p_x_given_yz

    return {
        "p_joint": p_joint,
        "q_joint": q_joint,
        "p_y1_given_xz": p_y1_given_xz,
        "p_y1_given_z": p_y1_given_z,
        "q_y1_given_z": q_y1_given_z,
    }


def bayes_posterior_from_joint(joint: dict, x: int, z: int) -> tuple[float, float]:
    """Exact class posterior at one (x, z) cell by enumeration."""
    p1 = joint[(x, z, 1)]
    p2 = joint[(x, z, 2)]
    total = p1 + p2
    return p1 / total, p2 / total


def enumerate_bernoulli_expectation(theta0: float, slope: float, d_z: int) -> float:
    """E[sigmoid(theta0 + slope * sum(z))] over all 2^d_z equiprobable
    binary patterns, enumerated one by one."""
    total = 0.0
    for pattern in itertools.product((0, 1), repeat=d_z):
        total += 1.0 / (1.0 + math.exp(-(theta0 + slope * sum(pattern))))
    return total / 2.0**d_z


def gaussian_ramp_expectation(theta0: float, scale: float, intervals: int = 400_000) -> float:
    """E[sigmoid(theta0 + scale * Z)], Z ~ Normal(0, 1), by composite
    Simpson in u = theta0 + scale * Z over theta0 +- 12 scale, with the
    sigmoid taken as 1 / (1 + exp(-u)) one way or the other by sign."""
    if scale == 0.0:
        return 1.0 / (1.0 + math.exp(-theta0))
    u = np.linspace(theta0 - 12.0 * scale, theta0 + 12.0 * scale, intervals + 1)
    e = np.exp(-np.abs(u))
    ramp = np.where(u >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    density = np.exp(-0.5 * ((u - theta0) / scale) ** 2) / (scale * math.sqrt(2.0 * math.pi))
    f = ramp * density
    h = u[1] - u[0]
    return float(h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum()))


def gaussian_bayes_posterior(point_z, point_x, mixing, offsets, prior_probs) -> np.ndarray:
    """Class posterior at one (z, x) point by direct Gaussian density
    arithmetic: prior(class | z) times the identity-covariance normal density
    of x around mixing @ z + offset[class], renormalized."""
    point_z = np.asarray(point_z, dtype=float)
    point_x = np.asarray(point_x, dtype=float)
    n_classes = offsets.shape[0]
    logs = np.empty(n_classes)
    for c in range(n_classes):
        mean = mixing @ point_z + offsets[c]
        resid = point_x - mean
        logs[c] = math.log(prior_probs[c]) - 0.5 * float(resid @ resid)
    logs -= logs.max()
    w = np.exp(logs)
    return w / w.sum()


@dataclass
class GaussianGenConfig:
    """A generative family whose true posterior is itself a softmax: z is
    standard normal, the class given z follows `conditional_params`, and x
    given (class, z) is normal around mixing_matrix @ z + class_offsets[class]
    with identity covariance."""

    mixing_matrix: np.ndarray          # (p, d) float
    class_offsets: np.ndarray          # (K, p) float
    conditional_params: SoftmaxParams  # class given z, d features


def generate_gaussian_family(config: GaussianGenConfig, n: int, seed: int = 0) -> LabeledDataset:
    """n rows of the family, sampled from `np.random.default_rng(seed)`."""
    mixing, offsets, rng = config.mixing_matrix, config.class_offsets, np.random.default_rng(seed)
    z = rng.standard_normal((n, mixing.shape[1]))
    probs = predict_proba(config.conditional_params, z)
    u = rng.random(n)
    idx = np.minimum((np.cumsum(probs, axis=1) < u[:, None]).sum(axis=1), offsets.shape[0] - 1)
    x = z @ mixing.T + offsets[idx] + rng.standard_normal((n, mixing.shape[0]))
    return LabeledDataset(z=z, x=x, y=idx + 1)


def gaussian_family_posterior(config: GaussianGenConfig) -> SoftmaxParams:
    """The family's posterior in closed form, as a softmax over [z | x].

    Class-k score: x.(a_k - a_K) + z.(M^T (a_K - a_k) + w_k)
    + 0.5 (|a_K|^2 - |a_k|^2) + w_k0, with the last class as reference.
    """
    m, offsets, cond = config.mixing_matrix, config.class_offsets, config.conditional_params
    a_ref, rows = offsets[-1], offsets[:-1]
    return SoftmaxParams(
        n_classes=offsets.shape[0],
        n_features=m.shape[1] + m.shape[0],
        intercepts=0.5 * (a_ref @ a_ref - np.sum(rows * rows, axis=1)) + cond.intercepts,
        slopes=np.hstack([(a_ref - rows) @ m + cond.slopes, rows - a_ref]),
    )


def row_wise_read_dataset_csv(path):
    """A dataset CSV read row by row with the csv module and Python's
    `float()`: the reader the library had before it parsed feature cells
    with numpy, kept as the reference. Returns (z, x, y) like
    `cpsm.data.read_dataset_csv`, with y None when every y cell is empty;
    a malformed file raises ValueError with the library's message, without
    the leading file name."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError("line 1: empty file, expected a header")
        d_z = d_x = 0
        while 1 + d_z < len(header) and header[1 + d_z] == f"z{d_z + 1}":
            d_z += 1
        while 1 + d_z + d_x < len(header) and header[1 + d_z + d_x] == f"x{d_x + 1}":
            d_x += 1
        if header[:1] != ["y"] or len(header) != 1 + d_z + d_x:
            raise ValueError(f"line 1: not a y,z1..,x1.. header: {header}")
        labels = []
        z_rows = []
        x_rows = []
        n_labeled = 0
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 1 + d_z + d_x:
                raise ValueError(f"line {lineno}: expected {1 + d_z + d_x} fields, got {len(row)}")
            if row[0] == "":
                labels.append(0)
            else:
                label = 0
                if row[0].isascii() and "_" not in row[0]:
                    try:
                        label = int(row[0])
                    except ValueError:
                        pass
                if label < 1:
                    raise ValueError(f"line {lineno}: field 'y': bad label {row[0]!r}")
                labels.append(label)
                n_labeled += 1
            try:
                z_rows.append([float(v) for v in row[1 : 1 + d_z]])
                x_rows.append([float(v) for v in row[1 + d_z :]])
            except ValueError:
                raise ValueError(f"line {lineno}: non-numeric feature value") from None
    n = len(labels)
    if n == 0:
        raise ValueError("line 2: no data rows")
    z = np.asarray(z_rows, dtype=float).reshape(n, d_z)
    x = np.asarray(x_rows, dtype=float).reshape(n, d_x)
    finite = np.isfinite(z).all(axis=1) & np.isfinite(x).all(axis=1)
    if not finite.all():
        raise ValueError(f"line {int(np.argmin(finite)) + 2}: non-finite feature value")
    if n_labeled == 0:
        return z, x, None
    y = np.asarray(labels, dtype=int)
    if n_labeled != n:
        line = int(np.argmax((y > 0) != (y[0] > 0))) + 2
        raise ValueError(
            f"line {line}: mixed labeled and unlabeled rows ({n_labeled} of {n} labeled)"
        )
    return z, x, y


def _csv_writer_write(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def row_wise_write_dataset_csv(path, z, x, y):
    """A dataset CSV written row by row through `csv.writer`, each float by
    `repr`: the writer the library had before it formatted blocks of rows,
    kept as the reference for the bytes of `cpsm.data.write_dataset_csv`."""
    z = np.asarray(z, dtype=float)
    x = np.asarray(x, dtype=float)

    def rows():
        for i in range(z.shape[0]):
            row = ["" if y is None else str(int(y[i]))]
            row.extend(map(repr, z[i].tolist()))
            row.extend(map(repr, x[i].tolist()))
            yield row

    header = ["y"] + [f"z{i}" for i in range(1, z.shape[1] + 1)]
    _csv_writer_write(path, header + [f"x{i}" for i in range(1, x.shape[1] + 1)], rows())


def row_wise_write_labels_csv(path, y):
    """The reference for the bytes of `cpsm.data.write_labels_csv`."""
    _csv_writer_write(path, ["y"], ([str(int(v))] for v in y))


def row_wise_write_table(path, header, rows):
    """A benchmark table written row by row through `csv.writer`, each float
    by `repr` and any other cell by `str`: the writer the benchmark had
    before it shared the block writer, kept as the reference for the bytes
    of `cpsm.bench.write_metrics_csv` and `write_aggregate_csv`."""
    _csv_writer_write(
        path,
        header,
        ([repr(float(v)) if isinstance(v, float) else str(v) for v in row] for row in rows),
    )


def row_wise_write_posterior_csv(path, posterior):
    """The reference for the bytes of `cpsm.data.write_posterior_csv`."""
    _csv_writer_write(
        path,
        [f"p{j}" for j in range(1, posterior.shape[1] + 1)],
        (map(repr, row.tolist()) for row in posterior),
    )
