"""Dataset construction: synthetic Gaussian clusters, labeled CSV files and
the train/validation split.

The CSV layout is a header row `f0,...,f{d-1},label` followed by one row
per sample. Features are stored at float32 precision (printed with %.9g,
which round-trips float32 exactly); labels are integers.

A dataset's features are float32 or float64 and nothing else: a loaded CSV
is held as float32 (4 bytes per value, what the file carries), synthetic
data as float64. The model widens each batch to float64 exactly, so the two
train alike.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

SPLIT_MODES = ("per-class", "by-class")


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix with contiguous integer class labels.

    Invariants: features are a finite float32 or float64 matrix (float32
    input is kept as it is, any other dtype or a list becomes float64);
    labels are 0..C-1 with every class present and holding at least 2
    samples (one sample cannot form a positive pair).
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        features = np.asarray(self.features)
        if features.dtype != np.float32:
            features = features.astype(np.float64, copy=False)
        labels = np.asarray(self.labels)
        if features.ndim != 2 or features.shape[0] < 1:
            raise ValueError(f"need an (N, d) feature matrix, got shape {features.shape}")
        if labels.shape != (features.shape[0],):
            raise ValueError("labels must be one integer per row")
        if features.size and not np.isfinite([features.min(), features.max()]).all():
            row, col = np.argwhere(~np.isfinite(features))[0]
            raise ValueError(f"features must be finite; row {row}, column {col} is {features[row, col]}")
        labels = labels.astype(np.int64)
        uniq, counts = np.unique(labels, return_counts=True)
        if not np.array_equal(uniq, np.arange(uniq.size)):
            raise ValueError("labels must be contiguous 0..C-1")
        small = uniq[counts < 2]
        if small.size:
            raise ValueError(f"every class needs >= 2 samples; offending classes: {small.tolist()}")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1


def group_by_label(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(order, starts, sizes): positions of `labels` grouped by label, groups in label order and
    ascending within each; group i is order[starts[i] : starts[i] + sizes[i]]."""
    order = np.argsort(labels, kind="stable")
    _, starts, sizes = np.unique(labels[order], return_index=True, return_counts=True)
    return order, starts, sizes


def generate_synthetic(
    n_classes: int,
    per_class: int,
    input_dim: int,
    center_spread: float = 1.0,
    within_std: float = 1.0,
    seed: int = 0,
) -> LabeledDataset:
    """Gaussian blobs: centers uniform in [-spread, spread]^d, isotropic noise.

    Deterministic per seed. Difficulty is the ratio of within_std to
    center_spread; the defaults give overlapping but separable classes.
    """
    if n_classes < 1 or per_class < 1 or input_dim < 1:
        raise ValueError("n_classes, per_class and input_dim must all be >= 1")
    require_finite_spread(center_spread)
    if not np.isfinite(within_std):
        raise ValueError(f"within_std must be finite, got {within_std}")
    if np.signbit(within_std):
        raise ValueError("within_std must be nonnegative and not -0.0")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-center_spread, center_spread, size=(n_classes, input_dim))
    features = np.repeat(centers, per_class, axis=0)
    features = features + rng.normal(0.0, within_std, size=features.shape)
    labels = np.repeat(np.arange(n_classes), per_class)
    return LabeledDataset(features, labels)


def require_finite_spread(spread: float) -> None:
    """Raise ValueError unless the centers' range, 2 * spread wide, is a finite float64."""
    if not np.isfinite(2.0 * float(spread)):
        raise ValueError(f"center_spread must be finite and at most half the largest float64, got {spread}")


def save_dataset(dataset: LabeledDataset, path) -> None:
    """Write the documented CSV layout, which load_dataset reads back.

    Refuses, before anything is written, a feature that is not finite at
    float32 precision (`1e39`), naming its row and column: the file would
    hold `inf`, which load_dataset refuses.
    """
    features = dataset.features
    if not _finite_at_float32(features):
        with np.errstate(over="ignore"):
            row, col = np.argwhere(~np.isfinite(features.astype(np.float32)))[0]
        raise ValueError(
            f"feature row {row}, column {col} is {features[row, col]}, not finite at float32 precision"
        )
    cols = [f"f{i}" for i in range(dataset.input_dim)] + ["label"]
    feats = features.astype(np.float32)
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row, label in zip(feats, dataset.labels):
            fh.write(",".join(f"{x:.9g}" for x in row) + f",{label}\n")


def load_dataset(path) -> LabeledDataset:
    """Parse the documented CSV layout; malformed rows report their line number.

    The body is parsed in one pass by np.loadtxt (blank lines skipped).
    Only when that fails, or a feature is not finite at float32 precision
    (`inf`, `nan`, `1e39`), is the file scanned line by line, to name the
    first row with a wrong field count, a bad or non-finite float or a
    non-integer label. Numbers must be plain ASCII decimal (no `1_0`); a
    value that Python's float() or int() would accept but the parser
    rejects is reported with the parser's message, prefixed by the path.
    """
    with open(path) as fh:
        first = fh.readline()
        if not first:
            raise ValueError(f"{path}: empty file")
        header = first.rstrip("\n").split(",")
        if header[-1] != "label":
            raise ValueError(f"{path}: last header column must be 'label', got {header[-1]!r}")
        d = len(header) - 1
        expected = [f"f{i}" for i in range(d)]
        if header[:-1] != expected:
            raise ValueError(f"{path}: feature columns must be f0..f{d-1}")
        try:
            with warnings.catch_warnings():
                # numpy < 2 only warns when it parses "3.0" into the integer label field
                warnings.simplefilter("error", DeprecationWarning)
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                table = np.loadtxt(
                    (ln for ln in fh if ln.strip()),
                    delimiter=",",
                    comments=None,
                    dtype=[("f", "f8", (d,)), ("y", "i8")],
                    ndmin=1,
                )
            if not _finite_at_float32(table["f"]):
                raise ValueError("non-finite feature value")
        except (ValueError, DeprecationWarning) as exc:
            fh.seek(0)
            fh.readline()
            _raise_first_bad_line(path, fh, d)
            raise ValueError(f"{path}: {exc}") from None
    if table.size == 0:
        raise ValueError(f"{path}: no data rows")
    labels = table["y"]
    uniq = np.unique(labels)
    if not np.array_equal(uniq, np.arange(uniq.size)):
        warnings.warn(f"{path}: remapping non-contiguous labels to 0..{uniq.size - 1}", stacklevel=2)
        labels = np.searchsorted(uniq, labels)
    return LabeledDataset(table["f"].astype(np.float32), labels)


def _finite_at_float32(values: np.ndarray) -> bool:
    """Whether every value stays finite when cast to float32.

    The cast is monotonic and min/max propagate nan, so the two extremes
    decide; no temporary the size of the table is made.
    """
    if values.size == 0:
        return True
    with np.errstate(over="ignore"):
        return bool(np.isfinite(np.array([values.min(), values.max()], dtype=np.float32)).all())


def _raise_first_bad_line(path, body_lines, d: int) -> None:
    """Raise `path:lineno: ...` for the first malformed body row, if any."""
    for lineno, line in enumerate(body_lines, start=2):
        if not line.strip():
            continue
        parts = line.rstrip("\n").split(",")
        if len(parts) != d + 1:
            raise ValueError(f"{path}:{lineno}: expected {d + 1} fields, got {len(parts)}")
        try:
            values = [float(field) for field in parts[:-1]]
            int(parts[-1])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        with np.errstate(over="ignore"):
            finite = np.isfinite(np.asarray(values, dtype=np.float32))
        if not finite.all():
            field = parts[int(np.argmin(finite))].strip()
            raise ValueError(f"{path}:{lineno}: feature {field!r} is not finite at float32 precision")


def require_valid_split(fraction: float, mode: str) -> None:
    """Raise one ValueError naming every invalid split setting, one per line."""
    errors = []
    if not 0.0 < fraction <= 0.5:
        errors.append(f"train.val_fraction must lie in (0, 0.5], got {fraction}")
    if mode not in SPLIT_MODES:
        errors.append(f"unknown train.split_mode {mode!r}; valid modes: {', '.join(SPLIT_MODES)}")
    if errors:
        raise ValueError("\n".join(errors))


def held_out(size: int, fraction: float, mode: str) -> int:
    """How many of size items the split holds out: a class's samples per-class, the classes by-class.

    That is round(fraction * size), at least one; raises ValueError if it
    leaves fewer than two items to train on.
    """
    n_val = max(1, int(round(fraction * size)))
    if size - n_val < 2:
        per_class = mode == "per-class"
        noun, left = ("samples", "for training") if per_class else ("classes", "training classes")
        raise ValueError(
            f"holding out {n_val} of {size} {noun} at train.val_fraction={fraction} "
            f"would leave fewer than 2 {left}"
        )
    return n_val


def split_validation(
    dataset: LabeledDataset, fraction: float, mode: str, seed
) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint (train indices, validation indices).

    per-class holds out the fraction inside every class, by-class whole
    classes; held_out says how many.
    """
    require_valid_split(fraction, mode)
    rng = np.random.default_rng(seed)
    if mode == "per-class":
        train_parts, val_parts = [], []
        order, starts, _ = group_by_label(dataset.labels)
        for label, idx in enumerate(np.split(order, starts[1:])):
            try:
                n_val = held_out(idx.size, fraction, mode)
            except ValueError as exc:
                raise ValueError(f"class {label}: {exc}") from None
            perm = rng.permutation(idx.size)
            val_parts.append(idx[perm[:n_val]])
            train_parts.append(idx[perm[n_val:]])
        return np.sort(np.concatenate(train_parts)), np.sort(np.concatenate(val_parts))
    n_classes = dataset.n_classes
    n_val = held_out(n_classes, fraction, mode)
    perm = rng.permutation(n_classes)
    val_classes = perm[:n_val]
    val_mask = np.isin(dataset.labels, val_classes)
    return np.where(~val_mask)[0], np.where(val_mask)[0]
