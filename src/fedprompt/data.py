"""Synthetic feature datasets, external feature tables, and partitioners."""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .vlm import synth_local_features, unit_rows
from . import rngs


@dataclass
class MasterDataset:
    """Labeled feature set all partitioners operate on.

    A run shares one `MasterDataset` per dataset across its cells, read-only
    (`freeze`).
    """

    features: np.ndarray                 # (n, d)
    labels: np.ndarray                   # (n,) ints < class_count
    class_count: int
    domain_tags: np.ndarray | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.features.shape[0] != self.labels.shape[0]:
            raise DataError("features and labels disagree in length")
        if not np.all(np.isfinite(self.features)):
            raise DataError("features contain non-finite entries")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise DataError("labels out of range")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def freeze(self) -> "MasterDataset":
        """Mark every array read-only, so that cells can share the dataset."""
        for array in (self.features, self.labels, self.domain_tags):
            if array is not None:
                array.flags.writeable = False
        return self

    def ensure_local_maps(self, M: int, rows: list[np.ndarray],
                          noise_table: dict) -> list[np.ndarray]:
        """Region features for transport-based scoring, (len(r), M, d) for each r in `rows`.

        A row's maps depend only on its feature and its slice of the
        read-only (n, M, d) standard-normal draw held by `noise_table` under
        (n, M, d), so they equal the per-sample draws of the whole dataset
        at that row. The draw is made into the table on first use and
        shared by every dataset of that shape, such as a master and its
        shifted targets. The maps are read-only and kept by the caller, not
        on this dataset.
        """
        key = (len(self), M, self.feature_dim)
        if key not in noise_table:
            noise_table[key] = rngs.derive_rng(0, rngs.LOCAL_MAP).normal(size=key)
            noise_table[key].flags.writeable = False
        noise = noise_table[key]
        # slice by slice, so the temporaries stay the size of one slice
        maps = [synth_local_features(self.features[r], noise[r]) for r in rows]
        for part in maps:
            part.flags.writeable = False
        return maps


@dataclass
class ClientDataset:
    """A slice of a master dataset (a client's data or a test set); indices
    stay master-relative."""

    features: np.ndarray
    labels: np.ndarray
    master_indices: np.ndarray
    local_maps: np.ndarray | None = None  # (n, M, d), given to transport cells' slices only

    @classmethod
    def from_master(cls, master: MasterDataset, indices: np.ndarray) -> "ClientDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return cls(features=master.features[idx], labels=master.labels[idx], master_indices=idx)

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass
class PartitionPlan:
    """Disjoint per-client index lists over one master dataset."""

    client_indices: list[np.ndarray]
    class_proportions: np.ndarray | None = None  # (classes, clients) for dirichlet

    @property
    def num_clients(self) -> int:
        return len(self.client_indices)

    def validate_partition(self, universe_size: int) -> None:
        # as int64: an empty list would be a float array, which bincount rejects
        seen = np.concatenate([np.asarray(ix, dtype=np.int64) for ix in self.client_indices]) \
            if self.client_indices else np.array([], dtype=np.int64)
        if seen.size and (seen.min() < 0 or seen.max() >= universe_size):
            raise DataError("partition index outside the master dataset")
        if seen.size and np.bincount(seen).max() > 1:
            raise DataError("partition assigns some index twice")


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a separable synthetic feature dataset.

    Errors name the config key; the config parser adds the `data.` prefix.
    """

    classes: int = 10
    feature_dim: int = 64
    noise_sigma: float = 0.1
    samples_per_class: int = 200
    prototype_seed: int = 0

    def __post_init__(self):
        if self.classes < 2:
            raise ConfigError(f"classes: must be >= 2, got {self.classes}")
        if not self.noise_sigma >= 0:
            raise ConfigError(f"noise_sigma: must be >= 0, got {self.noise_sigma}")
        for key in ("feature_dim", "samples_per_class"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key}: must be >= 1, got {getattr(self, key)}")


def _near_orthogonal_prototypes(spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    # pairwise |cos| < 0.5 by rejection; comfortably feasible from ~32 dims up,
    # exhausts the try budget when the dimension is too small for the class count
    protos: list[np.ndarray] = []
    for c in range(spec.classes):
        for _attempt in range(1000):
            v = rng.normal(size=spec.feature_dim)
            v /= np.linalg.norm(v)
            if all(abs(v @ p) < 0.5 for p in protos):
                protos.append(v)
                break
        else:
            raise ConfigError(
                f"could not draw near-orthogonal prototype {c}: feature_dim "
                f"{spec.feature_dim} too small for {spec.classes} classes"
            )
    return np.array(protos)


def generate_synthetic_dataset(spec: SyntheticSpec, rng: np.random.Generator) -> MasterDataset:
    """Unit-norm samples clustered around near-orthogonal class prototypes."""
    protos = _near_orthogonal_prototypes(spec, rng)
    feats, labels = [], []
    for c in range(spec.classes):
        x = protos[c][None, :] + spec.noise_sigma * rng.normal(
            size=(spec.samples_per_class, spec.feature_dim)
        )
        feats.append(unit_rows(x))
        labels.append(np.full(spec.samples_per_class, c))
    return MasterDataset(
        features=np.concatenate(feats), labels=np.concatenate(labels), class_count=spec.classes
    )


@dataclass(frozen=True)
class DomainShift:
    """Fixed orthogonal rotation + scale + noise applied to every feature."""

    angle: float = 0.0
    planes: tuple[tuple[int, int], ...] | None = None  # default: disjoint coordinate pairs
    scale: float = 1.0
    noise_sigma: float = 0.0
    seed: int = 0


def _rotate_planes(x: np.ndarray, planes, angle: float) -> np.ndarray:
    """Rows of x rotated by `angle` in each (i, j) coordinate plane, in plane order.

    Equal to x @ R.T for R the product of the planes' Givens rotations
    (the first plane's rotation applied first), at O(n) per plane instead
    of a dense d x d product per plane (Golub & Van Loan, Matrix
    Computations, sec. 5.1).
    """
    cs, sn = np.cos(angle), np.sin(angle)
    out = x.copy()
    for i, j in planes:
        xi, xj = out[:, i].copy(), out[:, j]
        out[:, i] = cs * xi - sn * xj
        out[:, j] = sn * xi + cs * xj
    return out


def apply_domain_shift(dataset: MasterDataset, shift: DomainShift) -> MasterDataset:
    """Same labels, features mapped into a shifted domain and renormalised."""
    if not np.isfinite([shift.angle, shift.scale, shift.noise_sigma]).all():
        raise ConfigError("domain shift parameters must be finite")
    d = dataset.feature_dim
    planes = shift.planes
    if planes is None:
        planes = tuple((2 * k, 2 * k + 1) for k in range(d // 2))
    for i, j in planes:
        if i == j or not (0 <= i < d and 0 <= j < d):
            raise ConfigError(f"domain shift plane ({i}, {j}) needs two distinct axes below {d}")
    x = _rotate_planes(dataset.features, planes, shift.angle) * shift.scale
    if shift.noise_sigma > 0:
        rng = rngs.derive_rng(shift.seed, rngs.SHIFT)
        x = x + shift.noise_sigma * rng.normal(size=x.shape)
    return MasterDataset(
        features=unit_rows(x),
        labels=dataset.labels.copy(),
        class_count=dataset.class_count,
        domain_tags=None if dataset.domain_tags is None else dataset.domain_tags.copy(),
    )


def _classes(labels: np.ndarray) -> np.ndarray:
    """The sorted distinct non-negative integer labels.

    Not np.unique: its first call in a process imports numpy.ma (15-20 ms).
    """
    return np.flatnonzero(np.bincount(labels))


def balanced_subsample_indices(labels: np.ndarray, per_class: int,
                               rng: np.random.Generator) -> np.ndarray:
    """Uniformly chosen indices giving exactly per_class samples of every class."""
    chosen = []
    for c in _classes(labels):
        idx = np.flatnonzero(labels == c)
        if len(idx) < per_class:
            raise DataError(
                f"class {c} has only {len(idx)} samples, need {per_class} for a balanced subsample"
            )
        chosen.append(rng.choice(idx, size=per_class, replace=False))
    return np.sort(np.concatenate(chosen))


def stratified_split(labels: np.ndarray, fractions: tuple[float, float, float],
                     rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-class shuffled split into train/val/test index arrays."""
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError("split fractions must sum to 1")
    parts: tuple[list, list, list] = ([], [], [])
    for c in _classes(labels):
        idx = rng.permutation(np.flatnonzero(labels == c))
        n = len(idx)
        n_tr = int(round(fractions[0] * n))
        n_va = int(round(fractions[1] * n))
        n_tr = min(n_tr, n)
        n_va = min(n_va, n - n_tr)
        parts[0].append(idx[:n_tr])
        parts[1].append(idx[n_tr:n_tr + n_va])
        parts[2].append(idx[n_tr + n_va:])
    return tuple(np.sort(np.concatenate(p)) if p else np.array([], dtype=int) for p in parts)


def dirichlet_partition(labels: np.ndarray, num_clients: int, alpha: float,
                        rng: np.random.Generator) -> PartitionPlan:
    """Label-skewed partition: per class, client shares drawn from Dirichlet(alpha).

    Every sample is assigned exactly once; empty clients are permitted
    (small alpha concentrates whole classes on few clients).
    """
    if alpha <= 0:
        raise ConfigError(f"concentration parameter must be positive, got {alpha}")
    if num_clients < 1:
        raise ConfigError("need at least one client")
    labels = np.asarray(labels)
    buckets: list[list[int]] = [[] for _ in range(num_clients)]
    classes = _classes(labels)
    proportions = np.zeros((len(classes), num_clients))
    for row, c in enumerate(classes):
        idx = np.flatnonzero(labels == c)
        p = rng.dirichlet(np.full(num_clients, alpha))
        proportions[row] = p
        assign = rng.choice(num_clients, size=len(idx), p=p)
        for i, a in zip(idx, assign):
            buckets[a].append(int(i))
    plan = PartitionPlan(
        client_indices=[np.array(sorted(b), dtype=np.int64) for b in buckets],
        class_proportions=proportions,
    )
    plan.validate_partition(len(labels))
    return plan


def mirror_partition(class_proportions: np.ndarray, labels: np.ndarray,
                     rng: np.random.Generator) -> PartitionPlan:
    """Assign a fresh index set using previously drawn per-class client shares.

    Used to give each client a test split that follows the same label
    distribution as its training split.
    """
    labels = np.asarray(labels)
    num_clients = class_proportions.shape[1]
    buckets: list[list[int]] = [[] for _ in range(num_clients)]
    for row, c in enumerate(_classes(labels)):
        idx = np.flatnonzero(labels == c)
        assign = rng.choice(num_clients, size=len(idx), p=class_proportions[row])
        for i, a in zip(idx, assign):
            buckets[a].append(int(i))
    plan = PartitionPlan(
        client_indices=[np.array(sorted(b), dtype=np.int64) for b in buckets],
        class_proportions=class_proportions,
    )
    plan.validate_partition(len(labels))
    return plan


def kshot_iid_partition(labels: np.ndarray, num_clients: int, shots: int,
                        rng: np.random.Generator) -> PartitionPlan:
    """Every client receives exactly `shots` samples of every class, without replacement."""
    if shots < 1 or num_clients < 1:
        raise ConfigError("shots and clients must be positive")
    labels = np.asarray(labels)
    buckets: list[list[int]] = [[] for _ in range(num_clients)]
    for c in _classes(labels):
        idx = np.flatnonzero(labels == c)
        need = shots * num_clients
        if len(idx) < need:
            raise DataError(
                f"class {c} has {len(idx)} samples, need {need} for {shots}-shot x {num_clients} clients"
            )
        perm = rng.permutation(idx)
        for i in range(num_clients):
            buckets[i].extend(int(x) for x in perm[i * shots:(i + 1) * shots])
    plan = PartitionPlan(client_indices=[np.array(sorted(b), dtype=np.int64) for b in buckets])
    plan.validate_partition(len(labels))
    return plan


def base_novel_split(class_count: int, mode: str = "first_half",
                     seed: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint covering split of class ids; the base half gets the ceiling."""
    if class_count < 2:
        raise ConfigError("need at least 2 classes to split")
    n_base = (class_count + 1) // 2
    if mode == "first_half":
        order = np.arange(class_count)
    elif mode == "random":
        if seed is None:
            raise ConfigError("random base/novel split needs a seed")
        order = rngs.derive_rng(seed, rngs.SPLIT).permutation(class_count)
    else:
        raise ConfigError(f"unknown split mode {mode!r}")
    return np.sort(order[:n_base]), np.sort(order[n_base:])


# ---------------------------------------------------------------------------
# Feature-table files: '# d=<dim> classes=<C>' header, then
# '<label>,<domain_tag>,<f_0>,...,<f_{d-1}>' per line.
# ---------------------------------------------------------------------------

def load_feature_table(path: str) -> MasterDataset:
    """Parse a feature table, validating dimensions and label range per line.

    The body is read in one `np.loadtxt` call (`_bulk_table`). A body that
    call declines is read line by line (`_read_rows`), which accepts what
    `int` and `float` accept and names the failing `path:line`; both give
    the same arrays for every body the bulk read accepts.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read feature table {path}: {exc}") from exc
    if not lines:
        raise DataError(f"{path}: no samples (empty file)")
    header = lines[0]
    if not header.startswith("# "):
        raise DataError(f"{path}:1: missing '# d=<dim> classes=<C>' header")
    try:
        fields = dict(item.split("=") for item in header[2:].split())
        dim = int(fields["d"])
        classes = int(fields["classes"])
    except (ValueError, KeyError) as exc:
        raise DataError(f"{path}:1: malformed header {header!r}") from exc
    table = _bulk_table([line for line in lines[1:] if line.strip()], dim, classes)
    if table is None:
        return _read_rows(path, lines, dim, classes)
    return MasterDataset(
        features=np.ascontiguousarray(table[:, 2:]),  # a strided view would reduce differently
        labels=table[:, 0].astype(np.int64),
        class_count=classes,
        domain_tags=table[:, 1].astype(np.int64),
    )


def _bulk_table(rows: list[str], dim: int, classes: int) -> np.ndarray | None:
    """The non-blank body lines as an (n, dim + 2) float64 table, or None when
    numpy's C reader rejects them or a label or tag fails a check.

    Without the separator `\\x1f`, the C reader takes a subset of what `float`
    accepts (not `1_000`, nor non-ASCII digits) and gives the same value for
    it; labels and tags go through `int` and are exact in float64 below
    2**53 in magnitude.
    """
    if not rows:
        return None  # np.loadtxt warns on an empty body
    if any("\x1f" in line for line in rows):
        return None  # the C reader strips it as whitespace around a number; `float` does not
    try:
        table = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2,
                           converters={0: int, 1: int})
    except ValueError:
        return None
    if table.shape[1] != dim + 2 or not np.all(np.abs(table[:, :2]) < 2.0 ** 53):
        return None  # also before the int64 cast, which warns on huge values
    labels = table[:, 0]
    if int(labels.min()) < 0 or int(labels.max()) >= classes:  # as ints: `classes` may be huge
        return None
    return table


def _read_rows(path: str, lines: list[str], dim: int, classes: int) -> MasterDataset:
    """The table body parsed line by line, one `int` or `float` per field."""
    labels, tags, rows = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != dim + 2:
            raise DataError(f"{path}:{lineno}: expected {dim + 2} fields, got {len(parts)}")
        try:
            label = int(parts[0])
            tag = int(parts[1])
            values = [float(x) for x in parts[2:]]
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: malformed row: {exc}") from exc
        if not (0 <= label < classes):
            raise DataError(f"{path}:{lineno}: label {label} outside [0, {classes})")
        labels.append(label)
        tags.append(tag)
        rows.append(values)
    if not rows:
        raise DataError(f"{path}: no samples")
    return MasterDataset(
        features=np.array(rows, dtype=np.float64),
        labels=np.array(labels),
        class_count=classes,
        domain_tags=np.array(tags),
    )
