"""Synthetic feature datasets, external feature tables, and partitioners."""

import itertools
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataError
from .vlm import read_only, synth_local_features, unit_rows
from . import rngs


# bytes of standard-normal draws one block holds, while a stream is drawn and maps are built
_BLOCK_BYTES = 1 << 18


def _block_rows(row_shape: tuple[int, ...]) -> int:
    """Rows of a float64 stream with rows of `row_shape` that one block holds."""
    return max(1, _BLOCK_BYTES // (8 * int(np.prod(row_shape))))


class KeptRows:
    """The sorted distinct `ids` kept of the rows 0..n-1 of a larger array.

    `what` names that array in the error of a row that is not kept.
    """

    def __init__(self, n: int, rows, what: str):
        keep = np.zeros(n, dtype=bool)
        keep[np.asarray(rows, dtype=np.int64)] = True
        self.what = what
        self.ids = read_only(np.flatnonzero(keep))

    def positions(self, rows) -> np.ndarray:
        """Where each of `rows` sits among the kept ids; a row not kept raises
        `DataError` naming it."""
        rows = np.asarray(rows, dtype=np.int64)
        at = np.searchsorted(self.ids, rows)
        kept = at < len(self.ids)
        kept[kept] = self.ids[at[kept]] == rows[kept]
        if not kept.all():
            raise DataError(f"row {rows[~kept][0]} is not among the {len(self.ids)} kept rows "
                            f"of {self.what}")
        return at

    def normal(self, rng: np.random.Generator, row_shape: tuple[int, ...]) -> np.ndarray:
        """The kept rows of one sequential standard-normal draw of shape
        (n, *row_shape) from `rng`, (len(ids), *row_shape).

        The stream is drawn in blocks of `_block_rows(row_shape)` rows and
        stops after the last kept row, so the result equals the same rows of
        the whole draw and a temporary is one block in size.
        """
        values = np.empty((len(self.ids), *row_shape))
        stop = int(self.ids[-1]) + 1 if len(self.ids) else 0  # no later row is kept
        step = _block_rows(row_shape)
        for start in range(0, stop, step):
            drawn = rng.normal(size=(min(step, stop - start), *row_shape))
            lo, hi = np.searchsorted(self.ids, (start, start + len(drawn)))
            values[lo:hi] = drawn[self.ids[lo:hi] - start]
        return values


@dataclass
class MasterDataset:
    """Labeled feature set all partitioners operate on; row ids index its rows.

    A run shares one `MasterDataset` per dataset across its cells, read-only
    (`vlm.read_only`).
    """

    features: np.ndarray                 # (n, d)
    labels: np.ndarray                   # (n,) ints < class_count
    class_count: int

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

    def ensure_local_maps(self, M: int, parts: list["ClientDataset"],
                          noise_table: dict) -> list["ClientDataset"]:
        """Each slice of `parts` with its region features for transport-based
        scoring, (len(part), M, d), attached as `local_maps`.

        A slice holds rows of this dataset, or of a shifted copy of it, under
        their master ids. A row's maps depend only on the slice's feature and
        on the row of the (n, M, d) region-noise stream at its master id, n
        this dataset's row count, so they equal the per-sample draws of the
        whole dataset at that row. `noise_table` holds, under (n, M, d), the
        `RegionNoise` that keeps the stream's rows a run reads; its values are
        drawn on the first call that needs them (in a worker pool's parent,
        before the pool starts) and shared by every slice of that shape. A
        row the table does not keep raises `DataError` naming the row. Each
        slice's maps are built in blocks of `RegionNoise.block_rows` rows into
        one array, so a temporary is one block in size. The maps are
        read-only and kept on the returned slices, not on this dataset.
        """
        key = (len(self), M, self.feature_dim)
        noise = noise_table.get(key) or RegionNoise(key, ())
        # a row not kept fails before the draw
        noise_at = [noise.rows.positions(part.master_indices) for part in parts]
        values, step = noise.values(), noise.block_rows
        mapped = []
        for part, at in zip(parts, noise_at):
            maps = np.empty((len(at), M, self.feature_dim))
            for start in range(0, len(at), step):
                block = slice(start, start + step)
                maps[block] = synth_local_features(part.features[block], values[at[block]])
            mapped.append(replace(part, local_maps=read_only(maps)))
        return mapped


class RegionNoise:
    """The rows a run reads of one (n, M, d) region-noise stream.

    The stream is one sequential standard-normal draw of shape (n, M, d) from
    `rngs.derive_rng(0, rngs.LOCAL_MAP)`. Only its sorted distinct `rows`
    are kept (`KeptRows.normal`), drawn once per process at the first
    `values` call, or before a worker pool starts; the values equal the same
    rows of the whole draw and take memory in proportion to the kept rows.
    """

    def __init__(self, shape: tuple[int, int, int], rows):
        self.shape = tuple(shape)
        self.rows = KeptRows(self.shape[0], rows, f"the {self.shape} region noise")
        self.block_rows = _block_rows(self.shape[1:])
        self._values: np.ndarray | None = None

    def values(self) -> np.ndarray:
        """The kept rows of the stream, (len(rows.ids), M, d), read-only."""
        if self._values is None:
            self._values = read_only(self.rows.normal(rngs.derive_rng(0, rngs.LOCAL_MAP),
                                                      self.shape[1:]))
        return self._values


@dataclass(frozen=True)
class ClientDataset:
    """A slice of a master dataset, or of a shifted copy of it (a client's
    data or a test set); indices stay master-relative."""

    features: np.ndarray
    labels: np.ndarray
    master_indices: np.ndarray
    local_maps: np.ndarray | None = None  # (n, M, d), given to transport cells' slices only

    @classmethod
    def from_master(cls, master: MasterDataset, indices: np.ndarray) -> "ClientDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return cls(features=master.features[idx], labels=master.labels[idx], master_indices=idx)

    def take(self, at) -> "ClientDataset":
        """The rows at positions `at` of this slice, with their maps."""
        return ClientDataset(self.features[at], self.labels[at], self.master_indices[at],
                             None if self.local_maps is None else self.local_maps[at])

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


def is_synthetic(entry: str) -> bool:
    """Whether a `data.datasets` entry (or its results column name, the same
    text) names a synthetic dataset rather than a feature table."""
    return entry.split("#")[0] == "synthetic"


def _near_orthogonal_prototypes(classes: int, width: int,
                                rng: np.random.Generator) -> np.ndarray:
    # pairwise |cos| < 0.5 by rejection; comfortably feasible from ~32 dims up,
    # exhausts the try budget when the width is too small for the class count
    protos = np.empty((classes, width))
    for c in range(classes):
        for _attempt in range(1000):
            v = rng.normal(size=width)
            v /= np.linalg.norm(v)
            if np.all(np.abs(protos[:c] @ v) < 0.5):
                protos[c] = v
                break
        else:
            raise ConfigError(
                f"could not draw near-orthogonal prototype {c}: width {width} too small "
                f"for {classes} classes"
            )
    return protos


def generate_synthetic_dataset(classes: int, width: int, noise_sigma: float,
                               samples_per_class: int, rng: np.random.Generator) -> MasterDataset:
    """Unit-norm samples clustered around near-orthogonal class prototypes,
    the prototypes drawn first from `rng`."""
    protos = _near_orthogonal_prototypes(classes, width, rng)
    feats, labels = [], []
    for c in range(classes):
        x = protos[c][None, :] + noise_sigma * rng.normal(size=(samples_per_class, width))
        feats.append(unit_rows(x))
        labels.append(np.full(samples_per_class, c))
    return MasterDataset(
        features=np.concatenate(feats), labels=np.concatenate(labels), class_count=classes
    )


@dataclass(frozen=True)
class DomainShift:
    """Fixed orthogonal rotation + noise applied to every feature."""

    angle: float = 0.0
    noise_sigma: float = 0.0
    seed: int = 0


def _rotate_planes(x: np.ndarray, angle: float) -> np.ndarray:
    """Rows of x rotated by `angle` in every coordinate plane (2k, 2k + 1).

    Equal to x @ R.T for R the product of the planes' Givens rotations. The
    planes are disjoint, so two strided elementwise updates rotate all of
    them at once, at O(n d) in place of a dense d x d product per plane
    (Golub & Van Loan, Matrix Computations, sec. 5.1); an odd d leaves the
    last coordinate as it is.
    """
    cs, sn = np.cos(angle), np.sin(angle)
    paired = 2 * (x.shape[1] // 2)
    first, second = x[:, 0:paired:2], x[:, 1:paired:2]
    out = x.copy()
    out[:, 0:paired:2] = cs * first - sn * second
    out[:, 1:paired:2] = sn * first + cs * second
    return out


def apply_domain_shift(dataset: MasterDataset, shift: DomainShift, rows) -> ClientDataset:
    """The dataset's master rows `rows`, with their labels, and their features
    rotated by `shift.angle` in every coordinate plane (2k, 2k + 1), noised
    and renormalised.

    Row i's noise is row i of one sequential (n, d) standard-normal draw from
    `rngs.derive_rng(shift.seed, rngs.SHIFT)`, n the dataset's row count. So
    each row equals the same row of the whole dataset's shift, bit for bit,
    whatever else is kept. The result holds only the sorted distinct `rows`,
    under their master ids.
    """
    if not np.isfinite([shift.angle, shift.noise_sigma]).all():
        raise ConfigError("domain shift parameters must be finite")
    kept = KeptRows(len(dataset), rows, f"a dataset shifted by {shift}")
    x = _rotate_planes(dataset.features[kept.ids], shift.angle)
    if shift.noise_sigma > 0:
        x = x + shift.noise_sigma * kept.normal(rngs.derive_rng(shift.seed, rngs.SHIFT),
                                                x.shape[1:])
    return ClientDataset(features=unit_rows(x), labels=dataset.labels[kept.ids],
                         master_indices=kept.ids)


def _classes(labels: np.ndarray) -> np.ndarray:
    """The sorted distinct non-negative integer labels.

    Not np.unique: its first call in a process imports numpy.ma (15-20 ms).
    """
    return np.flatnonzero(np.bincount(labels))


def class_positions(labels: np.ndarray, class_ids: np.ndarray | None) -> np.ndarray:
    """Each label's position in the sorted class set `class_ids`; the labels
    themselves when every class is in the set (None)."""
    if class_ids is None:
        return labels
    class_ids = np.asarray(class_ids)
    pos = np.searchsorted(class_ids, labels)
    outside = class_ids[np.minimum(pos, len(class_ids) - 1)] != labels
    if np.any(outside):
        raise DataError(f"label {labels[outside][0]} is outside the class set {class_ids.tolist()}")
    return pos


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
# '<label>,<domain_tag>,<f_0>,...,<f_{d-1}>' per line; the tag must be an
# integer, and is checked but not kept.
# ---------------------------------------------------------------------------

def load_feature_table(path: str) -> MasterDataset:
    """Parse a feature table, validating dimensions and label range per line.

    The lines are read from the open file one at a time (`_lines`), so the
    text is never held whole. The body goes to one `np.loadtxt` call
    (`_bulk_table`). A body that call declines is read again, line by line
    (`_read_rows`), which accepts what `int` and `float` accept and names
    the failing `path:line`; both give the same arrays for every body the
    bulk read accepts.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = _lines(fh)
            dim, classes = _parse_header(path, next(lines, None))
            table = _bulk_table(lines, dim, classes)
            if table is None:
                fh.seek(0)
                lines = _lines(fh)
                next(lines)  # the header
                return _read_rows(path, lines, dim, classes)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read feature table {path}: {exc}") from exc
    return MasterDataset(
        features=np.ascontiguousarray(table[:, 2:]),  # a strided view would reduce differently
        labels=table[:, 0].astype(np.int64),
        class_count=classes,
    )


def read_table_header(path: str) -> tuple[int, int]:
    """The (d, classes) of a feature table, from its first line alone."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = next(_lines(fh), None)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read feature table {path}: {exc}") from exc
    return _parse_header(path, header)


def _lines(fh) -> Iterator[str]:
    """The lines of an open text file, cut as `str.splitlines` cuts its whole
    text, read one file line at a time."""
    for line in fh:
        yield from line.splitlines()


def _parse_header(path: str, header: str | None) -> tuple[int, int]:
    """The (d, classes) that a table's first line declares (None: an empty file)."""
    if header is None:
        raise DataError(f"{path}: no samples (empty file)")
    if not header.startswith("# "):
        raise DataError(f"{path}:1: missing '# d=<dim> classes=<C>' header")
    try:
        fields = dict(item.split("=") for item in header[2:].split())
        dim = int(fields["d"])
        classes = int(fields["classes"])
    except (ValueError, KeyError) as exc:
        raise DataError(f"{path}:1: malformed header {header!r}") from exc
    if dim < 1 or classes < 1:
        raise DataError(f"{path}:1: header {header!r} needs d >= 1 and classes >= 1")
    return dim, classes


class _Declined(Exception):
    """A body line that the bulk read must leave to the per-line loop."""


def _bulk_rows(lines: Iterator[str]) -> Iterator[str]:
    """The non-blank lines; a line holding the separator `\\x1f` raises
    `_Declined`, since the C reader strips it as whitespace around a number
    and `float` does not."""
    for line in lines:
        if "\x1f" in line:
            raise _Declined
        if line.strip():
            yield line


def _bulk_table(lines: Iterator[str], dim: int, classes: int) -> np.ndarray | None:
    """The non-blank body lines as an (n, dim + 2) float64 table, or None when
    numpy's C reader rejects them or a label or tag fails a check.

    Without `\\x1f`, the C reader takes a subset of what `float` accepts
    (not `1_000`, nor non-ASCII digits) and gives the same value for it;
    labels and tags go through `int` and are exact in float64 below 2**53
    in magnitude.
    """
    rows = _bulk_rows(lines)
    try:
        first = next(rows, None)
        if first is None:
            return None  # np.loadtxt warns on an empty body
        table = np.loadtxt(itertools.chain([first], rows), delimiter=",", comments=None,
                           ndmin=2, converters={0: int, 1: int})
    except UnicodeDecodeError:
        raise  # the file is unreadable, not the body malformed
    except (_Declined, ValueError):
        return None
    if table.shape[1] != dim + 2 or not np.all(np.abs(table[:, :2]) < 2.0 ** 53):
        return None  # also before the int64 cast, which warns on huge values
    labels = table[:, 0]
    if int(labels.min()) < 0 or int(labels.max()) >= classes:  # as ints: `classes` may be huge
        return None
    return table


def _read_rows(path: str, lines: Iterator[str], dim: int, classes: int) -> MasterDataset:
    """The table body, the lines after the header, parsed line by line, one
    `int` or `float` per field."""
    labels, rows = [], []
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != dim + 2:
            raise DataError(f"{path}:{lineno}: expected {dim + 2} fields, got {len(parts)}")
        try:
            label = int(parts[0])
            int(parts[1])  # the domain tag
            values = [float(x) for x in parts[2:]]
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: malformed row: {exc}") from exc
        if not (0 <= label < classes):
            raise DataError(f"{path}:{lineno}: label {label} outside [0, {classes})")
        labels.append(label)
        rows.append(values)
    if not rows:
        raise DataError(f"{path}: no samples")
    return MasterDataset(
        features=np.array(rows, dtype=np.float64),
        labels=np.array(labels),
        class_count=classes,
    )
