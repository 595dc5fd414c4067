"""Synthetic generation, partitioners, splits, shifts, and table files."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fedprompt import data
from fedprompt.data import (
    DomainShift,
    MasterDataset,
    SyntheticSpec,
    apply_domain_shift,
    balanced_subsample_indices,
    base_novel_split,
    dirichlet_partition,
    generate_synthetic_dataset,
    kshot_iid_partition,
    load_feature_table,
    mirror_partition,
    PartitionPlan,
    stratified_split,
)
from oracle import save_feature_table
from fedprompt.errors import ConfigError, DataError
from fedprompt.vlm import unit_rows
from fedprompt import rngs


def entropy(counts: np.ndarray) -> float:
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log(p)).sum())


def mean_client_label_entropy(labels, plan) -> float:
    values = []
    for idx in plan.client_indices:
        if len(idx) == 0:
            continue
        counts = np.bincount(labels[idx])
        values.append(entropy(counts.astype(float)))
    return float(np.mean(values))


class TestSynthetic:
    def test_zero_noise_samples_equal_prototypes(self):
        spec = SyntheticSpec(classes=4, feature_dim=32, noise_sigma=0.0, samples_per_class=3)
        ds = generate_synthetic_dataset(spec, np.random.default_rng(0))
        for c in range(4):
            rows = ds.features[ds.labels == c]
            assert np.all(rows == rows[0])

    def test_deterministic_given_seed(self):
        spec = SyntheticSpec(classes=3, feature_dim=32, samples_per_class=5)
        a = generate_synthetic_dataset(spec, np.random.default_rng(9))
        b = generate_synthetic_dataset(spec, np.random.default_rng(9))
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_nearest_prototype_classifier_oracle(self):
        # independent oracle: classify by nearest noiseless prototype
        spec = SyntheticSpec(classes=10, feature_dim=64, noise_sigma=0.1, samples_per_class=30)
        clean = SyntheticSpec(classes=10, feature_dim=64, noise_sigma=0.0, samples_per_class=1)
        rng_seed = 4
        ds = generate_synthetic_dataset(spec, np.random.default_rng(rng_seed))
        protos = generate_synthetic_dataset(clean, np.random.default_rng(rng_seed)).features
        pred = (ds.features @ protos.T).argmax(axis=1)
        assert (pred == ds.labels).mean() > 0.99

    def test_prototypes_near_orthogonal(self):
        spec = SyntheticSpec(classes=10, feature_dim=64, noise_sigma=0.0, samples_per_class=1)
        protos = generate_synthetic_dataset(spec, np.random.default_rng(1)).features
        gram = np.abs(protos @ protos.T - np.eye(10))
        assert gram.max() < 0.5

    def test_rejection_failure_when_dim_too_small(self):
        # three pairwise-near-orthogonal unit vectors cannot fit in the plane
        spec = SyntheticSpec(classes=3, feature_dim=2, samples_per_class=1)
        with pytest.raises(ConfigError, match="too small"):
            generate_synthetic_dataset(spec, np.random.default_rng(0))


class TestDomainShift:
    @pytest.fixture
    def dataset(self):
        spec = SyntheticSpec(classes=4, feature_dim=32, noise_sigma=0.05, samples_per_class=10)
        return generate_synthetic_dataset(spec, np.random.default_rng(2))

    def test_identity_transform(self, dataset):
        out = apply_domain_shift(dataset, DomainShift())
        np.testing.assert_allclose(out.features, dataset.features, atol=1e-12)
        np.testing.assert_array_equal(out.labels, dataset.labels)

    def test_half_turn_reflects_in_plane(self, dataset):
        shift = DomainShift(angle=np.pi, planes=((0, 1),))
        out = apply_domain_shift(dataset, shift)
        np.testing.assert_allclose(out.features[:, 0], -dataset.features[:, 0], atol=1e-12)
        np.testing.assert_allclose(out.features[:, 1], -dataset.features[:, 1], atol=1e-12)
        np.testing.assert_allclose(out.features[:, 2:], dataset.features[:, 2:], atol=1e-12)

    def test_noise_monotonically_decreases_alignment(self, dataset):
        # measured trend over five increasing noise levels
        cosines = []
        for k, sigma in enumerate((0.0, 0.1, 0.3, 0.8, 2.0)):
            out = apply_domain_shift(dataset, DomainShift(noise_sigma=sigma, seed=5))
            cosines.append(float((out.features * dataset.features).sum(axis=1).mean()))
        assert all(b < a for a, b in zip(cosines, cosines[1:]))

    def test_nonfinite_parameters(self, dataset):
        with pytest.raises(ConfigError):
            apply_domain_shift(dataset, DomainShift(angle=np.inf))

    @pytest.mark.parametrize("planes", [((0, 0),), ((0, 32),), ((-1, 2),)])
    def test_bad_plane_rejected(self, dataset, planes):
        with pytest.raises(ConfigError, match="plane"):
            apply_domain_shift(dataset, DomainShift(angle=0.4, planes=planes))


def dense_rotation(d: int, shift: DomainShift) -> np.ndarray:
    """Oracle: product of one dense d x d Givens matrix per plane, first plane rightmost."""
    planes = shift.planes
    if planes is None:
        planes = tuple((2 * k, 2 * k + 1) for k in range(d // 2))
    R = np.eye(d)
    cs, sn = np.cos(shift.angle), np.sin(shift.angle)
    for i, j in planes:
        G = np.eye(d)
        G[i, i] = cs
        G[j, j] = cs
        G[i, j] = -sn
        G[j, i] = sn
        R = G @ R
    return R


def dense_shift_oracle(dataset: MasterDataset, shift: DomainShift) -> np.ndarray:
    x = dataset.features @ dense_rotation(dataset.feature_dim, shift).T * shift.scale
    if shift.noise_sigma > 0:
        x = x + shift.noise_sigma * rngs.derive_rng(shift.seed, rngs.SHIFT).normal(size=x.shape)
    return unit_rows(x)


class TestDomainShiftOracle:
    @staticmethod
    def dataset(d: int, n: int = 24) -> MasterDataset:
        rng = np.random.default_rng(d)
        return MasterDataset(features=unit_rows(rng.normal(size=(n, d))),
                             labels=np.arange(n) % 3, class_count=3)

    @pytest.mark.parametrize("d", [512, 33])
    def test_default_planes_match_dense_product(self, d):
        ds = self.dataset(d)
        shift = DomainShift(angle=0.7)
        out = apply_domain_shift(ds, shift)
        np.testing.assert_allclose(out.features, dense_shift_oracle(ds, shift), rtol=0, atol=1e-12)
        if d % 2:  # the unpaired last axis is not rotated
            np.testing.assert_allclose(out.features[:, -1], ds.features[:, -1], rtol=0, atol=1e-12)

    def test_overlapping_planes_apply_in_order(self):
        ds = self.dataset(6)
        shift = DomainShift(angle=0.9, planes=((0, 1), (1, 2), (0, 2)))
        out = apply_domain_shift(ds, shift)
        np.testing.assert_allclose(out.features, dense_shift_oracle(ds, shift), rtol=0, atol=1e-12)
        # order matters: the reversed sequence is a different rotation
        reversed_shift = DomainShift(angle=0.9, planes=((0, 2), (1, 2), (0, 1)))
        assert np.abs(apply_domain_shift(ds, reversed_shift).features - out.features).max() > 1e-3

    def test_scale_and_noise_match_dense_product(self):
        ds = self.dataset(33)
        shift = DomainShift(angle=0.5, scale=2.5, noise_sigma=0.2, seed=3)
        out = apply_domain_shift(ds, shift)
        np.testing.assert_allclose(out.features, dense_shift_oracle(ds, shift), rtol=0, atol=1e-12)


class TestBalancedSubsample:
    def test_full_class_size_keeps_class(self):
        labels = np.repeat([0, 1, 2], 5)
        idx = balanced_subsample_indices(labels, 5, np.random.default_rng(0))
        assert len(idx) == 15
        np.testing.assert_array_equal(np.bincount(labels[idx]), [5, 5, 5])

    def test_counts_eight_per_class(self):
        spec = SyntheticSpec(classes=10, feature_dim=32, samples_per_class=20)
        ds = generate_synthetic_dataset(spec, np.random.default_rng(0))
        idx = balanced_subsample_indices(ds.labels, 8, np.random.default_rng(1))
        assert len(idx) == 80
        np.testing.assert_array_equal(np.bincount(ds.labels[idx]), np.full(10, 8))

    def test_sixteen_per_class(self):
        labels = np.repeat(np.arange(5), 20)
        idx = balanced_subsample_indices(labels, 16, np.random.default_rng(0))
        assert len(idx) == 16 * 5

    def test_insufficient_population_names_class(self):
        labels = np.array([0, 0, 0, 1])
        with pytest.raises(DataError, match="class 1"):
            balanced_subsample_indices(labels, 2, np.random.default_rng(0))


class TestDirichlet:
    def test_single_client_gets_everything(self):
        labels = np.repeat([0, 1], 10)
        plan = dirichlet_partition(labels, 1, 0.5, np.random.default_rng(0))
        assert len(plan.client_indices[0]) == 20

    def test_exact_partition(self):
        labels = np.random.default_rng(0).integers(0, 6, size=200)
        plan = dirichlet_partition(labels, 7, 0.3, np.random.default_rng(1))
        allocated = np.concatenate(plan.client_indices)
        assert len(allocated) == 200
        assert len(np.unique(allocated)) == 200

    def test_proportions_recorded(self):
        labels = np.repeat(np.arange(4), 10)
        plan = dirichlet_partition(labels, 3, 1.0, np.random.default_rng(2))
        assert plan.class_proportions.shape == (4, 3)
        np.testing.assert_allclose(plan.class_proportions.sum(axis=1), np.ones(4), atol=1e-12)

    def test_heterogeneity_monotone_in_alpha(self):
        # simulation oracle over ten seeds and an increasing alpha grid
        labels = np.repeat(np.arange(10), 8)
        grid = (0.1, 1.0, 10.0, 100.0)
        means = []
        for alpha in grid:
            vals = [
                mean_client_label_entropy(
                    labels, dirichlet_partition(labels, 10, alpha,
                                                rngs.derive_rng(seed, rngs.PARTITION)))
                for seed in range(10)
            ]
            means.append(float(np.mean(vals)))
        # nondecreasing within small-sample noise; the end-to-end gap is strict
        assert all(b >= a - 0.05 for a, b in zip(means, means[1:]))
        assert means[-1] > means[0]

    def test_deterministic(self):
        labels = np.repeat(np.arange(5), 6)
        a = dirichlet_partition(labels, 4, 0.2, np.random.default_rng(3))
        b = dirichlet_partition(labels, 4, 0.2, np.random.default_rng(3))
        for x, y in zip(a.client_indices, b.client_indices):
            np.testing.assert_array_equal(x, y)

    def test_bad_alpha(self):
        with pytest.raises(ConfigError):
            dirichlet_partition(np.zeros(4, dtype=int), 2, 0.0, np.random.default_rng(0))


class TestMirrorPartition:
    def test_follows_recorded_proportions(self):
        labels = np.repeat(np.arange(3), 200)
        plan = dirichlet_partition(labels, 4, 0.5, np.random.default_rng(0))
        mirrored = mirror_partition(plan.class_proportions, labels, np.random.default_rng(1))
        # with many samples the realised shares approach the recorded ones
        for row, c in enumerate(range(3)):
            counts = np.array([
                (labels[idx] == c).sum() for idx in mirrored.client_indices
            ], dtype=float)
            np.testing.assert_allclose(counts / counts.sum(), plan.class_proportions[row], atol=0.12)


class TestKShot:
    def test_counting(self):
        labels = np.repeat(np.arange(10), 5)
        plan = kshot_iid_partition(labels, 5, 1, np.random.default_rng(0))
        for idx in plan.client_indices:
            assert len(idx) == 10
            np.testing.assert_array_equal(np.bincount(labels[idx]), np.ones(10, dtype=int))

    @pytest.mark.parametrize("shots", [1, 2, 4, 8, 16])
    def test_shot_sweep_supported(self, shots):
        labels = np.repeat(np.arange(3), 16 * 4)
        plan = kshot_iid_partition(labels, 4, shots, np.random.default_rng(0))
        union = np.concatenate(plan.client_indices)
        assert len(union) == len(np.unique(union)) == shots * 4 * 3

    def test_union_per_class(self):
        labels = np.repeat(np.arange(4), 12)
        plan = kshot_iid_partition(labels, 3, 2, np.random.default_rng(1))
        union = np.concatenate(plan.client_indices)
        np.testing.assert_array_equal(np.bincount(labels[union]), np.full(4, 6))

    def test_insufficient_data(self):
        labels = np.repeat(np.arange(2), 5)
        with pytest.raises(DataError):
            kshot_iid_partition(labels, 3, 2, np.random.default_rng(0))


class TestBaseNovelSplit:
    def test_first_half(self):
        base, novel = base_novel_split(4, mode="first_half")
        np.testing.assert_array_equal(base, [0, 1])
        np.testing.assert_array_equal(novel, [2, 3])

    def test_seed_aligned(self):
        a = base_novel_split(10, mode="random", seed=5)
        b = base_novel_split(10, mode="random", seed=5)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_ceiling_rule(self):
        base, novel = base_novel_split(101, mode="first_half")
        assert len(base) == 51 and len(novel) == 50

    def test_disjoint_covering(self):
        base, novel = base_novel_split(9, mode="random", seed=3)
        union = np.sort(np.concatenate([base, novel]))
        np.testing.assert_array_equal(union, np.arange(9))

    def test_random_needs_seed(self):
        with pytest.raises(ConfigError):
            base_novel_split(4, mode="random")


def per_sample_maps(features, M):
    """The region-feature oracle: one (M, d) draw per sample, in row order,
    from the map stream at seed 0, with spread 0.1."""
    rng = rngs.derive_rng(0, rngs.LOCAL_MAP)
    return np.stack([unit_rows(f[None, :] + 0.1 * rng.normal(size=(M, f.shape[0])))
                     for f in features])


class TestLocalMaps:
    """Region features are a pure function of the rows asked for and one shared noise draw."""

    @pytest.fixture
    def master(self, rng):
        return MasterDataset(features=unit_rows(rng.normal(size=(6, 5))),
                             labels=np.arange(6) % 3, class_count=3)

    def test_each_key_gets_its_own_maps(self, master):
        rows, table = [np.arange(6)], {}
        [first] = master.ensure_local_maps(3, rows, table)
        assert master.ensure_local_maps(2, rows, table)[0].shape == (6, 2, 5)
        assert list(table) == [(6, 3, 5), (6, 2, 5)]
        # the first key again: the same values
        np.testing.assert_array_equal(master.ensure_local_maps(3, rows, table)[0], first)

    def test_maps_match_per_sample_draws(self, master):
        expected = per_sample_maps(master.features, 3)
        for rows in ([np.arange(6)],
                     [np.array([4, 1]), np.array([], dtype=np.int64), np.array([0]),
                      np.array([2, 2, 5])]):
            maps = master.ensure_local_maps(3, rows, {})
            assert len(maps) == len(rows)
            for r, got in zip(rows, maps):
                np.testing.assert_array_equal(got, expected[r])

    def test_shifted_targets_match_per_sample_draws(self, master):
        rows = [np.array([5, 0, 3]), np.arange(6)]
        for k in (1, 2):  # the shifts of `evaluation.cross_domain_targets`
            target = apply_domain_shift(master, DomainShift(angle=0.3 + 0.2 * k,
                                                            noise_sigma=0.05 * k, seed=k))
            expected = per_sample_maps(target.features, 3)
            for r, got in zip(rows, target.ensure_local_maps(3, rows, {})):
                np.testing.assert_array_equal(got, expected[r])

    def test_maps_are_read_only_and_stay_with_their_dataset(self, master):
        full, part = master.ensure_local_maps(3, [np.arange(6), np.array([1, 4])], {})
        for maps in (full, part):
            with pytest.raises(ValueError, match="read-only"):
                maps[0, 0, 0] = 1.0
        np.testing.assert_array_equal(part, full[[1, 4]])
        # the dataset keeps nothing: the maps live with the caller's slices
        assert set(vars(master)) == {"features", "labels", "class_count", "domain_tags"}

    def test_noise_is_one_read_only_draw_per_shape(self, master):
        # the table holds one draw per (n, M, d), shared by a dataset of
        # the same shape such as a shifted target
        table = {}
        master.ensure_local_maps(3, [np.arange(6)], table)
        target = apply_domain_shift(master, DomainShift(angle=0.5))
        target.ensure_local_maps(3, [np.array([1])], table)
        master.ensure_local_maps(3, [np.array([2, 4])], table)
        assert list(table) == [(6, 3, 5)]
        noise = table[(6, 3, 5)]
        np.testing.assert_array_equal(
            noise, rngs.derive_rng(0, rngs.LOCAL_MAP).normal(size=(6, 3, 5)))
        with pytest.raises(ValueError, match="read-only"):
            noise[0, 0, 0] = 1.0


class TestPartitionPlan:
    def test_validate_partition(self):
        with pytest.raises(DataError, match="twice"):
            PartitionPlan(client_indices=[np.array([0, 2]), np.array([2])]).validate_partition(3)
        with pytest.raises(DataError, match="outside"):
            PartitionPlan(client_indices=[np.array([0, 3])]).validate_partition(3)

    def test_empty_list_client(self):
        PartitionPlan(client_indices=[[], np.array([0, 1])]).validate_partition(2)
        with pytest.raises(DataError, match="twice"):
            PartitionPlan(client_indices=[[], [1, 1]]).validate_partition(2)

    def test_no_clients(self):
        PartitionPlan(client_indices=[]).validate_partition(0)


class TestStratifiedSplit:
    def test_fractions(self):
        labels = np.repeat(np.arange(5), 20)
        tr, va, te = stratified_split(labels, (0.7, 0.1, 0.2), np.random.default_rng(0))
        assert len(tr) == 70 and len(va) == 10 and len(te) == 20
        for c in range(5):
            assert (labels[tr] == c).sum() == 14

    def test_disjoint_cover(self):
        labels = np.random.default_rng(1).integers(0, 3, size=50)
        tr, va, te = stratified_split(labels, (0.7, 0.1, 0.2), np.random.default_rng(2))
        union = np.sort(np.concatenate([tr, va, te]))
        np.testing.assert_array_equal(union, np.arange(50))


class TestFeatureTable:
    def test_round_trip_bitwise(self, tmp_path, rng):
        ds = MasterDataset(
            features=rng.normal(size=(2, 5)),
            labels=np.array([1, 0]),
            class_count=3,
            domain_tags=np.array([0, 2]),
        )
        path = tmp_path / "table.txt"
        save_feature_table(ds, str(path))
        loaded = load_feature_table(str(path))
        np.testing.assert_array_equal(loaded.features, ds.features)
        np.testing.assert_array_equal(loaded.labels, ds.labels)
        np.testing.assert_array_equal(loaded.domain_tags, ds.domain_tags)
        assert loaded.class_count == 3

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(DataError, match="no samples"):
            load_feature_table(str(path))

    def test_header_only(self, tmp_path):
        path = tmp_path / "header.txt"
        path.write_text("# d=4 classes=2\n")
        with pytest.raises(DataError, match="no samples"):
            load_feature_table(str(path))

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# d=2 classes=2\n0,0,1.0,2.0\n1,0,oops,3.0\n")
        with pytest.raises(DataError, match=":3"):
            load_feature_table(str(path))

    def test_dimension_mismatch_names_line(self, tmp_path):
        path = tmp_path / "dims.txt"
        path.write_text("# d=3 classes=2\n0,0,1.0,2.0\n")
        with pytest.raises(DataError, match=":2"):
            load_feature_table(str(path))

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "label.txt"
        path.write_text("# d=2 classes=2\n5,0,1.0,2.0\n")
        with pytest.raises(DataError):
            load_feature_table(str(path))

    def test_partition_equivalence_after_reload(self, tmp_path, rng):
        spec = SyntheticSpec(classes=4, feature_dim=32, samples_per_class=10)
        ds = generate_synthetic_dataset(spec, np.random.default_rng(7))
        path = tmp_path / "ds.txt"
        save_feature_table(ds, str(path))
        loaded = load_feature_table(str(path))
        a = dirichlet_partition(ds.labels, 3, 0.5, np.random.default_rng(11))
        b = dirichlet_partition(loaded.labels, 3, 0.5, np.random.default_rng(11))
        for x, y in zip(a.client_indices, b.client_indices):
            np.testing.assert_array_equal(x, y)


# Field texts that `int` or `float` read differently from numpy's C reader,
# or that one of them rejects.
_ODD_VALUES = ["1_000", "1_0.5", "+1.5", "-0.0", "--1", " 2.5 ", "\t3", "4\xa0", "\x1f5", "nan",
               "-inf", "Infinity", "1e400", "-1e400", "1e-400", "", "  ", "\u0663", "\u0663.5",
               "0x1p3", "1.5j", "'1'", "1\x00"]
_ODD_INTS = ["1.0", " 1 ", "+1", "-0", "1_0", "\u0661", "", "x", str(2 ** 53 - 1), str(2 ** 53),
             str(2 ** 53 + 1), str(-(2 ** 53) - 1), str(2 ** 63), "9" * 400, "1" * 5000]
_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]


@st.composite
def mutated_tables(draw):
    """A feature-table text: a well-formed `repr` table, then a few edits."""
    dim = draw(st.integers(1, 3))
    classes = draw(st.integers(1, 3))
    n = draw(st.integers(0, 4))
    rows = [[str(draw(st.integers(0, classes - 1))), str(draw(st.integers(-3, 3)))]
            + [repr(draw(st.floats(-2.0, 2.0))) for _ in range(dim)] for _ in range(n)]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        row = draw(st.sampled_from(rows))
        column = draw(st.integers(0, len(row) - 1))
        row[column] = draw(st.sampled_from(_ODD_INTS if column < 2 else _ODD_VALUES))
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2)) if lines else 0):
        at = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["trailing comma", "drop field", "blank", "spaces", "split"]))
        if edit == "trailing comma":
            lines[at] += ","
        elif edit == "drop field":
            lines[at] = lines[at].rsplit(",", 1)[0]
        elif edit == "blank":
            lines.insert(at, "")
        elif edit == "spaces":
            lines.insert(at, " \t ")
        else:  # a line break inside a row
            cut = draw(st.integers(0, len(lines[at])))
            lines[at] = lines[at][:cut] + draw(st.sampled_from(_BREAKS)) + lines[at][cut:]
    header_dim = draw(st.sampled_from([dim, dim, dim, dim + 1, 0]))
    header_classes = draw(st.sampled_from([classes, classes, classes, 1, 10 ** 30]))
    body = "".join(line + draw(st.sampled_from(_BREAKS[:3])) for line in lines)
    return f"# d={header_dim} classes={header_classes}\n" + body


def _loaded(path):
    """What `load_feature_table` gives: each array's dtype, shape and bytes
    (values, for object arrays), or the exception's type and message."""
    try:
        ds = load_feature_table(path)
    except Exception as exc:  # noqa: BLE001 - the two readers must fail alike
        return type(exc).__name__, str(exc)
    return ds.class_count, [(a.dtype.str, a.shape, a.flags.c_contiguous,
                             a.tolist() if a.dtype == object else a.tobytes())
                            for a in (ds.features, ds.labels, ds.domain_tags)]


class TestFeatureTableReaders:
    """The bulk reader is exact: wherever it accepts a table, the per-line
    loop gives the same arrays, and elsewhere the loop runs."""

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mutated_tables())
    @example("# d=2 classes=2\n")
    @example("")
    @example("# d=2 classes=2\n0,0,1.0,2.0\n\n1,1,3.0,4.0\n")
    @example("# d=2 classes=2\r\n0,0,1.0,2.0\r\n1,1,3.0,4.0\r\n")
    @example("# d=2 classes=2\r0,0,1.0,2.0\r1,1,3.0,4.0")
    @example("# d=2 classes=2\n0,0,1_000,2.0\n")
    @example("# d=2 classes=2\n0,0,\u0661.5,2.0\n")
    @example("# d=2 classes=2\n1.0,0,1.0,2.0\n")
    @example("# d=2 classes=2\n0," + str(2 ** 53 + 1) + ",1.0,2.0\n")
    @example("# d=2 classes=2\n0," + str(2 ** 63) + ",1.0,2.0\n")
    @example("# d=2 classes=2\n0,0,1.0\x0c,2.0\n")
    @example("# d=2 classes=2\n0,0,1.0,2.0,\n")
    @example("# d=2 classes=2\n0,0,1e400,2.0\n")
    @example("# d=2 classes=2\n0,0,\x1f1.0,2.0\n")
    def test_bulk_reader_matches_per_line_loop(self, tmp_path, text):
        path = tmp_path / "table.txt"
        path.write_text(text, encoding="utf-8", newline="")
        loaded = _loaded(str(path))
        with mock.patch.object(data, "_bulk_table", lambda *args: None):
            assert loaded == _loaded(str(path))

    @pytest.mark.parametrize("ending, blank", [("\n", False), ("\r\n", False), ("\n", True)])
    def test_repr_table_never_reaches_per_line_loop(self, tmp_path, monkeypatch, ending, blank):
        # a silent fallback would keep every other test green and lose the speed
        ds = generate_synthetic_dataset(SyntheticSpec(classes=3, feature_dim=16,
                                                      samples_per_class=5),
                                        np.random.default_rng(3))
        ds.domain_tags = np.arange(len(ds)) - 7
        path = tmp_path / "table.txt"
        save_feature_table(ds, str(path))
        lines = path.read_text().splitlines()
        if blank:
            lines.insert(3, "")
        path.write_text(ending.join(lines) + ending, newline="")

        def no_loop(*args):
            raise AssertionError("the per-line loop ran")

        monkeypatch.setattr(data, "_read_rows", no_loop)
        loaded = load_feature_table(str(path))
        for got, want in ((loaded.features, ds.features), (loaded.labels, ds.labels),
                          (loaded.domain_tags, ds.domain_tags)):
            assert got.dtype == want.dtype and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()
