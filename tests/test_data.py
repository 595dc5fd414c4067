"""Synthetic generation, partitioners, splits, shifts, and table files."""

import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fedprompt import data
from fedprompt.data import (
    ClientDataset,
    DomainShift,
    MasterDataset,
    apply_domain_shift,
    balanced_subsample_indices,
    base_novel_split,
    dirichlet_partition,
    generate_synthetic_dataset,
    kshot_iid_partition,
    load_feature_table,
    mirror_partition,
    PartitionPlan,
    RegionNoise,
    stratified_split,
)
from oracle import (
    rotate_planes_loop,
    save_feature_table,
    shift_whole_master,
    synth_local_features,
    uncut_slice,
)
from fedprompt.algorithms import region_costs, transport_costs
from fedprompt.errors import ConfigError, DataError, DomainError
from fedprompt.vlm import unit_rows
from fedprompt import rngs, vlm


def traced_peak(call) -> int:
    """The peak bytes that `tracemalloc` traces while `call()` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
        spec = dict(classes=4, width=32, noise_sigma=0.0, samples_per_class=3)
        ds = generate_synthetic_dataset(**spec, rng=np.random.default_rng(0))
        for c in range(4):
            rows = ds.features[ds.labels == c]
            assert np.all(rows == rows[0])

    def test_deterministic_given_seed(self):
        spec = dict(classes=3, width=32, noise_sigma=0.1, samples_per_class=5)
        a = generate_synthetic_dataset(**spec, rng=np.random.default_rng(9))
        b = generate_synthetic_dataset(**spec, rng=np.random.default_rng(9))
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_nearest_prototype_classifier_oracle(self):
        # independent oracle: classify by nearest noiseless prototype
        spec = dict(classes=10, width=64, noise_sigma=0.1, samples_per_class=30)
        clean = dict(classes=10, width=64, noise_sigma=0.0, samples_per_class=1)
        rng_seed = 4
        ds = generate_synthetic_dataset(**spec, rng=np.random.default_rng(rng_seed))
        protos = generate_synthetic_dataset(**clean, rng=np.random.default_rng(rng_seed)).features
        pred = (ds.features @ protos.T).argmax(axis=1)
        assert (pred == ds.labels).mean() > 0.99

    def test_prototypes_near_orthogonal(self):
        spec = dict(classes=10, width=64, noise_sigma=0.0, samples_per_class=1)
        protos = generate_synthetic_dataset(**spec, rng=np.random.default_rng(1)).features
        gram = np.abs(protos @ protos.T - np.eye(10))
        assert gram.max() < 0.5

    def test_rejection_failure_when_dim_too_small(self):
        # three pairwise-near-orthogonal unit vectors cannot fit in the plane
        spec = dict(classes=3, width=2, noise_sigma=0.1, samples_per_class=1)
        with pytest.raises(ConfigError, match="too small"):
            generate_synthetic_dataset(**spec, rng=np.random.default_rng(0))


def shift_all(dataset, shift):
    """`apply_domain_shift` of every row of the dataset."""
    return apply_domain_shift(dataset, shift, np.arange(len(dataset)))


class TestDomainShift:
    @pytest.fixture
    def dataset(self):
        spec = dict(classes=4, width=32, noise_sigma=0.05, samples_per_class=10)
        return generate_synthetic_dataset(**spec, rng=np.random.default_rng(2))

    def test_identity_transform(self, dataset):
        out = shift_all(dataset, DomainShift())
        np.testing.assert_allclose(out.features, dataset.features, atol=1e-12)
        np.testing.assert_array_equal(out.labels, dataset.labels)

    def test_half_turn_reflects_in_plane(self, dataset):
        # every coordinate of the 32 is in a plane, so a half turn negates them all
        out = data._rotate_planes(dataset.features, np.pi)
        np.testing.assert_allclose(out, -dataset.features, atol=1e-12)

    def test_noise_monotonically_decreases_alignment(self, dataset):
        # measured trend over five increasing noise levels
        cosines = []
        for k, sigma in enumerate((0.0, 0.1, 0.3, 0.8, 2.0)):
            out = shift_all(dataset, DomainShift(noise_sigma=sigma, seed=5))
            cosines.append(float((out.features * dataset.features).sum(axis=1).mean()))
        assert all(b < a for a, b in zip(cosines, cosines[1:]))

    def test_nonfinite_parameters(self, dataset):
        with pytest.raises(DomainError, match="must be finite"):
            shift_all(dataset, DomainShift(angle=np.inf))


def dense_rotation(d: int, angle: float, planes=None) -> np.ndarray:
    """Oracle: product of one dense d x d Givens matrix per plane, first plane rightmost;
    the planes default to the disjoint pairs (2k, 2k + 1) that a domain shift rotates."""
    if planes is None:
        planes = tuple((2 * k, 2 * k + 1) for k in range(d // 2))
    R = np.eye(d)
    cs, sn = np.cos(angle), np.sin(angle)
    for i, j in planes:
        G = np.eye(d)
        G[i, i] = cs
        G[j, j] = cs
        G[i, j] = -sn
        G[j, i] = sn
        R = G @ R
    return R


def dense_shift_oracle(dataset: MasterDataset, shift: DomainShift) -> np.ndarray:
    x = dataset.features @ dense_rotation(dataset.feature_dim, shift.angle).T
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
        out = shift_all(ds, shift)
        np.testing.assert_allclose(out.features, dense_shift_oracle(ds, shift), rtol=0, atol=1e-12)
        if d % 2:  # the unpaired last axis is not rotated
            np.testing.assert_allclose(out.features[:, -1], ds.features[:, -1], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", [512, 33])
    @pytest.mark.parametrize("angle", [0.7, 2.1])
    def test_rotation_is_bitwise_the_plane_loop(self, d, angle):
        ds = self.dataset(d)
        planes = [(2 * k, 2 * k + 1) for k in range(d // 2)]
        out = data._rotate_planes(ds.features, angle)
        assert out.tobytes() == rotate_planes_loop(ds.features, planes, angle).tobytes()

    def test_overlapping_planes_apply_in_order(self):
        # the loop oracle against the dense one, on planes a shift never uses
        ds = self.dataset(6)
        planes = ((0, 1), (1, 2), (0, 2))
        out = rotate_planes_loop(ds.features, planes, 0.9)
        np.testing.assert_allclose(out, ds.features @ dense_rotation(6, 0.9, planes).T,
                                   rtol=0, atol=1e-12)
        # order matters: the reversed sequence is a different rotation
        assert np.abs(rotate_planes_loop(ds.features, planes[::-1], 0.9) - out).max() > 1e-3

    def test_noise_matches_dense_product(self):
        ds = self.dataset(33)
        shift = DomainShift(angle=0.5, noise_sigma=0.2, seed=3)
        out = shift_all(ds, shift)
        np.testing.assert_allclose(out.features, dense_shift_oracle(ds, shift), rtol=0, atol=1e-12)


class TestBalancedSubsample:
    def test_full_class_size_keeps_class(self):
        labels = np.repeat([0, 1, 2], 5)
        idx = balanced_subsample_indices(labels, 5, np.random.default_rng(0))
        assert len(idx) == 15
        np.testing.assert_array_equal(np.bincount(labels[idx]), [5, 5, 5])

    def test_counts_eight_per_class(self):
        spec = dict(classes=10, width=32, noise_sigma=0.1, samples_per_class=20)
        ds = generate_synthetic_dataset(**spec, rng=np.random.default_rng(0))
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

    @pytest.mark.parametrize("alpha", [0.0, -1.0])
    def test_bad_alpha(self, alpha):
        # numpy rejects the draw: a negative alpha in `dirichlet`, the zero
        # shares it draws for alpha 0 in `choice`
        with pytest.raises(ValueError):
            dirichlet_partition(np.zeros(4, dtype=int), 2, alpha, np.random.default_rng(0))


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
        base, novel = base_novel_split(4, mode="first_half", seed=0)
        np.testing.assert_array_equal(base, [0, 1])
        np.testing.assert_array_equal(novel, [2, 3])

    def test_seed_aligned(self):
        a = base_novel_split(10, mode="random", seed=5)
        b = base_novel_split(10, mode="random", seed=5)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_ceiling_rule(self):
        base, novel = base_novel_split(101, mode="first_half", seed=0)
        assert len(base) == 51 and len(novel) == 50

    def test_disjoint_covering(self):
        base, novel = base_novel_split(9, mode="random", seed=3)
        union = np.sort(np.concatenate([base, novel]))
        np.testing.assert_array_equal(union, np.arange(9))


class TestShiftedRows:
    """A shift of some rows holds those rows, under their master ids, equal
    bit for bit to the same rows of the whole dataset's shift."""

    @staticmethod
    def dataset(d: int, n: int = 40) -> MasterDataset:
        rng = np.random.default_rng(d)
        return MasterDataset(features=unit_rows(rng.normal(size=(n, d))),
                             labels=np.arange(n) % 4, class_count=4)

    @staticmethod
    def assert_rows_of_whole_shift(ds, shift, rows):
        out = apply_domain_shift(ds, shift, rows)
        ids = np.unique(rows)
        whole = shift_whole_master(ds, shift)
        np.testing.assert_array_equal(out.master_indices, ids)
        assert out.features.shape == (len(ids), ds.feature_dim)
        assert out.features.tobytes() == whole.features[ids].tobytes()
        np.testing.assert_array_equal(out.labels, ds.labels[ids])

    @pytest.mark.parametrize("d", [33, 512])
    @pytest.mark.parametrize("k", [1, 2])  # the shifts of `evaluation.cross_domain_targets`
    def test_first_and_last_rows(self, d, k):
        shift = DomainShift(angle=0.3 + 0.2 * k, noise_sigma=0.05 * k, seed=k)
        ds = self.dataset(d)
        for rows in ([0], [len(ds) - 1], [len(ds) - 1, 0, 0], np.arange(len(ds))):
            self.assert_rows_of_whole_shift(ds, shift, rows)

    def test_two_seed_union_of_test_rows(self, monkeypatch):
        # the test rows of seeds 0 and 1, noise drawn in blocks of three rows
        monkeypatch.setattr(vlm, "_BLOCK_BYTES", 3 * 33 * 8)
        ds = self.dataset(33)
        tests = [stratified_split(ds.labels, (0.7, 0.1, 0.2), rngs.derive_rng(s, rngs.TVT))[2]
                 for s in (0, 1)]
        union = np.concatenate(tests)
        assert len(np.unique(union)) > max(len(t) for t in tests)
        self.assert_rows_of_whole_shift(ds, DomainShift(angle=0.7, noise_sigma=0.1, seed=2), union)

    def test_row_the_noise_does_not_keep_raises(self):
        ds = self.dataset(8)
        target = apply_domain_shift(ds, DomainShift(angle=0.5, noise_sigma=0.1, seed=1), [4, 2, 9])
        shape = (len(ds), 2, 8)
        with pytest.raises(DataError, match="row 2 is not among the 1 kept rows"):
            ds.ensure_local_maps(2, [target], {shape: RegionNoise(shape, [3])})

    def test_peak_memory_follows_the_kept_rows(self):
        # 200 of 4000 rows shifted: the draw and the rows take memory in
        # proportion to those rows, not to the whole (n, d) dataset
        n, d = 4000, 64
        ds = self.dataset(d, n)
        rows = np.sort(np.random.default_rng(0).choice(n, size=200, replace=False))
        shift = DomainShift(angle=0.5, noise_sigma=0.1, seed=1)
        assert traced_peak(lambda: apply_domain_shift(ds, shift, rows)) < 0.5 * n * d * 8


def per_sample_maps(features, M):
    """The region-feature oracle: one (M, d) draw per sample, in row order,
    from the map stream at seed 0, with spread 0.1."""
    rng = rngs.derive_rng(0, rngs.LOCAL_MAP)
    return np.stack([unit_rows(f[None, :] + 0.1 * rng.normal(size=(M, f.shape[0])))
                     for f in features])


def local_maps(master, M, rows, table) -> list:
    """The region features of the slices of master ids `rows`, built whole
    from the regions `master.ensure_local_maps` gives them."""
    slices = [ClientDataset.from_master(master, r) for r in rows]
    return [part.regions.build(part.features)
            for part in master.ensure_local_maps(M, slices, table)]


def keep_rows(dataset, M, rows=None) -> dict:
    """A region-noise table that keeps `rows` (all by default) of the
    dataset's (n, M, d) stream."""
    shape = (len(dataset), M, dataset.feature_dim)
    return {shape: RegionNoise(shape, np.arange(len(dataset)) if rows is None else rows)}


class TestLocalMaps:
    """Region features are a pure function of the rows asked for and the kept
    rows of one shared noise stream."""

    @pytest.fixture
    def master(self, rng):
        return MasterDataset(features=unit_rows(rng.normal(size=(6, 5))),
                             labels=np.arange(6) % 3, class_count=3)

    def test_each_key_gets_its_own_maps(self, master):
        rows, table = [np.arange(6)], {**keep_rows(master, 3), **keep_rows(master, 2)}
        [first] = local_maps(master, 3, rows, table)
        assert local_maps(master, 2, rows, table)[0].shape == (6, 2, 5)
        # the first key again: the same values
        np.testing.assert_array_equal(local_maps(master, 3, rows, table)[0], first)

    def test_maps_match_per_sample_draws(self, master):
        expected = per_sample_maps(master.features, 3)
        for rows in ([np.arange(6)],
                     [np.array([4, 1]), np.array([], dtype=np.int64), np.array([0]),
                      np.array([2, 2, 5])]):
            for table in (keep_rows(master, 3), keep_rows(master, 3, np.concatenate(rows))):
                maps = local_maps(master, 3, rows, table)
                assert len(maps) == len(rows)
                for r, got in zip(rows, maps):
                    np.testing.assert_array_equal(got, expected[r])

    def test_maps_built_in_blocks_match_per_sample_draws(self, master, monkeypatch):
        # two rows a block: the stream is drawn, and a 5-row slice's norms
        # taken, in blocks
        monkeypatch.setattr(vlm, "_BLOCK_BYTES", 2 * 3 * 5 * 8)
        rows = np.array([5, 0, 3, 1, 4])
        table = keep_rows(master, 3, rows)
        assert vlm.row_blocks(5, (3, 5)) == [slice(0, 2), slice(2, 4), slice(4, 5)]
        [got] = local_maps(master, 3, [rows], table)
        np.testing.assert_array_equal(got, per_sample_maps(master.features, 3)[rows])

    def test_shifted_targets_match_per_sample_draws(self, master):
        # a target that holds some rows maps them as the whole shift would
        for k in (1, 2):  # the shifts of `evaluation.cross_domain_targets`
            shift = DomainShift(angle=0.3 + 0.2 * k, noise_sigma=0.05 * k, seed=k)
            target = apply_domain_shift(master, shift, [5, 0, 3])
            expected = per_sample_maps(shift_whole_master(master, shift).features, 3)
            [got] = master.ensure_local_maps(3, [target], keep_rows(master, 3))
            np.testing.assert_array_equal(got.regions.build(got.features), expected[[0, 3, 5]])

    def test_regions_are_read_only_and_stay_with_their_dataset(self, master):
        slices = [ClientDataset.from_master(master, r) for r in (np.arange(6), np.array([1, 4]))]
        table = keep_rows(master, 3)
        full, part = master.ensure_local_maps(3, slices, table)
        for regions in (full.regions, part.regions):
            for array in (regions.at, regions.norms):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 1.0
        np.testing.assert_array_equal(part.regions.build(part.features),
                                      full.regions.build(full.features)[[1, 4]])
        # a slice keeps its positions and norms and shares the kept noise;
        # neither the dataset nor the given slices keep regions, and no
        # region feature is kept
        assert part.features is slices[1].features
        assert set(vars(part.regions)) == {"noise", "at", "norms"}
        assert part.regions.noise is full.regions.noise is table[(6, 3, 5)].values()
        assert (part.regions.at.shape, part.regions.norms.shape) == ((2,), (2, 3, 1))
        assert set(vars(master)) == {"features", "labels", "class_count", "kept"}
        assert master.kept is None
        assert all(given.regions is None for given in slices)
        with pytest.raises(dataclasses.FrozenInstanceError):
            part.regions = None

    def test_zero_region_feature_raises(self):
        # a region feature with no length cannot be normalised: the regions
        # fail as they are made (0.1 * -10 is exactly -1)
        noise = np.zeros((1, 2, 5))
        noise[0, 1, 0] = -10.0
        with pytest.raises(DomainError, match="local features contain a zero row"):
            data.Regions.of(np.eye(5)[[1, 0]], noise, np.array([0, 0]))

    def test_noise_is_one_read_only_draw_per_shape(self, master):
        # the table keeps the rows asked for of one draw per (n, M, d), made
        # once and shared by a dataset of the same shape such as a shifted target
        table = keep_rows(master, 3, [4, 1, 4, 2])
        noise = table[(6, 3, 5)]
        target = apply_domain_shift(master, DomainShift(angle=0.5), [1])
        master.ensure_local_maps(3, [target], table)
        values = noise.values()
        local_maps(master, 3, [np.array([2, 4])], table)
        assert noise.values() is values
        np.testing.assert_array_equal(noise.rows.ids, [1, 2, 4])
        full = rngs.derive_rng(0, rngs.LOCAL_MAP).normal(size=(6, 3, 5))
        np.testing.assert_array_equal(values, full[[1, 2, 4]])
        for array in (values, noise.rows.ids):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    def test_peak_memory_follows_the_kept_rows(self):
        # 300 of 4000 rows kept and mapped: the draw and the maps take memory
        # in proportion to those rows, not to the whole (n, M, d) stream
        rng = np.random.default_rng(0)
        n, M, d = 4000, 4, 64
        master = MasterDataset(features=unit_rows(rng.normal(size=(n, d))),
                               labels=np.zeros(n, dtype=np.int64), class_count=1)
        rows = np.sort(rng.choice(n, size=300, replace=False))
        table = keep_rows(master, M, rows)
        slices = [ClientDataset.from_master(master, r) for r in (rows[:200], rows[100:])]
        peak = traced_peak(lambda: master.ensure_local_maps(M, slices, table))
        assert peak < 0.5 * n * M * d * 8

    def test_row_outside_the_kept_rows_raises(self, master):
        table = keep_rows(master, 3, [1, 2])
        with pytest.raises(DataError, match="row 5 is not among the 2 kept rows"):
            local_maps(master, 3, [np.array([2]), np.array([1, 5])], table)
        # a shape the table does not keep: no row of it is kept
        with pytest.raises(DataError, match="row 0 is not among the 0 kept rows"):
            local_maps(master, 2, [np.array([0])], table)


class TestCutDataset:
    """A dataset cut to some of its rows reads those rows as the whole
    dataset does, and fails on any other."""

    KEPT = np.array([1, 4, 5, 9])

    @pytest.fixture
    def whole(self, rng):
        return MasterDataset(features=unit_rows(rng.normal(size=(12, 6))),
                             labels=np.arange(12) % 3, class_count=3)

    def test_kept_rows_are_the_whole_dataset_rows(self, whole):
        cut = whole.cut([9, 4, 1, 5, 4])  # any order, repeats allowed
        np.testing.assert_array_equal(cut.kept.ids, self.KEPT)
        assert cut.features.shape == (4, 6)
        for rows in ([5, 1, 9], [4], self.KEPT, []):
            got, want = ClientDataset.from_master(cut, rows), uncut_slice(whole, rows)
            assert got.features.tobytes() == want.features.tobytes()
            np.testing.assert_array_equal(got.labels, want.labels)
            np.testing.assert_array_equal(got.master_indices, want.master_indices)

    def test_length_and_width_are_the_whole_dataset_ones(self, whole):
        for rows in (self.KEPT, []):
            cut = whole.cut(rows)
            assert (len(cut), cut.feature_dim) == (len(whole), whole.feature_dim) == (12, 6)
            assert cut.labels is whole.labels and cut.class_count == whole.class_count

    def test_row_not_kept_raises_naming_it(self, whole):
        cut = whole.cut(self.KEPT)
        with pytest.raises(DataError, match="row 2 is not among the 4 kept rows of a dataset cut"):
            ClientDataset.from_master(cut, [1, 2])
        with pytest.raises(DataError, match="row 11 is not among the 4 kept rows"):
            apply_domain_shift(cut, DomainShift(angle=0.4), [11])
        with pytest.raises(DataError, match="row 0 is not among the 0 kept rows"):
            ClientDataset.from_master(whole.cut([]), [0])

    def test_local_maps_equal_the_whole_dataset_ones(self, whole):
        cut, table = whole.cut(self.KEPT), keep_rows(whole, 3, self.KEPT)
        for rows in ([5, 1], [9, 4, 1]):
            [got] = cut.ensure_local_maps(3, [ClientDataset.from_master(cut, rows)], table)
            [want] = whole.ensure_local_maps(3, [uncut_slice(whole, rows)], table)
            assert got.regions.noise is want.regions.noise
            for a, b in ((got.regions.at, want.regions.at),
                         (got.regions.norms, want.regions.norms),
                         (got.regions.build(got.features), want.regions.build(want.features))):
                assert a.tobytes() == b.tobytes()

    def test_cut_holds_a_copy_of_its_rows(self, whole):
        cut = whole.cut(self.KEPT)
        assert not np.shares_memory(cut.features, whole.features)


class TestRegionBlocks:
    """Any block of rows' region features, built at any block size, equals
    the same rows of the whole slice's, bit for bit: of `oracle.synth_local_features`
    over the slice at once."""

    M, N_ROWS = 3, 23

    @pytest.fixture
    def master(self):
        rng = np.random.default_rng(4)
        return MasterDataset(features=unit_rows(rng.normal(size=(self.N_ROWS, 7))),
                             labels=np.arange(self.N_ROWS) % 3, class_count=3)

    @staticmethod
    def whole(part, table) -> np.ndarray:
        """The slice's region features from one call over all its rows."""
        [noise] = table.values()
        return synth_local_features(part.features,
                                    noise.values()[noise.rows.positions(part.master_indices)])

    def slices(self, master):
        """A slice in id order, one in another order, and a shifted target."""
        rng = np.random.default_rng(1)
        shift = DomainShift(angle=0.5, noise_sigma=0.05, seed=2)
        return [ClientDataset.from_master(master, np.arange(self.N_ROWS)),
                ClientDataset.from_master(master, rng.permutation(self.N_ROWS)[:17]),
                apply_domain_shift(master, shift, rng.choice(self.N_ROWS, 15, replace=False))]

    @pytest.mark.parametrize("block", [1, 2, 3, 7, 23, 64])
    def test_blocks_and_subsets_equal_the_whole(self, master, monkeypatch, block):
        monkeypatch.setattr(vlm, "_BLOCK_BYTES", block * self.M * 7 * 8)
        table = keep_rows(master, self.M)
        rng = np.random.default_rng(block)
        for part in master.ensure_local_maps(self.M, self.slices(master), table):
            regions, whole = part.regions, self.whole(part, table)
            images = part.features
            assert regions.build(images).tobytes() == whole.tobytes()
            cuts = regions.blocks()
            assert [c.start for c in cuts] == list(range(0, len(part), block))
            for cut in cuts:
                assert regions.build(images, cut).tobytes() == whole[cut].tobytes()
            # rows that straddle a block boundary, and any subset in any order
            for at in (slice(block - 1, block + 1), slice(len(part) - 1, None),
                       rng.permutation(len(part))[:5], np.array([3, 3, 0])):
                assert regions.take(at).build(images[at]).tobytes() == whole[at].tobytes()
                rows = part.take(at)
                assert rows.regions.build(rows.features).tobytes() == whole[at].tobytes()

    @pytest.mark.parametrize("block", [1, 3, 16])
    def test_costs_built_in_blocks_equal_the_whole(self, monkeypatch, block):
        # at d = 512, where a product's rows could change with the batch
        rng = np.random.default_rng(block)
        n, M, d = 40, 4, 512
        master = MasterDataset(features=unit_rows(rng.normal(size=(n, d))),
                               labels=np.zeros(n, dtype=np.int64), class_count=1)
        monkeypatch.setattr(vlm, "_BLOCK_BYTES", block * M * d * 8)
        table = keep_rows(master, M)
        [part] = master.ensure_local_maps(M, [ClientDataset.from_master(master, np.arange(n))],
                                          table)
        feats = unit_rows(rng.normal(size=(2, 5, d)))
        costs = region_costs(part.features, part.regions, feats)
        assert costs.tobytes() == transport_costs(self.whole(part, table), feats).tobytes()


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
        )
        path = tmp_path / "table.txt"
        save_feature_table(ds, str(path))
        loaded = load_feature_table(str(path))
        np.testing.assert_array_equal(loaded.features, ds.features)
        np.testing.assert_array_equal(loaded.labels, ds.labels)
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

    def test_load_holds_at_most_one_copy_of_the_text(self, tmp_path):
        # 8000 short lines: a loader that held the text and a list of its
        # lines at once would peak above twice the file's size
        ds = generate_synthetic_dataset(classes=4, width=8, noise_sigma=0.1,
                                        samples_per_class=2000, rng=np.random.default_rng(1))
        path = tmp_path / "table.txt"
        save_feature_table(ds, str(path))
        peak = traced_peak(lambda: load_feature_table(str(path)))
        assert peak < 2 * path.stat().st_size

    def test_partition_equivalence_after_reload(self, tmp_path, rng):
        spec = dict(classes=4, width=32, noise_sigma=0.1, samples_per_class=10)
        ds = generate_synthetic_dataset(**spec, rng=np.random.default_rng(7))
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
                            for a in (ds.features, ds.labels)]


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
        ds = generate_synthetic_dataset(classes=3, width=16, noise_sigma=0.1,
                                        samples_per_class=5, rng=np.random.default_rng(3))
        path = tmp_path / "table.txt"
        save_feature_table(ds, str(path))
        lines = path.read_text().splitlines()
        for i in range(1, len(lines)):  # domain tags -7, -6, ...: checked, not kept
            label, _tag, values = lines[i].split(",", 2)
            lines[i] = f"{label},{i - 8},{values}"
        if blank:
            lines.insert(3, "")
        path.write_text(ending.join(lines) + ending, newline="")

        def no_loop(*args):
            raise AssertionError("the per-line loop ran")

        monkeypatch.setattr(data, "_read_rows", no_loop)
        loaded = load_feature_table(str(path))
        for got, want in ((loaded.features, ds.features), (loaded.labels, ds.labels)):
            assert got.dtype == want.dtype and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()
