"""Entropic transport: marginals, optimality, relaxation, and class scoring."""

import numpy as np
import pytest

from conftest import random_unit_batch, small_config
from oracle import regions_of, transport_probs_alone
from test_data import keep_rows, traced_peak
from transport_oracle import (
    sinkhorn,
    sinkhorn_batched_all_iters,
    sinkhorn_relaxed,
    sinkhorn_relaxed_2d,
    uniform,
)
from fedprompt.algorithms import CosinePredictor, TransportPredictor, transport_probs
from fedprompt.data import ClientDataset, MasterDataset
from fedprompt.errors import DomainError
from fedprompt.evaluation import evaluate_predictor
from fedprompt.transport import sinkhorn_batched
from fedprompt.vlm import build_assets, unit_rows


def transport_score(local: np.ndarray, prompt: np.ndarray, eps: float, iters: int = 100,
                    col_relax: float = 1.0) -> float:
    """Negative transport cost between unit region and prompt features."""
    cost = 1.0 - local @ prompt.T
    plan = sinkhorn_relaxed(cost, eps, iters, col_relax=col_relax)
    return float(-(plan * cost).sum())


def brute_force_min_cost_2x2(cost: np.ndarray) -> float:
    """Enumerate 2x2 couplings with uniform marginals on a fine grid."""
    best = np.inf
    for a in np.linspace(0.0, 0.5, 5001):
        plan = np.array([[a, 0.5 - a], [0.5 - a, a]])
        best = min(best, float((plan * cost).sum()))
    return best


class TestSinkhorn:
    def test_constant_cost_uniform_plan(self):
        plan = sinkhorn(np.full((3, 4), 2.5), eps=0.1, iters=50)
        np.testing.assert_allclose(plan, np.full((3, 4), 1.0 / 12), atol=1e-12)

    def test_small_eps_matches_brute_force(self):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        plan = sinkhorn(cost, eps=0.01, iters=100)
        np.testing.assert_allclose(plan, [[0.5, 0.0], [0.0, 0.5]], atol=1e-3)
        # transport value agrees with enumeration of all feasible couplings
        assert (plan * cost).sum() == pytest.approx(brute_force_min_cost_2x2(cost), abs=1e-3)

    def test_marginals_within_tolerance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m, n = rng.integers(2, 7, size=2)
            cost = rng.uniform(0, 2, size=(m, n))
            plan = sinkhorn(cost, eps=0.2, iters=200)
            np.testing.assert_allclose(plan.sum(axis=1), uniform(m), atol=1e-6)
            np.testing.assert_allclose(plan.sum(axis=0), uniform(n), atol=1e-6)
            assert np.all(plan >= 0)

    def test_beats_product_coupling(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            m, n = rng.integers(2, 6, size=2)
            cost = rng.uniform(0, 3, size=(m, n))
            plan = sinkhorn(cost, eps=0.1, iters=300)
            independent = np.outer(uniform(m), uniform(n))
            assert (plan * cost).sum() <= (independent * cost).sum() + 1e-9

    def test_nonfinite_cost(self):
        with pytest.raises(DomainError):
            sinkhorn(np.array([[np.inf, 0.0], [0.0, 1.0]]), eps=0.1)

    def test_bad_eps(self):
        with pytest.raises(DomainError, match="must be positive"):
            sinkhorn(np.zeros((2, 2)), eps=0.0)


class TestRelaxed:
    def test_relax_one_equals_balanced(self):
        rng = np.random.default_rng(7)
        cost = rng.uniform(0, 2, size=(4, 3))
        balanced = sinkhorn(cost, eps=0.15, iters=100)
        relaxed = sinkhorn_relaxed(cost, eps=0.15, iters=100, col_relax=1.0)
        assert np.max(np.abs(balanced - relaxed)) < 1e-9

    def test_relax_zero_ignores_columns(self):
        rng = np.random.default_rng(8)
        cost = rng.uniform(0, 2, size=(3, 5))
        plan = sinkhorn_relaxed(cost, eps=0.2, iters=100, col_relax=0.0)
        np.testing.assert_allclose(plan.sum(axis=1), uniform(3), atol=1e-12)
        # column sums are free to deviate from uniform
        assert np.max(np.abs(plan.sum(axis=0) - uniform(5))) > 1e-3

    def test_rows_exact_for_partial_relax(self):
        rng = np.random.default_rng(9)
        cost = rng.uniform(0, 1, size=(4, 4))
        plan = sinkhorn_relaxed(cost, eps=0.1, iters=150, col_relax=0.5)
        np.testing.assert_allclose(plan.sum(axis=1), uniform(4), atol=1e-12)

    def test_relax_out_of_range(self):
        with pytest.raises(DomainError, match="col_relax"):
            sinkhorn_relaxed(np.zeros((2, 2)), eps=0.1, col_relax=1.5)


class TestBatched:
    def test_matches_single_solver(self):
        rng = np.random.default_rng(4)
        costs = rng.uniform(0, 2, size=(3, 2, 4, 5))
        r, c = uniform(4), uniform(5)
        for relax in (0.0, 0.5, 1.0):
            plans = sinkhorn_batched(costs, eps=0.2, iters=80, col_relax=relax)
            for i, j in np.ndindex(3, 2):
                single = sinkhorn_relaxed_2d(costs[i, j], 0.2, 80, r, c, relax)
                np.testing.assert_allclose(plans[i, j], single, rtol=0, atol=1e-12)

    def test_uniform_marginals_by_default(self):
        # every problem of the stack: rows exactly uniform, columns converged to it
        plans = sinkhorn_batched(np.random.default_rng(5).uniform(0, 2, size=(2, 3, 4)),
                                 eps=0.2, iters=300)
        np.testing.assert_allclose(plans.sum(axis=-1), [uniform(3)] * 2, rtol=0, atol=1e-15)
        np.testing.assert_allclose(plans.sum(axis=-2), [uniform(4)] * 2, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_costs(self, bad):
        costs = np.zeros((2, 3, 4))
        costs[1, 2, 0] = bad
        with pytest.raises(DomainError, match="non-finite"):
            sinkhorn_batched(costs, eps=0.1)

    def test_not_a_matrix_stack(self):
        with pytest.raises(DomainError):
            sinkhorn_batched(np.zeros(4), eps=0.1)


def count_passes(monkeypatch) -> list:
    """A list that grows by one per scaling pass of `sinkhorn_batched`, which
    makes one `np.array_equal` call per pass, and none to close."""
    array_equal, calls = np.array_equal, []
    monkeypatch.setattr(np, "array_equal", lambda *a, **k: calls.append(1) or array_equal(*a, **k))
    return calls


class TestFixedPointExit:
    """The scaling loop stops once a pass changes no bit; the plans must not notice."""

    @staticmethod
    def transport_costs(rng, n_sets):
        # the trainers' stack: (batch, classes, regions, prompt sets) of 1 - cosine
        regions = unit_rows(rng.normal(size=(8, 4, 16)))
        prompts = unit_rows(rng.normal(size=(5, n_sets, 16)))
        return 1.0 - np.einsum("bmd,cnd->bcmn", regions, prompts)

    @pytest.mark.parametrize("n_sets,col_relax,stops", [
        (1, 1.0, True),    # PLOT: one prompt set per class (N = 1), balanced
        (2, 0.5, True),    # FedOTP: two prompt sets (N = 2), relaxed columns
        (2, 1.0, False),   # still moving in its last bits after 100 passes
    ])
    def test_plans_equal_all_iterations_bitwise(self, n_sets, col_relax, stops, monkeypatch):
        costs = self.transport_costs(np.random.default_rng(n_sets), n_sets)
        expected = sinkhorn_batched_all_iters(costs, 0.1, 100, col_relax)
        passes = count_passes(monkeypatch)
        plans = sinkhorn_batched(costs, eps=0.1, iters=100, col_relax=col_relax)
        monkeypatch.undo()
        assert plans.tobytes() == expected.tobytes()
        assert (len(passes) < 100) == stops

    def test_no_fixed_point_runs_every_pass(self):
        # a stack still moving after `iters` passes is unchanged by the check
        costs = self.transport_costs(np.random.default_rng(9), 2)
        for iters in (1, 2, 5):
            assert sinkhorn_batched(costs, eps=0.1, iters=iters).tobytes() == \
                sinkhorn_batched_all_iters(costs, 0.1, iters).tobytes()


class TestStackIndependence:
    """A problem's plan does not depend on what else is stacked with it."""

    ITERS = 50  # about half of the N = 2 problems still move after this many passes

    @staticmethod
    def part_costs(rng, size, n_regions, n_sets):
        regions = unit_rows(rng.normal(size=(size, n_regions, 16)))
        prompts = unit_rows(rng.normal(size=(size, n_sets, 16)))
        return 1.0 - np.einsum("bmd,bnd->bmn", regions, prompts)

    # N = 9 and M = 9 are long enough for numpy's pairwise summation, which
    # a one-problem part would take and a stack would not
    @pytest.mark.parametrize("n_sets", [1, 2, 9])
    @pytest.mark.parametrize("col_relax", [1.0, 0.5])
    def test_concatenation_equals_parts_bitwise(self, n_sets, col_relax, monkeypatch):
        rng = np.random.default_rng(10 * n_sets + int(2 * col_relax))
        for n_regions in (4, 9):
            sizes = [1] * 6 + [2, 100] + rng.integers(1, 101, size=25).tolist()
            parts = [self.part_costs(rng, size, n_regions, n_sets) for size in sizes]
            passes = count_passes(monkeypatch)
            alone, counts = [], []
            for costs in parts:
                passes.clear()
                alone.append(sinkhorn_batched(costs, eps=0.1, iters=self.ITERS,
                                              col_relax=col_relax))
                counts.append(len(passes))
            monkeypatch.undo()
            stacked = sinkhorn_batched(np.concatenate(parts), eps=0.1, iters=self.ITERS,
                                       col_relax=col_relax)
            assert stacked.tobytes() == np.concatenate(alone).tobytes(), n_regions
            if n_sets == 1 and n_regions == 4:
                # one column of four rows: the first column sum is exactly 1,
                # so v is at its fixed point after one pass
                assert set(counts) == {1}, counts
            elif n_sets == 1:  # one column: v settles within the last bits, long before the cap
                assert max(counts) < self.ITERS, counts
            elif n_sets == 2:  # parts that stop early are stacked with parts that run to the cap
                assert min(counts) < self.ITERS and self.ITERS in counts, (n_regions, counts)
            else:  # every part runs to the cap, so every pass's sums are compared
                assert set(counts) == {self.ITERS}, (n_regions, counts)


class TestUnderflow:
    """At eps=5e-4 a row of exp(-cost/eps) underflows and its mass would vanish."""

    COST = np.random.default_rng(0).uniform(0, 1, size=(4, 4))

    def test_sinkhorn_raises(self):
        with pytest.raises(DomainError, match="row marginal"):
            sinkhorn(self.COST, eps=5e-4)

    def test_relaxed_raises(self):
        with pytest.raises(DomainError, match="row marginal"):
            sinkhorn_relaxed(self.COST, eps=5e-4, col_relax=0.5)

    def test_batched_raises(self):
        rng = np.random.default_rng(1)
        costs = rng.uniform(0, 0.1, size=(3, 4, 4))
        sinkhorn_batched(costs, eps=5e-4)  # every row within reach: fine
        with pytest.raises(DomainError, match="row marginal"):
            sinkhorn_batched(np.concatenate([costs, self.COST[None]]), eps=5e-4)

    @pytest.mark.parametrize("eps", [0.0, -0.1])
    def test_batched_rejects_nonpositive_eps(self, eps):
        with pytest.raises(DomainError, match="must be positive"):
            sinkhorn_batched(np.zeros((2, 3, 3)), eps=eps)

    def test_default_eps_rows_exact(self):
        rng = np.random.default_rng(2)
        plans = sinkhorn_batched(rng.uniform(0, 2, size=(6, 4, 2)), eps=0.1)
        np.testing.assert_allclose(plans.sum(axis=-1), np.full((6, 4), 0.25), atol=1e-12)


class TestClassScore:
    """Transport scoring as the trainers' predictor uses it."""

    @pytest.fixture
    def assets(self):
        return build_assets(small_config("attention_block"), 4)

    def test_degenerate_reduces_to_cosine(self, assets, rng):
        # one region and one prompt set: the plan is [[1]] and the logit is cos - 1
        cfg = assets.cfg
        context = rng.normal(size=(1, cfg.tokens, cfg.d_token)) * 0.3
        images = rng.normal(size=(7, cfg.d_image))
        regions = regions_of(images, np.zeros((7, 1, cfg.d_image)))  # each image's unit row
        features, _ = assets.text_features(context)
        transport = TransportPredictor(features, cfg.tau, eps=0.1, iters=100, col_relax=1.0)
        cosine = CosinePredictor(features, cfg.tau)
        p_ot = transport.probs(images, regions)
        p_cos = cosine.probs(images, None)
        np.testing.assert_allclose(p_ot, p_cos, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(np.argsort(p_ot, axis=1), np.argsort(p_cos, axis=1))

    def test_stacked_predictors_score_as_alone(self, assets, rng):
        # one solve for several predictors, each on its own images, changes no bit
        cfg = assets.cfg
        predictors = [TransportPredictor(
            assets.text_features(rng.normal(size=(2, cfg.tokens, cfg.d_token)))[0], cfg.tau,
            eps=0.1, iters=100, col_relax=0.5) for _ in range(3)]
        images = [random_unit_batch(rng, n, cfg.d_image) for n in (1, 5, 2)]
        regions = [regions_of(x, rng.normal(size=(len(x), 4, cfg.d_image))) for x in images]
        stacked = transport_probs(predictors, images, regions)
        for predictor, x, part, probs in zip(predictors, images, regions, stacked):
            assert probs.tobytes() == transport_probs_alone(predictor, part.build(x)).tobytes()
        predictors[1].iters = 50
        with pytest.raises(ValueError, match="too many values to unpack"):
            transport_probs(predictors, images, regions)

    def test_image_scores_alone_as_in_batch(self, rng):
        # an image's costs come from its own regions alone (no batched matrix
        # product, whose rows can depend on the other rows), so its
        # probabilities do not depend on the images scored with it
        d = 512  # wide enough that a BLAS product's rows change with the batch
        features = unit_rows(rng.normal(size=(2, 10, d)))
        predictor = TransportPredictor(features, 0.07, eps=0.1, iters=100, col_relax=0.5)
        images = random_unit_batch(rng, 64, d)
        regions = regions_of(images, rng.normal(size=(64, 4, d)))
        batch = predictor.probs(images, regions)
        for i in range(len(images)):
            one = slice(i, i + 1)
            assert predictor.probs(images[one], regions.take(one)).tobytes() == \
                batch[one].tobytes(), i

    def test_identical_sets_zero_cost(self, rng):
        feats = unit_rows(rng.normal(size=(3, 5)))
        assert transport_score(feats, feats, eps=0.05, iters=300) == pytest.approx(0.0, abs=1e-2)

    def test_permutation_invariant_in_local_order(self, assets, rng):
        cfg = assets.cfg
        context = rng.normal(size=(2, cfg.tokens, cfg.d_token)) * 0.3
        images = rng.normal(size=(5, cfg.d_image))
        noise = rng.normal(size=(5, 4, cfg.d_image))
        predictor = TransportPredictor(assets.text_features(context)[0], cfg.tau, eps=0.1,
                                       iters=100, col_relax=0.5)
        np.testing.assert_allclose(predictor.probs(images, regions_of(images, noise)),
                                   predictor.probs(images, regions_of(images, noise[:, ::-1])),
                                   rtol=0, atol=1e-12)

    def test_relaxed_score_matches_balanced_at_full_relax(self, rng):
        local = unit_rows(rng.normal(size=(4, 6)))
        prompt = unit_rows(rng.normal(size=(2, 6)))
        cost = 1.0 - local @ prompt.T
        balanced = float(-(sinkhorn(cost, eps=0.1) * cost).sum())
        assert transport_score(local, prompt, eps=0.1, col_relax=1.0) == \
            pytest.approx(balanced, abs=1e-12)


class TestScoringMemory:
    def test_scoring_holds_a_block_of_region_features(self):
        # a 2,000-row target at M = 4, d = 512, whose whole region features
        # would be 31.25 MiB, gets its regions and is scored within 2 MiB
        # above the start: its positions and norms, a block of region
        # features, the costs and the Sinkhorn buffers (2 classes and one
        # prompt set, so that those stay small); the kept noise is drawn before
        rng = np.random.default_rng(3)
        n, M, d = 2000, 4, 512
        master = MasterDataset(features=random_unit_batch(rng, n, d),
                               labels=rng.integers(0, 2, size=n), class_count=2)
        table = keep_rows(master, M)
        table[(n, M, d)].values()
        test = ClientDataset.from_master(master, np.arange(n))
        predictor = TransportPredictor(random_unit_batch(rng, 2, d)[None], 0.07, eps=0.1,
                                       iters=100, col_relax=1.0)
        correct = []

        def score():
            [target] = master.ensure_local_maps(M, [test], table)
            correct.append(evaluate_predictor(predictor, target.features, target.labels,
                                              regions=target.regions))

        peak = traced_peak(score)
        assert 0 < correct[0] < n
        assert peak < 2 * 2**20, peak
