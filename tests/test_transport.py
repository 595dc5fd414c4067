"""Entropic transport: marginals, optimality, relaxation, and class scoring."""

import itertools

import numpy as np
import pytest

from fedprompt.errors import ConfigError, DomainError
from fedprompt.transport import (
    plot_class_score,
    relaxed_class_score,
    sinkhorn,
    sinkhorn_batched,
    sinkhorn_relaxed,
    transport_cost_matrix,
    uniform,
)
from fedprompt.vlm import unit_rows


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
            r = rng.dirichlet(np.ones(m))
            c = rng.dirichlet(np.ones(n))
            plan = sinkhorn(cost, eps=0.2, iters=200, row_marginal=r, col_marginal=c)
            np.testing.assert_allclose(plan.sum(axis=1), r, atol=1e-6)
            np.testing.assert_allclose(plan.sum(axis=0), c, atol=1e-6)
            assert np.all(plan >= 0)

    def test_beats_product_coupling(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            m, n = rng.integers(2, 6, size=2)
            cost = rng.uniform(0, 3, size=(m, n))
            r = rng.dirichlet(np.ones(m))
            c = rng.dirichlet(np.ones(n))
            plan = sinkhorn(cost, eps=0.1, iters=300, row_marginal=r, col_marginal=c)
            independent = np.outer(r, c)
            assert (plan * cost).sum() <= (independent * cost).sum() + 1e-9

    def test_nonfinite_cost(self):
        with pytest.raises(DomainError):
            sinkhorn(np.array([[np.inf, 0.0], [0.0, 1.0]]), eps=0.1)

    def test_bad_eps(self):
        with pytest.raises(ConfigError):
            sinkhorn(np.zeros((2, 2)), eps=0.0)

    def test_bad_marginals(self):
        with pytest.raises(DomainError):
            sinkhorn(np.zeros((2, 2)), eps=0.1, row_marginal=np.array([0.7, 0.7]),
                     col_marginal=uniform(2))


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
        with pytest.raises(ConfigError):
            sinkhorn_relaxed(np.zeros((2, 2)), eps=0.1, col_relax=1.5)


class TestBatched:
    def test_matches_single_solver(self):
        rng = np.random.default_rng(4)
        costs = rng.uniform(0, 2, size=(5, 3, 4))
        for relax in (1.0, 0.5):
            plans = sinkhorn_batched(costs, eps=0.2, iters=80, col_relax=relax)
            for k in range(5):
                single = sinkhorn_relaxed(costs[k], eps=0.2, iters=80, col_relax=relax)
                np.testing.assert_allclose(plans[k], single, atol=1e-14)


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
        with pytest.raises(ConfigError):
            sinkhorn_batched(np.zeros((2, 3, 3)), eps=eps)

    def test_default_eps_rows_exact(self):
        rng = np.random.default_rng(2)
        plans = sinkhorn_batched(rng.uniform(0, 2, size=(6, 4, 2)), eps=0.1)
        np.testing.assert_allclose(plans.sum(axis=-1), np.full((6, 4), 0.25), atol=1e-12)


class TestClassScore:
    def test_degenerate_reduces_to_cosine(self, rng):
        local = unit_rows(rng.normal(size=(1, 6)))
        prompt = unit_rows(rng.normal(size=(1, 6)))
        score, plan = plot_class_score(local, prompt, eps=0.1)
        cos = float(local[0] @ prompt[0])
        assert score == pytest.approx(cos - 1.0, abs=1e-12)
        np.testing.assert_allclose(plan, [[1.0]], atol=1e-12)

    def test_identical_sets_zero_cost(self, rng):
        feats = unit_rows(rng.normal(size=(3, 5)))
        score, _ = plot_class_score(feats, feats, eps=0.05, iters=300)
        assert score == pytest.approx(0.0, abs=1e-2)

    def test_permutation_invariant_in_local_order(self, rng):
        local = unit_rows(rng.normal(size=(4, 6)))
        prompt = unit_rows(rng.normal(size=(2, 6)))
        s1, _ = plot_class_score(local, prompt, eps=0.1)
        s2, _ = plot_class_score(local[::-1].copy(), prompt, eps=0.1)
        assert s1 == pytest.approx(s2, abs=1e-12)

    def test_cost_matrix_definition(self, rng):
        local = unit_rows(rng.normal(size=(3, 4)))
        prompt = unit_rows(rng.normal(size=(2, 4)))
        cost = transport_cost_matrix(local, prompt)
        for i, k in itertools.product(range(3), range(2)):
            assert cost[i, k] == pytest.approx(1.0 - local[i] @ prompt[k], abs=1e-15)

    def test_relaxed_score_matches_balanced_at_full_relax(self, rng):
        local = unit_rows(rng.normal(size=(4, 6)))
        prompt = unit_rows(rng.normal(size=(2, 6)))
        s_bal, _ = plot_class_score(local, prompt, eps=0.1)
        s_rel, _ = relaxed_class_score(local, prompt, eps=0.1, col_relax=1.0)
        assert s_rel == pytest.approx(s_bal, abs=1e-12)
