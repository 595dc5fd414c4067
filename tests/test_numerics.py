"""Loss kernels and the finite-difference oracle itself."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedprompt.errors import DomainError
from fedprompt.numerics import log_softmax_temp, softmax_ce_batch, softmax_temp
from oracle import cosine_similarity, cross_entropy, finite_diff_gradient, relative_error


class TestSoftmaxTemp:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax_temp(np.array([0.2, 0.2]), 1.0), [0.5, 0.5], atol=1e-15)

    def test_temperature_sharpening(self):
        # scalar evaluation: p_0 = 1 / (1 + exp(-(0.5-0.3)/0.1)) = 1/(1+e^-2)
        expected = 1.0 / (1.0 + np.exp(-2.0))
        out = softmax_temp(np.array([0.5, 0.3]), 0.1)
        np.testing.assert_allclose(out, [expected, 1.0 - expected], atol=1e-12)
        np.testing.assert_allclose(out, [0.8808, 0.1192], atol=1e-4)

    def test_single_class(self):
        np.testing.assert_array_equal(softmax_temp(np.array([3.7]), 0.5), [1.0])

    def test_sums_to_one_many_cases(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            n = rng.integers(1, 20)
            logits = rng.normal(scale=rng.uniform(0.1, 50), size=n)
            tau = rng.uniform(0.01, 10)
            p = softmax_temp(logits, tau)
            assert abs(p.sum() - 1.0) <= 1e-12
            assert np.all(p >= 0) and np.all(p <= 1.0) and np.all(np.isfinite(p))
            if (logits.max() - logits.min()) / tau < 700:  # exp underflow bound
                assert np.all(p > 0)

    def test_extreme_logits_stable(self):
        p = softmax_temp(np.array([1e6, -1e6, 0.0]), 1.0)
        assert np.all(np.isfinite(p))
        assert abs(p.sum() - 1.0) <= 1e-12

    def test_log_softmax_is_finite_where_the_softmax_underflows(self):
        logits = np.array([[0.9, 0.1, -0.4], [0.2, 0.3, 0.25]])
        np.testing.assert_allclose(log_softmax_temp(logits, 0.5),
                                   np.log(softmax_temp(logits, 0.5)), rtol=1e-14)
        saturated = log_softmax_temp(logits, 1e-6)
        assert np.all(np.isfinite(saturated)) and saturated[0, 2] == pytest.approx(-1.3e6)
        assert softmax_temp(logits, 1e-6)[0, 2] == 0.0

    def test_empty_input(self):
        with pytest.raises(DomainError):
            softmax_temp(np.array([]), 1.0)

    def test_nonfinite_input(self):
        with pytest.raises(DomainError):
            softmax_temp(np.array([np.nan, 0.0]), 1.0)


class TestCosineSimilarity:
    def test_identity(self, rng):
        a = rng.normal(size=6)
        assert cosine_similarity(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_antipodal(self, rng):
        a = rng.normal(size=5)
        assert cosine_similarity(a, -a) == pytest.approx(-1.0, abs=1e-12)

    def test_zero_vector(self):
        with pytest.raises(DomainError):
            cosine_similarity(np.zeros(3), np.ones(3))

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            cosine_similarity(np.ones(3), np.ones(4))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_exact_symmetry(self, seed):
        r = np.random.default_rng(seed)
        a, b = r.normal(size=7), r.normal(size=7)
        assert cosine_similarity(a, b) == cosine_similarity(b, a)

    def test_clamped(self, rng):
        for _ in range(200):
            a, b = rng.normal(size=4), rng.normal(size=4)
            assert -1.0 <= cosine_similarity(a, b) <= 1.0


class TestCrossEntropy:
    def test_confident_correct(self):
        res = cross_entropy(np.array([1.0, 0.0, 0.0]), 0)
        assert res.loss == 0.0
        assert not res.saturated

    def test_uniform(self):
        c = 5
        res = cross_entropy(np.full(c, 1.0 / c), 2)
        assert res.loss == pytest.approx(np.log(c), abs=1e-12)

    def test_derived_value(self):
        # -ln(0.1192) computed directly
        res = cross_entropy(np.array([0.8808, 0.1192]), 1)
        assert res.loss == pytest.approx(-np.log(0.1192), abs=1e-12)
        assert res.loss == pytest.approx(2.127, abs=1e-3)

    def test_saturation_cap(self):
        res = cross_entropy(np.array([1.0, 0.0]), 1)
        assert res.saturated
        assert res.loss == 1e6

    def test_custom_cap(self):
        res = cross_entropy(np.array([1.0, 0.0]), 1, cap=123.0)
        assert res.loss == 123.0

    def test_gradient_is_probs_minus_onehot(self):
        probs = np.array([0.2, 0.5, 0.3])
        res = cross_entropy(probs, 1)
        np.testing.assert_allclose(res.grad_logits, [0.2, -0.5, 0.3], atol=1e-15)

    def test_label_out_of_range(self):
        with pytest.raises(DomainError):
            cross_entropy(np.array([0.5, 0.5]), 2)


class TestFusedSoftmaxCE:
    def test_matches_composition(self, rng):
        logits = rng.normal(size=(4, 6))
        labels = rng.integers(0, 6, size=4)
        tau = 0.3
        loss, dlogits, probs = softmax_ce_batch(logits, labels, tau)
        manual = np.mean([
            cross_entropy(softmax_temp(logits[i], tau), labels[i]).loss for i in range(4)
        ])
        assert loss == pytest.approx(manual, abs=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        logits = rng.normal(size=(3, 4))
        labels = np.array([1, 0, 3])
        _, dlogits, _ = softmax_ce_batch(logits, labels, 0.7)
        gfd = finite_diff_gradient(
            lambda x: softmax_ce_batch(x.reshape(3, 4), labels, 0.7)[0], logits.copy().ravel()
        ).reshape(3, 4)
        assert relative_error(dlogits, gfd) < 1e-6


class TestFiniteDifferences:
    def test_quadratic(self):
        g = finite_diff_gradient(lambda v: float(v @ v), np.array([1.0, 2.0]), h=1e-5)
        np.testing.assert_allclose(g, [2.0, 4.0], atol=1e-6)

    def test_constant(self):
        g = finite_diff_gradient(lambda v: 3.5, np.array([1.0, -2.0, 0.3]))
        np.testing.assert_array_equal(g, np.zeros(3))

    def test_oracle_self_check_on_fused_ce(self, rng):
        # the oracle agrees with the analytic fused gradient on random logits
        for _ in range(5):
            logits = rng.normal(size=5)
            label = int(rng.integers(0, 5))
            _, grad, _ = softmax_ce_batch(logits[None, :], np.array([label]), 1.0)
            gfd = finite_diff_gradient(
                lambda x: softmax_ce_batch(x[None, :], np.array([label]), 1.0)[0], logits.copy()
            )
            assert relative_error(grad[0], gfd) < 1e-6
