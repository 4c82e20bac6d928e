import math

import numpy as np
import pytest

from punctrl.net import (
    DETERMINISTIC,
    GAUSSIAN,
    PTANH_NEG_SLOPE,
    Adam,
    ForwardCache,
    NetworkParams,
    TargetPair,
    backward,
    forward,
    forward_cached,
    gaussian_log_density,
    read_head,
    reparameterize,
    split_gaussian,
)


def single_path_params(*weights, biases=None):
    """A 1-1-...-1 network with the given scalar weights and biases (zero by default)."""
    params = NetworkParams([(1, 1)] * len(weights))
    for i, w in enumerate(weights):
        params.weights[i][0, 0] = w
        params.biases[i][0] = 0.0 if biases is None else biases[i]
    return params


def penalized_tanh(x):
    """The engine's activation at x: the output of a unit-weight 1-1-1 network."""
    return forward(single_path_params(1.0, 1.0), [x])[0]


def penalized_tanh_grad(x):
    """The engine's activation slope at x: that network's layer-0 bias gradient."""
    params = single_path_params(1.0, 1.0)
    _, cache = forward_cached(params, [x], ForwardCache(params))
    return backward(params, cache, [1.0], params.zeros_like()).biases[0][0]


class TestPenalizedTanh:
    def test_zero(self):
        assert penalized_tanh(0.0) == 0.0

    def test_limits(self):
        assert penalized_tanh(50.0) == pytest.approx(1.0, abs=1e-12)
        assert penalized_tanh(-50.0) == pytest.approx(-0.25, abs=1e-12)

    def test_one_sided_derivatives_at_zero(self):
        assert penalized_tanh_grad(1e-12) == pytest.approx(1.0, abs=1e-9)
        assert penalized_tanh_grad(-1e-12) == pytest.approx(0.25, abs=1e-9)

    def test_matches_finite_differences(self):
        h = 1e-6
        for x in (-2.0, -0.3, 0.4, 1.7):
            numeric = (penalized_tanh(x + h) - penalized_tanh(x - h)) / (2 * h)
            assert penalized_tanh_grad(x) == pytest.approx(numeric, rel=1e-6)


class TestActivationMatchesEngine:
    """forward_cached and backward run the activation and slope written out here."""

    @pytest.mark.parametrize("hidden", [(16,), (9, 7, 5)])
    def test_helpers_equal_engine_arithmetic(self, hidden):
        rng = np.random.default_rng(31)
        params = NetworkParams.init(5, hidden, 4, rng)
        cache = ForwardCache(params)
        for _ in range(10):
            forward_cached(params, rng.standard_normal(5) * 3.0, cache)
            grads = backward(params, cache, rng.standard_normal(4), params.zeros_like())
            for i, (w, b) in enumerate(zip(params.weights[:-1], params.biases[:-1])):
                t = np.tanh(cache.acts[i] @ w.T + b)
                slope = np.where(t <= 0.0, PTANH_NEG_SLOPE, 1.0)
                assert np.array_equal(cache.acts[i + 1], np.maximum(t, PTANH_NEG_SLOPE * t))
                # a bias gradient is the upstream gradient times the activation's slope
                upstream = params.weights[i + 1].T @ grads.biases[i + 1]
                assert np.array_equal(grads.biases[i], upstream * ((1.0 - t * t) * slope))

    @pytest.mark.parametrize("hidden", [(16,), (9, 7, 5)])
    def test_tanh_of_zero_takes_the_negative_slope(self, hidden):
        # zero hidden weights and biases make every tanh exactly 0, where the
        # pre-activation is on the non-positive half-line
        rng = np.random.default_rng(32)
        params = NetworkParams.zeros(5, hidden, 4)
        params.weights[-1][:] = rng.standard_normal(params.weights[-1].shape)
        grad_out = rng.standard_normal(4)
        _, cache = forward_cached(params, rng.standard_normal(5), ForwardCache(params))
        grads = backward(params, cache, grad_out, params.zeros_like())
        assert not cache.tanhs[-1].any()
        assert np.array_equal(grads.biases[-2], params.weights[-1].T @ grad_out * PTANH_NEG_SLOPE)
        assert grads.biases[-2].all()

    def test_backward_leaves_the_cache_unchanged(self):
        rng = np.random.default_rng(33)
        params = NetworkParams.init(5, (9, 7), 4, rng)
        _, cache = forward_cached(params, rng.standard_normal(5), ForwardCache(params))
        before = [a.copy() for a in (*cache.acts, *cache.tanhs, cache.out)]
        backward(params, cache, rng.standard_normal(4), params.zeros_like())
        after = (*cache.acts, *cache.tanhs, cache.out)
        assert all(np.array_equal(a, b) for a, b in zip(before, after, strict=True))


class TestForward:
    def test_zero_params_give_zero_output(self):
        params = NetworkParams.zeros(5, (8, 8), 3)
        assert np.array_equal(forward(params, np.ones(5)), np.zeros(3))

    def test_hand_computed_single_path(self):
        # 1-1-1 net, unit weights, zero biases: out = tanh(0.5) for x = 0.5 > 0
        params = single_path_params(1.0, 1.0)
        out = forward(params, np.array([0.5]))
        assert out[0] == pytest.approx(math.tanh(0.5), abs=1e-12)
        assert out[0] == pytest.approx(0.46211715726000974, abs=1e-12)

    def test_negative_input_uses_penalized_branch(self):
        params = single_path_params(1.0, 1.0)
        out = forward(params, np.array([-0.5]))
        assert out[0] == pytest.approx(0.25 * math.tanh(-0.5), abs=1e-12)

    def test_gaussian_head_width(self):
        rng = np.random.default_rng(0)
        params = NetworkParams.init(5, (16, 16), 6, rng)
        out = forward(params, rng.standard_normal(5))
        mu, log_sigma = split_gaussian(out)
        assert mu.shape == (3,) and log_sigma.shape == (3,)

    def test_shape_mismatch_rejected(self):
        params = NetworkParams.zeros(5, (4,), 3)
        with pytest.raises(ValueError):
            forward(params, np.zeros(4))

    def test_batch_with_wrong_width_rejected(self):
        params = NetworkParams.zeros(5, (4,), 3)
        for bad in (np.zeros((7, 4)), np.zeros((7, 6)), np.zeros((2, 7, 5))):
            with pytest.raises(ValueError):
                forward(params, bad)
            with pytest.raises(ValueError):
                forward_cached(params, bad, ForwardCache(params))

    def test_forward_cached_rejects_batch(self):
        params = NetworkParams.zeros(5, (4,), 3)
        cache = ForwardCache(params)
        for batch in (np.zeros((1, 5)), np.zeros((2, 5))):
            with pytest.raises(ValueError, match=r"sized for input of shape \(5,\)"):
                forward_cached(params, batch, cache)


class TestBatchedForward:
    @pytest.mark.parametrize("output_dim", [3, 6])  # deterministic, Gaussian head
    def test_matches_row_by_row(self, output_dim):
        rng = np.random.default_rng(21)
        params = NetworkParams.init(5, (128, 128), output_dim, rng)
        # a fixed grid of valid observations, as the estimator sees them
        grid = np.stack(np.meshgrid(
            np.linspace(0.0, 1.0, 7), [0.0, 1.0], [0.0, 1.0],
            np.linspace(0.0, 1.0, 8), np.linspace(0.0, 1.0, 8), indexing="ij",
        ), axis=-1).reshape(-1, 5)
        batched = forward(params, grid)
        rows = np.stack([forward(params, s) for s in grid])
        assert batched.shape == rows.shape == (grid.shape[0], output_dim)
        # a matrix product sums in another order than 128-term dot products;
        # near-zero outputs need the absolute term (float64 eps * fan-in ~ 3e-14)
        assert np.allclose(batched, rows, rtol=1e-12, atol=1e-14)
        if output_dim == 6:
            batched, rows = split_gaussian(batched)[0], split_gaussian(rows)[0]
        assert np.array_equal(np.argmax(batched, axis=1), np.argmax(rows, axis=1))


def naive_forward_cached(params, s):
    """Reference forward pass: fresh arrays, np.where for the activation."""
    acts, pre, tanhs = [s], [], []
    a = s
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        z = w @ a + b
        t = np.tanh(z)
        a = np.where(z > 0.0, t, PTANH_NEG_SLOPE * t)
        pre.append(z)
        tanhs.append(t)
        acts.append(a)
    return params.weights[-1] @ a + params.biases[-1], (acts, pre, tanhs)


def naive_backward(params, cache, grad_out):
    """Reference backward pass: np.outer into a fresh gradient set."""
    acts, pre, tanhs = cache
    grads = params.zeros_like()
    g = grad_out
    grads.weights[-1][:] = np.outer(g, acts[-1])
    grads.biases[-1][:] = g
    g = params.weights[-1].T @ g
    for i in range(len(params.weights) - 2, -1, -1):
        g = g * ((1.0 - tanhs[i] * tanhs[i]) * np.where(pre[i] > 0.0, 1.0, PTANH_NEG_SLOPE))
        grads.weights[i][:] = np.outer(g, acts[i])
        grads.biases[i][:] = g
        if i > 0:
            g = params.weights[i].T @ g
    return grads


class NaiveAdam:
    """Reference Adam that allocates every intermediate, in Adam.step's operation order."""

    def __init__(self, n, lr):
        self.lr, self.t = lr, 0
        self.m, self.v = np.zeros(n), np.zeros(n)

    def step(self, flat, g):
        b1, b2, eps = 0.9, 0.999, 1e-8
        self.t += 1
        bc1, bc2 = 1.0 - b1**self.t, 1.0 - b2**self.t
        self.m = self.m * b1 + (1.0 - b1) * g
        self.v = self.v * b2 + g * g * (1.0 - b2)
        return flat - self.m / (np.sqrt(self.v) / math.sqrt(bc2) + eps) * (self.lr / bc1)


class TestEngineMatchesNaiveReference:
    # (128, 128) has every layer kind of the reference network: 128x5 input,
    # 128x128 hidden and 6x128 output weights
    @pytest.mark.parametrize("hidden", [(128, 128), (16,), (9, 7, 5)])
    def test_training_steps_bit_identical(self, hidden):
        rng = np.random.default_rng(23)
        online = NetworkParams.init(5, hidden, 6, rng)
        pair = TargetPair(online, tau=1e-2)
        adam = Adam(online, learning_rate=1e-2)
        cache = ForwardCache(online)
        grads = online.zeros_like()

        ref_online, ref_target = online.flat.copy(), online.flat.copy()
        ref_params = online.copy()
        ref_adam = NaiveAdam(online.flat.size, 1e-2)
        for _ in range(20):
            s = rng.standard_normal(5) * 2.0
            grad_out = rng.standard_normal(6)
            out, _ = forward_cached(online, s, cache)
            backward(online, cache, grad_out, out=grads)
            adam.step(online, grads)
            pair.polyak_update()

            ref_params.flat[:] = ref_online
            ref_out, ref_cache = naive_forward_cached(ref_params, s)
            ref_grads = naive_backward(ref_params, ref_cache, grad_out)
            assert np.array_equal(out, ref_out)
            assert np.array_equal(grads.flat, ref_grads.flat)
            ref_online = ref_adam.step(ref_online, ref_grads.flat)
            ref_target = ref_target * (1.0 - 1e-2) + 1e-2 * ref_online
            assert np.array_equal(online.flat, ref_online)
            assert np.array_equal(pair.target.flat, ref_target)


class TestBufferReuse:
    def test_reused_buffers_equal_fresh_ones(self):
        rng = np.random.default_rng(24)
        params = NetworkParams.init(5, (32, 32), 6, rng)
        cache = ForwardCache(params)
        grads = params.zeros_like()
        for _ in range(5):
            s, grad_out = rng.standard_normal(5), rng.standard_normal(6)
            out, _ = forward_cached(params, s, cache)
            reused = backward(params, cache, grad_out, out=grads)
            fresh_out, fresh_cache = forward_cached(params, s, ForwardCache(params))
            assert reused is grads
            assert np.array_equal(out, fresh_out)
            fresh = backward(params, fresh_cache, grad_out, params.zeros_like())
            assert grads.shapes == fresh.shapes
            assert np.array_equal(grads.flat, fresh.flat)

    def test_forward_on_other_network_keeps_gradient(self):
        rng = np.random.default_rng(25)
        params = NetworkParams.init(5, (32, 32), 6, rng)
        other = NetworkParams.init(5, (32, 32), 6, rng)
        s, grad_out = rng.standard_normal(5), rng.standard_normal(6)
        _, cache = forward_cached(params, s, ForwardCache(params))
        expected = backward(params, cache, grad_out, params.zeros_like())
        cache = ForwardCache(params)
        forward_cached(params, s, cache)
        forward(other, rng.standard_normal(5))
        forward(other, rng.standard_normal((4, 5)))
        again = backward(params, cache, grad_out, params.zeros_like())
        assert again.shapes == expected.shapes
        assert np.array_equal(again.flat, expected.flat)


class TestGaussianHead:
    @pytest.mark.parametrize("shape", [(6,), (4, 6)], ids=["row", "batch"])
    def test_read_head_layouts(self, shape):
        out = np.arange(np.prod(shape), dtype=float).reshape(shape)
        values, log_sigma = read_head(DETERMINISTIC, out)
        assert values is out and log_sigma is None
        mu, log_sigma = read_head(GAUSSIAN, out)
        assert np.array_equal(mu, out[..., :3]) and np.array_equal(log_sigma, out[..., 3:])
        with pytest.raises(ValueError, match="unknown head mode"):
            read_head("laplace", out)

    def test_tiny_variance_recovers_mean(self):
        rng = np.random.default_rng(1)
        mu = np.array([3.0, -1.0, 0.5])
        q = reparameterize(mu, np.full(3, -30.0), rng.standard_normal(3))
        assert np.allclose(q, mu, atol=1e-9)

    def test_fixed_noise_is_affine(self):
        q = reparameterize(np.zeros(1), np.zeros(1), np.ones(1))
        assert q[0] == 1.0

    def test_sample_variance_matches_log_sigma(self):
        rng = np.random.default_rng(2)
        log_sigma = np.full(1, 0.5)
        draws = np.array(
            [reparameterize(np.zeros(1), log_sigma, rng.standard_normal(1))[0]
             for _ in range(100_000)]
        )
        assert draws.var() == pytest.approx(math.exp(1.0), rel=0.03)

    def test_log_density_at_mode(self):
        lp = gaussian_log_density(0.0, 0.0, 0.0)
        assert lp == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)
        assert lp == pytest.approx(-0.9189385332046727, abs=1e-12)

    def test_log_density_one_sigma_offset(self):
        mode = gaussian_log_density(2.0, 2.0, 0.3)
        offset = gaussian_log_density(2.0 + math.exp(0.3), 2.0, 0.3)
        assert offset == pytest.approx(mode - 0.5, abs=1e-12)

    def test_log_density_vanishes_with_huge_sigma(self):
        assert gaussian_log_density(0.0, 0.0, 500.0) < -499.0


def finite_difference_grads(params, s, loss_of_output, h=1e-5):
    """Central differences through the forward pass for an arbitrary loss."""
    grads = params.zeros_like()
    for i in range(params.flat.size):
        orig = params.flat[i]
        params.flat[i] = orig + h
        hi = loss_of_output(forward(params, s))
        params.flat[i] = orig - h
        lo = loss_of_output(forward(params, s))
        params.flat[i] = orig
        grads.flat[i] = (hi - lo) / (2 * h)
    return grads


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(3)
        params = NetworkParams.init(4, (5,), 2, rng)
        out, cache = forward_cached(params, rng.standard_normal(4), ForwardCache(params))
        grads = backward(params, cache, np.zeros_like(out), params.zeros_like())
        assert np.all(grads.flat == 0.0)

    def test_linear_net_hand_calculus(self):
        # single linear layer, loss = out^2: dL/dw = 2 * out * input
        params = single_path_params(1.5)
        x = np.array([0.8])
        out, cache = forward_cached(params, x, ForwardCache(params))
        grads = backward(params, cache, 2.0 * out, params.zeros_like())
        assert grads.weights[0][0, 0] == pytest.approx(2.0 * out[0] * x[0], abs=1e-12)
        assert grads.biases[0][0] == pytest.approx(2.0 * out[0], abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        params = NetworkParams.init(4, (2,), 2, rng)
        s = rng.standard_normal(4)
        coeff = rng.standard_normal(2)

        def loss_of_output(out):
            return float(coeff @ out)

        out, cache = forward_cached(params, s, ForwardCache(params))
        analytic = backward(params, cache, coeff, params.zeros_like())
        numeric = finite_difference_grads(params, s, loss_of_output)
        assert np.allclose(analytic.flat, numeric.flat, rtol=1e-4, atol=1e-7)


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params = single_path_params(2.0, biases=[1.0])
        adam = Adam(params, learning_rate=0.1)
        adam.step(params, params.zeros_like())
        assert params.weights[0][0, 0] == 2.0
        assert params.biases[0][0] == 1.0

    def test_first_step_magnitude_is_learning_rate(self):
        params = single_path_params(0.0)
        grads = single_path_params(3.0)
        adam = Adam(params, learning_rate=0.1)
        adam.step(params, grads)
        # bias-corrected first step is -lr * sign(g) up to the epsilon sliver
        assert params.weights[0][0, 0] == pytest.approx(-0.1, rel=1e-6)
        assert params.weights[0][0, 0] < 0.0

    def test_two_step_trace_matches_hand_recurrence(self):
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        params = single_path_params(0.5)
        grads = single_path_params(1.0)
        adam = Adam(params, learning_rate=lr)

        theta, m, v = 0.5, 0.0, 0.0
        for t in (1, 2):
            m = b1 * m + (1 - b1) * 1.0
            v = b2 * v + (1 - b2) * 1.0
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            theta -= lr * m_hat / (math.sqrt(v_hat) + eps)
            adam.step(params, grads)
            assert params.weights[0][0, 0] == pytest.approx(theta, abs=1e-15)


    @pytest.mark.parametrize("t", [37_411, 37_412, 37_500])
    def test_late_steps_match_formula_with_divide(self, t):
        # 1 - 0.999**t first rounds to exactly 1.0 at t = 37 412, where the
        # step stops dividing by its square root
        assert (math.sqrt(1.0 - 0.999**t) == 1.0) == (t >= 37_412)
        rng = np.random.default_rng(t)
        params = NetworkParams.init(5, (16,), 6, rng)
        size = params.flat.size
        adam = Adam(params, learning_rate=1e-2)
        ref = NaiveAdam(size, 1e-2)
        adam.step_count = ref.t = t - 1
        adam.first_moment[:] = ref.m = rng.standard_normal(size)
        adam.second_moment[:] = ref.v = rng.uniform(0.0, 4.0, size)
        adam.second_moment[:3] = ref.v[:3] = 0.0
        grads = params.zeros_like()
        grads.flat[:] = rng.standard_normal(size)
        grads.flat[:2] = 0.0
        expected = ref.step(params.flat.copy(), grads.flat)
        adam.step(params, grads)
        assert adam.step_count == t
        assert params.flat.tobytes() == expected.tobytes()
        assert adam.first_moment.tobytes() == ref.m.tobytes()
        assert adam.second_moment.tobytes() == ref.v.tobytes()


class TestPolyak:
    def make_pair(self, tau):
        online = single_path_params(1.0, biases=[1.0])
        pair = TargetPair(online, tau=tau)
        pair.target = single_path_params(0.0)
        return pair

    def test_tau_one_copies_online(self):
        pair = self.make_pair(1.0)
        pair.polyak_update()
        assert pair.target.weights[0][0, 0] == 1.0

    def test_tau_zero_keeps_target(self):
        pair = self.make_pair(0.0)
        pair.polyak_update()
        assert pair.target.weights[0][0, 0] == 0.0

    def test_single_small_step(self):
        pair = self.make_pair(1e-4)
        pair.polyak_update()
        assert pair.target.weights[0][0, 0] == pytest.approx(1e-4, abs=1e-18)

    def test_contraction_toward_online(self):
        rng = np.random.default_rng(9)
        online = NetworkParams.init(3, (4,), 2, rng)
        target = NetworkParams.init(3, (4,), 2, rng)
        tau = 0.05
        gap_before = np.abs(target.flat - online.flat)
        pair = TargetPair(online, tau=tau)
        pair.target = target
        pair.polyak_update()
        assert np.allclose(np.abs(target.flat - online.flat), (1 - tau) * gap_before, atol=1e-12)

    def test_target_initialized_as_copy(self):
        rng = np.random.default_rng(10)
        online = NetworkParams.init(3, (4,), 2, rng)
        pair = TargetPair(online, tau=1e-4)
        assert np.array_equal(pair.target.flat, online.flat)
        pair.target.weights[0][0, 0] += 1.0
        assert pair.target.weights[0][0, 0] != online.weights[0][0, 0]


class TestInit:
    def test_weight_bounds_follow_fan_in(self):
        rng = np.random.default_rng(12)
        params = NetworkParams.init(16, (64,), 4, rng)
        assert np.abs(params.weights[0]).max() <= 1 / 4.0
        assert np.abs(params.weights[1]).max() <= 1 / 8.0
        assert np.all(params.biases[0] == 0.0)

    def test_all_finite_detects_nan(self):
        params = NetworkParams.zeros(2, (2,), 1)
        assert params.all_finite()
        params.weights[0][0, 0] = math.nan
        assert not params.all_finite()
