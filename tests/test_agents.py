import math

import numpy as np
import pytest

from punctrl.agents import (
    EG,
    ME,
    VB,
    SIGN_AS_WRITTEN,
    SIGN_UNIFORM_PRIOR,
    AgentSpec,
    Transition,
    epsilon_at,
    loss_eg,
    loss_me,
    loss_vb,
    select_action,
    td_components,
)
from punctrl.net import ForwardCache, NetworkParams, forward_cached, reparameterize
from punctrl.train import loss_and_grads, loss_and_output_grad

TABLE_DECAY_STEPS = 45_000  # half of 30 episodes x 3000 steps


def vb_args(mu, log_sigma, noise):
    """The sample, mean, log-std, std and noise that loss_and_output_grad hands loss_vb."""
    return reparameterize(mu, log_sigma, noise), mu, log_sigma, np.exp(log_sigma), noise


def me_args(mu, log_sigma, noise):
    """The sample, std and noise that loss_and_output_grad hands loss_me."""
    return reparameterize(mu, log_sigma, noise), np.exp(log_sigma), noise


def td_only_transition(action, bootstrap_target):
    """A transition whose bootstrap target is its reward, against all-zero target estimates."""
    return Transition(None, action, bootstrap_target, None)


class TestEpsilonSchedule:
    def setup_method(self):
        self.spec = AgentSpec(kind=EG)

    def test_initial_value(self):
        assert epsilon_at(0, TABLE_DECAY_STEPS, self.spec) == 0.99

    def test_reaches_zero_exactly_at_decay_end(self):
        assert epsilon_at(TABLE_DECAY_STEPS, TABLE_DECAY_STEPS, self.spec) == 0.0
        assert epsilon_at(TABLE_DECAY_STEPS + 999, TABLE_DECAY_STEPS, self.spec) == 0.0

    def test_linear_midpoint(self):
        assert epsilon_at(TABLE_DECAY_STEPS // 2, TABLE_DECAY_STEPS, self.spec) == pytest.approx(
            0.495
        )

    def test_zero_for_gaussian_kinds(self):
        for kind in (VB, ME):
            assert epsilon_at(0, TABLE_DECAY_STEPS, AgentSpec(kind=kind)) == 0.0

    def test_monotone_non_increasing(self):
        values = [epsilon_at(t, 100, self.spec) for t in range(0, 140)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] == 0.0


class TestSelectAction:
    def test_eg_greedy_at_zero_epsilon(self):
        spec = AgentSpec(kind=EG)
        rng = np.random.default_rng(0)
        action, noise = select_action(spec, np.array([3.0, 1.0, 2.0]), rng, epsilon=0.0)
        assert action == 0
        assert noise is None

    def test_eg_uniform_at_full_epsilon(self):
        spec = AgentSpec(kind=EG)
        rng = np.random.default_rng(1)
        counts = np.zeros(3)
        for _ in range(100_000):
            counts[select_action(spec, np.array([9.0, 0.0, 0.0]), rng, epsilon=1.0)[0]] += 1
        assert np.allclose(counts / counts.sum(), 1 / 3, atol=0.01)

    def test_gaussian_degenerate_variance_is_greedy(self):
        spec = AgentSpec(kind=VB)
        rng = np.random.default_rng(2)
        head_out = np.array([0.1, 0.9, 0.3, -30.0, -30.0, -30.0])
        for _ in range(50):
            assert select_action(spec, head_out, rng, epsilon=0.0)[0] == 1

    def test_gaussian_returns_sample_and_noise(self):
        spec = AgentSpec(kind=ME)
        rng = np.random.default_rng(3)
        head_out = np.array([0.0, 0.0, 0.0, 0.2, 0.2, 0.2])
        action, noise = select_action(spec, head_out, rng, epsilon=0.0)
        assert noise.shape == (3,)
        assert action == np.argmax(np.exp(0.2) * noise)

    def test_argmax_shift_invariant(self):
        spec = AgentSpec(kind=EG)
        rng = np.random.default_rng(4)
        q = np.array([0.3, -0.2, 0.9])
        a = select_action(spec, q, rng, epsilon=0.0)[0]
        b = select_action(spec, q + 123.4, rng, epsilon=0.0)[0]
        assert a == b == 2


class TestTdComponents:
    def test_perfect_estimate_gives_zero_loss(self):
        spec = AgentSpec(kind=EG)
        tr = Transition(None, 1, 1.0, None)
        q = np.array([0.0, 1.0 + 0.99 * 2.0, 0.0])
        pred, boot = td_components(spec, q, np.array([2.0, 1.0]), tr)
        assert pred == boot
        assert loss_eg(pred, boot)[0] == 0.0

    def test_discounted_bootstrap_arithmetic(self):
        spec = AgentSpec(kind=EG, gamma=0.99)
        tr = Transition(None, 0, -5.0, None)
        _, boot = td_components(spec, np.zeros(3), np.array([10.0, 3.0, -1.0]), tr)
        assert boot == pytest.approx(4.9, abs=1e-12)


class TestLossEg:
    def test_zero_at_match(self):
        loss, grad = loss_eg(1.5, 1.5)
        assert loss == 0.0 and grad == 0.0

    def test_hand_values(self):
        loss, grad = loss_eg(2.0, 0.0)
        assert loss == 4.0 and grad == 4.0

    def test_grad_sign_follows_error(self):
        assert loss_eg(1.0, 3.0)[1] < 0
        assert loss_eg(3.0, 1.0)[1] > 0


class TestLossVb:
    def test_zero_weight_reduces_to_td(self):
        spec = AgentSpec(kind=VB, w_lp=0.0)
        mu = np.array([0.4, -0.1, 0.2])
        log_sigma = np.array([0.1, -0.3, 0.0])
        noise = np.array([0.5, -1.0, 0.2])
        q = reparameterize(mu, log_sigma, noise)
        head_out = np.concatenate([mu, log_sigma])
        loss, grad_out = loss_and_output_grad(
            spec, head_out, noise, td_only_transition(1, 0.7), np.zeros(3)
        )
        grad_mu = grad_out[:3]
        td_loss, td_grad = loss_eg(q[1], 0.7)
        assert loss == pytest.approx(td_loss, abs=1e-12)
        assert grad_mu[1] == pytest.approx(td_grad, abs=1e-12)
        assert grad_mu[0] == grad_mu[2] == 0.0

    def test_density_sum_at_zero_noise(self):
        spec = AgentSpec(kind=VB, w_lp=1.0)
        mu = np.zeros(3)
        log_sigma = np.zeros(3)
        noise = np.zeros(3)
        loss, _, _ = loss_vb(spec, *vb_args(mu, log_sigma, noise))
        assert loss == pytest.approx(3 * -0.5 * math.log(2 * math.pi), abs=1e-12)
        assert loss == pytest.approx(-2.756815599614018, abs=1e-9)

    def test_log_sigma_gradient_reduction(self):
        # chain rule collapses the density gradient to exactly -w_lp per action
        spec = AgentSpec(kind=VB)
        rng = np.random.default_rng(5)
        for _ in range(50):
            mu = rng.standard_normal(3)
            log_sigma = rng.standard_normal(3) * 0.5
            noise = rng.standard_normal(3)
            _, grad_mu, grad_ls = loss_vb(spec, *vb_args(mu, log_sigma, noise))
            for i in (0, 1, 2):
                assert grad_ls[i] == pytest.approx(-spec.w_lp, abs=1e-10)
                assert grad_mu[i] == pytest.approx(0.0, abs=1e-10)


def me_penalty(q, clip_low):
    """loss_me at weight +1 on the estimates q: the summed logs and their gradient w.r.t. q."""
    spec = AgentSpec(kind=ME, w_me=1.0, softmax_clip_low=clip_low, me_sign=SIGN_AS_WRITTEN)
    q = np.asarray(q, dtype=float)
    loss, grad_q, _ = loss_me(spec, q, np.ones_like(q), np.zeros_like(q))
    return loss, np.array(grad_q)


class TestSoftmaxClipped:
    """The softmax loss_me takes the logs of, against the conftest reference."""

    @pytest.mark.parametrize("q, clip_low", [
        ([0.0, 0.0, 0.0], 1e-3),
        ([20.0, 0.0, 0.0], 1e-3),
        ([1000.0, 0.0, -1000.0], 1e-3),
        ([0.3, -1.2, 2.5, 0.0], 0.05),
    ], ids=["uniform", "peaked", "extreme", "clamped"])
    def test_loss_me_sums_its_logs(self, softmax_clipped, q, clip_low):
        assert me_penalty(q, clip_low)[0] == np.sum(np.log(softmax_clipped(q, clip_low)))

    def test_uniform(self, softmax_clipped):
        sm = softmax_clipped(np.zeros(3), 1e-3)
        assert np.allclose(sm, 1 / 3, atol=1e-12)

    def test_peaked_vector_clamps_tail(self, softmax_clipped):
        sm = softmax_clipped(np.array([20.0, 0.0, 0.0]), 1e-3)
        assert sm[0] == pytest.approx(1.0, abs=1e-8)
        assert sm[1] == sm[2] == 1e-3

    def test_unclamped_values_hand_computed(self):
        raw = np.exp([0.0, -20.0, -20.0])
        expected = raw / raw.sum()
        assert expected[1] == pytest.approx(2.061e-9, rel=1e-3)

    def test_shift_invariance(self):
        rng = np.random.default_rng(6)
        q = rng.standard_normal(4)
        loss, grad_q = me_penalty(q, 1e-3)
        shifted_loss, shifted_grad_q = me_penalty(q + 55.5, 1e-3)
        assert shifted_loss == pytest.approx(loss, abs=1e-12)
        assert np.allclose(grad_q, shifted_grad_q, atol=1e-12)

    def test_no_log_of_zero_possible(self, softmax_clipped):
        q = np.array([1000.0, 0.0, -1000.0])
        sm = softmax_clipped(q, 1e-3)
        assert np.all(sm >= 1e-3)
        assert np.all(np.isfinite(np.log(sm)))
        loss, grad_q = me_penalty(q, 1e-3)
        assert math.isfinite(loss) and np.all(np.isfinite(grad_q))


class TestLossMe:
    def test_uniform_penalty_value(self):
        spec = AgentSpec(kind=ME, w_me=1.0)
        mu = np.full(3, 2.0)
        log_sigma = np.full(3, -40.0)
        noise = np.zeros(3)
        loss, _, _ = loss_me(spec, *me_args(mu, log_sigma, noise))
        # uniform softmax: penalty is -sum log(1/3) with the uniform-prior sign
        assert loss == pytest.approx(-1.0 * 3 * math.log(1 / 3), abs=1e-9)
        assert loss == pytest.approx(3.295836866004329, abs=1e-9)

    def test_zero_weight_reduces_to_td(self):
        spec = AgentSpec(kind=ME, w_me=0.0)
        mu = np.array([0.4, -0.1, 0.2])
        log_sigma = np.array([0.1, -0.3, 0.0])
        noise = np.array([0.5, -1.0, 0.2])
        q = reparameterize(mu, log_sigma, noise)
        head_out = np.concatenate([mu, log_sigma])
        loss, grad_out = loss_and_output_grad(
            spec, head_out, noise, td_only_transition(2, -0.3), np.zeros(3)
        )
        grad_mu = grad_out[:3]
        td_loss, td_grad = loss_eg(q[2], -0.3)
        assert loss == pytest.approx(td_loss, abs=1e-12)
        assert grad_mu[2] == pytest.approx(td_grad, abs=1e-12)

    def test_as_written_sign_flips_penalty(self):
        mu = np.array([0.5, 0.0, -0.5])
        log_sigma = np.full(3, -40.0)
        noise = np.zeros(3)
        up = AgentSpec(kind=ME, me_sign=SIGN_UNIFORM_PRIOR)
        aw = AgentSpec(kind=ME, me_sign=SIGN_AS_WRITTEN)
        l_up, g_up, _ = loss_me(up, *me_args(mu, log_sigma, noise))
        l_aw, g_aw, _ = loss_me(aw, *me_args(mu, log_sigma, noise))
        assert l_up == pytest.approx(-l_aw, abs=1e-9)
        assert np.allclose(g_up, np.negative(g_aw), atol=1e-9)

    def test_uniform_prior_descent_reaches_uniform(self, softmax_clipped):
        # penalty-only gradient descent from random starts lands on uniform softmax
        spec = AgentSpec(kind=ME)
        rng = np.random.default_rng(7)
        for _ in range(20):
            q = rng.standard_normal(3)
            for _ in range(3000):
                sm_raw = np.exp(q - q.max())
                sm_raw /= sm_raw.sum()
                unclamped = sm_raw >= spec.softmax_clip_low
                grad_q = -(unclamped.astype(float) - unclamped.sum() * sm_raw)
                q -= 0.05 * grad_q
            assert np.allclose(softmax_clipped(q, spec.softmax_clip_low), 1 / 3, atol=1e-3)

    def test_penalty_step_shrinks_softmax_spread(self, softmax_clipped):
        spec = AgentSpec(kind=ME, w_me=1.0)
        rng = np.random.default_rng(8)
        for _ in range(50):
            q = rng.standard_normal(3) * 1.5
            sm = softmax_clipped(q, spec.softmax_clip_low)
            if sm.min() <= spec.softmax_clip_low:
                continue
            spread = sm.max() - sm.min()
            sm_raw = np.exp(q - q.max())
            sm_raw /= sm_raw.sum()
            grad_q = -(1.0 - 3 * sm_raw)
            q2 = q - 1e-3 * grad_q
            sm2 = softmax_clipped(q2, spec.softmax_clip_low)
            assert sm2.max() - sm2.min() < spread


def loss_grads(params, target_params, tr, spec, noise):
    """Loss and parameter gradients of one transition, through the training path."""
    head_out, cache = forward_cached(params, tr.s, ForwardCache(params))
    grads = params.zeros_like()
    loss = loss_and_grads(spec, params, target_params, head_out, cache, noise, tr, grads)
    return loss, grads


def fd_loss_grads(params, target_params, tr, spec, noise, h=1e-5):
    """Finite differences of the full per-transition loss w.r.t. every parameter."""

    def loss_at():
        return loss_grads(params, target_params, tr, spec, noise)[0]

    grads = params.zeros_like()
    for p_arr, g_arr in zip(params.arrays(), grads.arrays()):
        flat_p, flat_g = p_arr.ravel(), g_arr.ravel()
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + h
            hi = loss_at()
            flat_p[i] = orig - h
            lo = loss_at()
            flat_p[i] = orig
            flat_g[i] = (hi - lo) / (2 * h)
    return grads


class TestFullLossGradients:
    @pytest.mark.parametrize("kind", [EG, VB, ME])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_analytic_matches_finite_differences(self, kind, seed):
        rng = np.random.default_rng(100 + seed)
        spec = AgentSpec(kind=kind)
        n_actions = 3
        out_dim = n_actions if kind == EG else 2 * n_actions
        params = NetworkParams.init(4, (3,), out_dim, rng)
        target_params = NetworkParams.init(4, (3,), out_dim, rng)
        s = rng.standard_normal(4)
        s_next = rng.standard_normal(4)
        noise = rng.standard_normal(n_actions) if kind != EG else None
        tr = Transition(s, int(rng.integers(0, n_actions)), 0.7, s_next)

        _, analytic = loss_grads(params, target_params, tr, spec, noise)
        numeric = fd_loss_grads(params, target_params, tr, spec, noise)
        for a, n in zip(analytic.arrays(), numeric.arrays()):
            assert np.allclose(a, n, rtol=1e-4, atol=1e-7), f"{kind} gradient mismatch"
