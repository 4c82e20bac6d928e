"""The loss path pinned to a reference copy of its earlier, per-kind formulas.

``reference_output_gradients`` below is the loss that training ran before
the TD term and the regularizers were split apart: ``loss_vb`` and
``loss_me`` each carried their own TD term, reparameterization, density
and softmax. ``loss_and_output_grad`` must give bit-identical gradients on
random draws. The loss itself only feeds a finiteness check, and the vb
density is now evaluated in standardized form, so it is compared with a
tight tolerance instead.
"""

import math

import numpy as np
import pytest

from punctrl.agents import EG, ME, SIGN_AS_WRITTEN, SIGN_UNIFORM_PRIOR, VB, AgentSpec, Transition
from punctrl.net import reparameterize, split_gaussian
from punctrl.train import loss_and_output_grad

DRAWS = 250


def reference_loss_vb(prediction, bootstrap_target, action, mu, log_sigma, noise, spec):
    sigma = np.exp(log_sigma)
    q = reparameterize(mu, log_sigma, noise)
    diff = prediction - bootstrap_target
    loss_td = diff * diff

    dev = q - mu
    inv_var = np.exp(-2.0 * log_sigma)
    log_dens = -log_sigma - 0.5 * math.log(2.0 * math.pi) - dev * dev * inv_var / 2.0
    loss_lp = float(np.sum(log_dens))

    dlp_dq = -dev * inv_var
    dlp_dmu = dev * inv_var
    dlp_dls = -1.0 + dev * dev * inv_var
    dq_dls = sigma * noise
    grad_mu_lp = dlp_dmu + dlp_dq
    grad_ls_lp = dlp_dls + dlp_dq * dq_dls

    grad_mu = spec.w_lp * grad_mu_lp
    grad_ls = spec.w_lp * grad_ls_lp
    grad_mu[action] += 2.0 * diff
    grad_ls[action] += 2.0 * diff * sigma[action] * noise[action]
    return loss_td + spec.w_lp * loss_lp, grad_mu, grad_ls


def reference_loss_me(prediction, bootstrap_target, action, mu, log_sigma, noise, spec):
    sign = -1.0 if spec.me_sign == SIGN_UNIFORM_PRIOR else 1.0
    sigma = np.exp(log_sigma)
    q = reparameterize(mu, log_sigma, noise)
    diff = prediction - bootstrap_target
    loss_td = diff * diff

    shifted = q - np.max(q)
    e = np.exp(shifted)
    sm_raw = e / np.sum(e)
    sm = np.clip(sm_raw, spec.softmax_clip_low, 1.0)
    loss_me_term = float(np.sum(np.log(sm)))

    unclamped = sm_raw >= spec.softmax_clip_low
    k = float(np.sum(unclamped))
    grad_q = unclamped.astype(float) - k * sm_raw

    grad_mu = sign * spec.w_me * grad_q
    grad_ls = sign * spec.w_me * grad_q * sigma * noise
    grad_mu[action] += 2.0 * diff
    grad_ls[action] += 2.0 * diff * sigma[action] * noise[action]
    return loss_td + sign * spec.w_me * loss_me_term, grad_mu, grad_ls


def reference_output_gradients(spec, head_out, noise, tr, target_q):
    """(loss, grad_out), with the sampled q taken as the action choice rebuilt it."""
    if spec.kind == EG:
        q = np.asarray(head_out, dtype=float)
    else:
        mu, log_sigma = split_gaussian(head_out)
        q = mu + np.exp(log_sigma) * noise
    prediction = float(q[tr.a])
    gamma = 0.0 if tr.terminal else spec.gamma
    bootstrap_target = tr.r + gamma * float(np.max(target_q))
    if spec.kind == EG:
        diff = prediction - bootstrap_target
        grad_out = np.zeros_like(head_out)
        grad_out[tr.a] = 2.0 * diff
        return diff * diff, grad_out
    mu, log_sigma = split_gaussian(head_out)
    loss_fn = reference_loss_vb if spec.kind == VB else reference_loss_me
    loss, grad_mu, grad_ls = loss_fn(
        prediction, bootstrap_target, tr.a, mu, log_sigma, noise, spec
    )
    return loss, np.concatenate([grad_mu, grad_ls])


def random_case(spec, rng):
    """One transition with head output, noise and target values of varied scale."""
    n_actions = int(rng.integers(2, 6))
    # wide mean spreads push softmax entries below the clip
    scale = float(rng.choice([0.5, 3.0, 12.0]))
    mu = rng.standard_normal(n_actions) * scale
    if spec.kind == EG:
        head_out, noise = mu, None
    else:
        head_out = np.concatenate([mu, rng.uniform(-4.0, 2.0, n_actions)])
        noise = rng.standard_normal(n_actions)
    tr = Transition(None, int(rng.integers(0, n_actions)), float(rng.standard_normal() * 5.0),
                    None, terminal=bool(rng.random() < 0.3))
    target_q = rng.standard_normal(n_actions) * scale
    return head_out, noise, tr, target_q


SPECS = [
    AgentSpec(kind=EG),
    AgentSpec(kind=VB),
    AgentSpec(kind=ME, me_sign=SIGN_UNIFORM_PRIOR),
    AgentSpec(kind=ME, me_sign=SIGN_AS_WRITTEN),
]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-{s.me_sign}")
def test_matches_reference_formulas(spec):
    rng = np.random.default_rng(31)
    terminal = clamped = 0
    for _ in range(DRAWS):
        head_out, noise, tr, target_q = random_case(spec, rng)
        loss, grad = loss_and_output_grad(spec, head_out, noise, tr, target_q)
        ref_loss, ref_grad = reference_output_gradients(spec, head_out, noise, tr, target_q)
        assert np.array_equal(grad, ref_grad)
        assert loss == pytest.approx(ref_loss, rel=1e-12, abs=1e-12)
        terminal += tr.terminal
        if spec.kind != EG:
            mu, log_sigma = split_gaussian(head_out)
            q = mu + np.exp(log_sigma) * noise
            sm = np.exp(q - q.max()) / np.sum(np.exp(q - q.max()))
            clamped += bool(np.any(sm < spec.softmax_clip_low))
    # the draws reach the branches that matter
    assert terminal >= DRAWS // 10
    if spec.kind != EG:
        assert clamped >= DRAWS // 10
