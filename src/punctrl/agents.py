"""Exploration strategies: action selection and the terms of the per-transition loss.

Three agent kinds share the one-step temporal-difference objective and
differ in how they explore:

* ``eg`` -- deterministic head, epsilon-greedy with a linear epsilon decay;
* ``vb`` -- Gaussian head, explores through output sampling, and adds the
  summed log probability density of the sampled estimates to the loss so
  minimization keeps the variance up;
* ``me`` -- Gaussian head, adds a softmax-based uniformity penalty so the
  per-action estimates stay close in magnitude.
"""

import math
from dataclasses import dataclass

import numpy as np

from .net import (
    DETERMINISTIC,
    GAUSSIAN,
    gaussian_log_density,
    sample_gaussian_head,
    split_gaussian,
)
from .validation import check_finite, check_probability

EG = "eg"
VB = "vb"
ME = "me"
AGENT_KINDS = (EG, VB, ME)

SIGN_UNIFORM_PRIOR = "uniform_prior"
SIGN_AS_WRITTEN = "as_written"
ME_SIGNS = (SIGN_UNIFORM_PRIOR, SIGN_AS_WRITTEN)


@dataclass
class AgentSpec:
    """One exploration strategy with its loss weights and schedules."""

    kind: str = EG
    epsilon_initial: float = 0.99
    epsilon_decay_fraction: float = 0.5
    w_lp: float = 1e-2
    w_me: float = math.e
    softmax_clip_low: float = 1e-3
    gamma: float = 0.99
    me_sign: str = SIGN_UNIFORM_PRIOR

    def validate(self) -> "AgentSpec":
        if self.kind not in AGENT_KINDS:
            raise ValueError(f"kind must be one of {AGENT_KINDS}, got {self.kind!r}")
        check_probability("epsilon_initial", self.epsilon_initial)
        check_probability("epsilon_decay_fraction", self.epsilon_decay_fraction)
        check_probability("gamma", self.gamma)
        check_finite("w_lp", self.w_lp)
        check_finite("w_me", self.w_me)
        if not 0.0 < self.softmax_clip_low < 1.0:
            raise ValueError(f"softmax_clip_low must lie in (0, 1), got {self.softmax_clip_low}")
        if self.me_sign not in ME_SIGNS:
            raise ValueError(f"me_sign must be one of {ME_SIGNS}, got {self.me_sign!r}")
        return self

    @property
    def head_mode(self) -> str:
        return DETERMINISTIC if self.kind == EG else GAUSSIAN


@dataclass
class Transition:
    s: np.ndarray
    a: int
    r: float
    s_next: np.ndarray


def epsilon_at(step: int, total_decay_steps: int, spec: AgentSpec) -> float:
    """Linear decay from epsilon_initial to exactly 0 at total_decay_steps; 0 for vb/me."""
    if spec.kind != EG or total_decay_steps <= 0:
        return 0.0
    return max(0.0, spec.epsilon_initial * (1.0 - step / total_decay_steps))


def select_action(
    spec: AgentSpec,
    head_out: np.ndarray,
    rng: np.random.Generator,
    epsilon: float,
) -> tuple[int, np.ndarray | None]:
    """Pick an action from the raw head output; returns (action, noise).

    eg: epsilon-uniform, otherwise greedy on the deterministic estimates;
    noise is None. vb/me: sample every action's estimate through the
    Gaussian head and act greedily on the sample; the sampling itself is the
    exploration, and noise is the standard-normal draw the loss replays.
    """
    if spec.kind == EG:
        q = np.asarray(head_out, dtype=float)
        if rng.random() < epsilon:
            return int(rng.integers(0, q.shape[0])), None
        return int(np.argmax(q)), None
    mu, log_sigma = split_gaussian(np.asarray(head_out, dtype=float))
    q, noise = sample_gaussian_head(mu, log_sigma, rng)
    return int(np.argmax(q)), noise


def td_components(
    spec: AgentSpec,
    online_q: np.ndarray,
    target_q_next: np.ndarray,
    tr: Transition,
) -> tuple[float, float]:
    """One-step TD pieces: the prediction and its bootstrapped target.

    ``online_q`` are the estimates the action was chosen from (sampled ones
    for stochastic heads); the target-side maximum is treated as a constant.
    Episodes truncate rather than end, so every transition bootstraps.
    """
    prediction = float(online_q[tr.a])
    bootstrap_target = tr.r + spec.gamma * float(np.max(target_q_next))
    return prediction, bootstrap_target


def loss_eg(prediction: float, bootstrap_target: float) -> tuple[float, float]:
    """Squared TD error and its gradient w.r.t. the prediction."""
    diff = prediction - bootstrap_target
    return diff * diff, 2.0 * diff


def loss_vb(spec: AgentSpec, q, mu, log_sigma, sigma, noise):
    """Weighted sum of the log densities of the sampled q = mu + sigma * noise.

    Returns (loss, grad_mu, grad_log_sigma) of this regularizer alone, the
    gradients as lists. The gradient goes through the full chain rule: the
    density's direct (mu, log_sigma) arguments plus the reparameterization
    path of q. At the sample those contributions cancel to exactly 0 for mu
    and -1 for log_sigma, which is what keeps the variance from collapsing.
    """
    w = spec.w_lp
    loss = w * float(np.sum(gaussian_log_density(q, mu, log_sigma)))
    # per action on Python floats, whose IEEE results equal numpy's without
    # its cost per call; np.exp and np.sum round and order as before
    grad_mu, grad_ls = [], []
    for qi, mi, si, ni, inv_var in zip(q.tolist(), mu.tolist(), sigma.tolist(), noise.tolist(),
                                       np.exp(-2.0 * log_sigma).tolist()):
        dev = qi - mi
        # direct partials of the density and the reparameterization path
        dlp_dq = -dev * inv_var
        grad_mu.append(w * (dev * inv_var + dlp_dq))  # dq/dmu = 1
        grad_ls.append(w * (-1.0 + dev * dev * inv_var + dlp_dq * (si * ni)))
    return loss, grad_mu, grad_ls


def loss_me(spec: AgentSpec, q, sigma, noise):
    """Weighted sum of the log softmax values of the sampled q.

    Returns (loss, grad_mu, grad_log_sigma) of this penalty alone, the
    gradients as lists. In the default ``uniform_prior`` mode the sum is
    subtracted, making the penalty smallest at a uniform softmax;
    ``as_written`` adds it instead. Each softmax value is clamped to
    [softmax_clip_low, 1] before its log, without renormalizing, so no log
    sees zero; clamped components contribute no gradient.
    """
    weight = (-1.0 if spec.me_sign == SIGN_UNIFORM_PRIOR else 1.0) * spec.w_me
    low = spec.softmax_clip_low
    # softmax shifted by the maximum, so no exp overflows
    e = np.exp(q - np.max(q))
    # per action on Python floats, as in loss_vb; np.log and np.sum stay numpy
    sm_raw = (e / np.sum(e)).tolist()
    loss = weight * float(np.sum(np.log([min(max(s, low), 1.0) for s in sm_raw])))
    unclamped = [s >= low for s in sm_raw]
    k = float(sum(unclamped))
    # d/dq_j sum_{i unclamped} log sm_i = [j unclamped] - k * sm_j
    grad_mu = [weight * (float(u) - k * s) for u, s in zip(unclamped, sm_raw)]
    grad_ls = [g * si * ni for g, si, ni in zip(grad_mu, sigma.tolist(), noise.tolist())]
    return loss, grad_mu, grad_ls
