"""Training protocol, manual-scheduling baseline, and probe experiments.

Training is fully online: one environment step, one gradient step on that
single transition, one Polyak target update. Episodes reset the
environment (the random stream keeps running) but never the networks.
"""

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .agents import (
    AGENT_KINDS,
    EG,
    VB,
    AgentSpec,
    Transition,
    epsilon_at,
    loss_eg,
    loss_me,
    loss_vb,
    select_action,
    td_components,
)
from .metrics import EpisodeRow
from .net import (
    Adam,
    ForwardCache,
    NetworkParams,
    TargetPair,
    forward,
    forward_cached,
    backward,
    head_output_dim,
    params_from_bytes,
    params_to_bytes,
    reparameterize,
    split_gaussian,
)
from .seeding import STREAM_ACTION, STREAM_ENV, STREAM_NET_INIT, check_seed, substream
from .sim import PuncturingSim, RequestKind, SimConfig
from .validation import check_count, check_positive

PROBE_GAIN = 2.0  # the mean of the Rayleigh-squared gain distribution
ADAPTATION_CAP = 10000


class TrainingDiverged(RuntimeError):
    """Raised when parameters or the loss stop being finite."""


def _learner(default):
    """A TrainConfig field that only a learning agent reads, not the manual baseline."""
    return field(default=default, metadata={"learner": True})


@dataclass
class TrainConfig:
    """Settings of one run; the only place their defaults are written."""

    agent: AgentSpec = field(default_factory=AgentSpec)
    sim: SimConfig = field(default_factory=SimConfig)
    episodes: int = 30
    steps_per_episode: int = 3000
    seed: int = 0
    hidden_dims: tuple = _learner((128, 128))
    learning_rate: float = _learner(1e-4)
    target_tau: float = _learner(1e-4)
    checkpoint_every: int = _learner(0)
    checkpoint_dir: str | None = _learner(None)

    def validate(self) -> "TrainConfig":
        self.agent.validate()
        self.sim.validate()
        check_count("episodes", self.episodes, minimum=0)
        check_count("steps_per_episode", self.steps_per_episode, minimum=1)
        check_seed(self.seed)
        check_positive("learning_rate", self.learning_rate)
        check_positive("target_tau", self.target_tau)
        check_count("checkpoint_every", self.checkpoint_every, minimum=0)
        if not self.hidden_dims:
            raise ValueError("hidden_dims must name at least one hidden layer")
        for width in self.hidden_dims:
            check_count("hidden_dims width", width, minimum=1)
        return self

    @property
    def total_decay_steps(self) -> int:
        return int(self.agent.epsilon_decay_fraction * self.episodes * self.steps_per_episode)


def format_run_id(kind: str, seed: int) -> str:
    """Name of one run in episode rows and checkpoint file names."""
    return f"{kind}-s{seed}"


@dataclass
class RunResult:
    run_id: str
    agent_kind: str
    seed: int
    episodes: list
    final_params: NetworkParams | None
    total_steps: int
    checkpoints: list = field(default_factory=list)


def build_network(cfg: TrainConfig, rng: np.random.Generator) -> NetworkParams:
    out_dim = head_output_dim(cfg.agent.head_mode, cfg.sim.n_actions)
    return NetworkParams.init(cfg.sim.state_dim, cfg.hidden_dims, out_dim, rng)


def loss_and_output_grad(spec, head_out, noise, tr, target_q):
    """Loss of one transition and its gradient w.r.t. the raw head output.

    The TD term is computed once for every kind, on the estimates the action
    was chosen from: the deterministic output for eg, the sample rebuilt
    from ``noise`` for vb/me. The Gaussian kinds add their regularizer, and
    the TD gradient reaches log_sigma[a] through that sample.
    """
    if spec.kind == EG:
        q = head_out
    else:
        mu, log_sigma = split_gaussian(head_out)
        q = reparameterize(mu, log_sigma, noise)
    prediction, bootstrap_target = td_components(spec, q, target_q, tr)
    loss, grad_pred = loss_eg(prediction, bootstrap_target)
    if spec.kind == EG:
        grad_out = np.zeros_like(head_out)
        grad_out[tr.a] = grad_pred
        return loss, grad_out
    sigma = np.exp(log_sigma)
    if spec.kind == VB:
        loss_reg, grad_mu, grad_ls = loss_vb(spec, q, mu, log_sigma, sigma, noise)
    else:
        loss_reg, grad_mu, grad_ls = loss_me(spec, q, sigma, noise)
    grad_mu[tr.a] += grad_pred
    grad_ls[tr.a] += grad_pred * sigma[tr.a] * noise[tr.a]
    return loss + loss_reg, np.concatenate([grad_mu, grad_ls])


def loss_and_grads(spec, online, target, head_out, cache, noise, tr, grads) -> float:
    """Loss of one transition; fills ``grads`` with its gradient w.r.t. ``online``.

    ``head_out`` and ``cache`` come from ``forward_cached(online, tr.s)``.
    Gaussian targets bootstrap from their means; either way the bootstrap
    is a constant in the loss.
    """
    target_q = forward(target, tr.s_next)
    if spec.kind != EG:
        target_q = split_gaussian(target_q)[0]
    loss, grad_out = loss_and_output_grad(spec, head_out, noise, tr, target_q)
    backward(online, cache, grad_out, out=grads)
    return loss


def _learn_step(spec, pair, adam, head_out, cache, noise, tr, grads) -> float:
    """One gradient/Polyak update on a single transition; returns the loss.

    ``grads`` is the run's gradient buffer, overwritten by every step.
    """
    loss = loss_and_grads(spec, pair.online, pair.target, head_out, cache, noise, tr, grads)
    adam.step(pair.online, grads)
    pair.polyak_update()
    return loss


def _episode_row(kind: str, seed: int, env: PuncturingSim, episode: int, sum_reward: float,
                 epsilon_end: float) -> EpisodeRow:
    c = env.counters
    # a request still pending at truncation is neither served nor missed;
    # ratios are over resolved requests so missed + scheduled = arrived
    arrived = c.arrived - (1 if env.request.pending else 0)
    arrived_critical = c.arrived_critical - (
        1 if env.request.kind is RequestKind.CRITICAL else 0
    )
    return EpisodeRow(
        run_id=format_run_id(kind, seed),
        agent=kind,
        seed=seed,
        episode=episode,
        sum_reward=sum_reward,
        tx_interrupted_ratio=c.tx_interrupted / max(c.tx_started, 1),
        urllc_missed_ratio=c.discarded / arrived if arrived > 0 else 0.0,
        critical_missed_ratio=(
            c.discarded_critical / arrived_critical if arrived_critical > 0 else 0.0
        ),
        epsilon_end=epsilon_end,
    )


def train(cfg: TrainConfig, initial_params: NetworkParams | None = None) -> RunResult:
    """Run the online training protocol and return per-episode metrics."""
    cfg.validate()
    spec = cfg.agent
    run_id = format_run_id(spec.kind, cfg.seed)
    env = PuncturingSim(cfg.sim, substream(cfg.seed, STREAM_ENV))
    action_rng = substream(cfg.seed, STREAM_ACTION)
    if initial_params is None:
        online = build_network(cfg, substream(cfg.seed, STREAM_NET_INIT))
    else:
        online = initial_params.copy()
    pair = TargetPair(online, tau=cfg.target_tau)
    adam = Adam(online, cfg.learning_rate)
    # per-run buffers that every step refills
    cache = ForwardCache(online, (cfg.sim.state_dim,))
    grads = online.zeros_like()
    tr = Transition(None, 0, 0.0, None, terminal=False)

    total_decay = cfg.total_decay_steps
    rows = []
    checkpoints = []
    global_step = 0
    is_eg = spec.kind == EG

    for episode in range(1, cfg.episodes + 1):
        obs = env.reset()
        sum_reward = 0.0
        epsilon = 0.0
        for _ in range(cfg.steps_per_episode):
            if is_eg:
                epsilon = epsilon_at(global_step, total_decay, spec)
            head_out, _ = forward_cached(online, obs, cache)
            action, noise = select_action(spec, head_out, action_rng, epsilon)
            obs_next, reward, _ = env.step(action)
            tr.s, tr.a, tr.r, tr.s_next = obs, action, reward.r_total, obs_next
            loss = _learn_step(spec, pair, adam, head_out, cache, noise, tr, grads)
            if not math.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite loss at episode {episode}, step {global_step} "
                    f"({run_id})"
                )
            sum_reward += reward.r_total
            obs = obs_next
            global_step += 1
        if not online.all_finite():
            raise TrainingDiverged(
                f"non-finite parameters after episode {episode} ({run_id})"
            )
        rows.append(
            _episode_row(spec.kind, cfg.seed, env, episode, sum_reward, epsilon if is_eg else 0.0)
        )
        if (
            cfg.checkpoint_dir
            and cfg.checkpoint_every > 0
            and episode % cfg.checkpoint_every == 0
            and episode < cfg.episodes
        ):
            path = os.path.join(cfg.checkpoint_dir, f"{run_id}_ep{episode:03d}.ckpt")
            save_checkpoint(path, online, spec.kind, global_step)
            checkpoints.append(path)

    if cfg.checkpoint_dir:
        path = os.path.join(cfg.checkpoint_dir, f"{run_id}_final.ckpt")
        save_checkpoint(path, online, spec.kind, global_step)
        checkpoints.append(path)
    return RunResult(run_id, spec.kind, cfg.seed, rows, online, global_step, checkpoints)


MANUAL = "manual"


def manual_action(remaining, kind: RequestKind) -> int:
    """Deterministic scheduling heuristic used as the non-learned baseline.

    Catch-focused: any pending request, normal or critical, is scheduled
    right away into the resource with the least remaining occupation (a free
    one if available, ties to the lowest index). Nothing is ever missed, at
    the price of somewhat more interrupted transmissions.
    """
    if kind is RequestKind.NONE:
        return 0
    return 1 + min(range(len(remaining)), key=remaining.__getitem__)


def manual_baseline(cfg: TrainConfig) -> RunResult:
    """Evaluate the manual heuristic without learning; same metrics as train."""
    cfg.validate()
    env = PuncturingSim(cfg.sim, substream(cfg.seed, STREAM_ENV))
    rows = []
    total_steps = 0
    for episode in range(1, cfg.episodes + 1):
        env.reset()
        sum_reward = 0.0
        for _ in range(cfg.steps_per_episode):
            action = manual_action([res.remaining_slots for res in env.resources], env.request.kind)
            _, reward, _ = env.step(action)
            sum_reward += reward.r_total
            total_steps += 1
        rows.append(_episode_row(MANUAL, cfg.seed, env, episode, sum_reward, 0.0))
    return RunResult(format_run_id(MANUAL, cfg.seed), MANUAL, cfg.seed, rows, None, total_steps)


def make_probe_state(sim_cfg: SimConfig) -> np.ndarray:
    """Critical request in the first mini-slot, every resource fully occupied."""
    obs = np.ones(sim_cfg.state_dim)
    obs[0] = 0.0
    return obs


@dataclass
class ProbeReaction:
    """Head readout on the probe state."""

    argmax_action: int
    md: float | None
    logstd_wait: float | None = None
    mean_logstd_punct: float | None = None


def probe_reaction(params: NetworkParams, spec: AgentSpec, sim_cfg: SimConfig) -> ProbeReaction:
    """Preference magnitude of waiting vs puncturing on the probe state.

    md = estimate(wait) / mean(estimate(punctures)); undefined (None) when
    the denominator magnitude falls below 1e-12.
    """
    out = forward(params, make_probe_state(sim_cfg))
    if spec.kind == EG:
        q = out
        logstd_wait = mean_logstd_punct = None
    else:
        q, log_sigma = split_gaussian(out)
        logstd_wait = float(log_sigma[0])
        mean_logstd_punct = float(np.mean(log_sigma[1:]))
    denom = float(np.mean(q[1:]))
    md = float(q[0]) / denom if abs(denom) >= 1e-12 else None
    return ProbeReaction(int(np.argmax(q)), md, logstd_wait, mean_logstd_punct)


def probe_transition(sim_cfg: SimConfig) -> Transition:
    """The one-step experience of waiting through the probe situation.

    Reward: full capacity of the occupied resources at the distribution-mean
    gain, minus the critical-discard penalty. The successor observation is
    the next slot with no request and every occupation one slot shorter; the
    transition bootstraps through it like any training step, which is what
    keeps a committed greedy head from flipping after a handful of updates.
    """
    s = make_probe_state(sim_cfg)
    r_capacity = sim_cfg.n_resources * math.log1p(PROBE_GAIN)
    r = sim_cfg.w_capacity * r_capacity + sim_cfg.w_discard_critical * (-1.0)
    s_next = np.empty(sim_cfg.state_dim)
    s_next[0] = 1.0 / max(sim_cfg.slots_per_subframe - 1, 1)
    s_next[1] = 0.0
    s_next[2] = 0.0
    s_next[3:] = (sim_cfg.slots_per_subframe - 1) / sim_cfg.slots_per_subframe
    return Transition(s, 0, r, s_next, terminal=False)


def probe_adaptation(
    params: NetworkParams,
    spec: AgentSpec,
    cfg: TrainConfig,
    rng: np.random.Generator,
    cap: int = ADAPTATION_CAP,
) -> int:
    """Confront-train-repeat on the probe state until a puncture is chosen.

    Returns the confrontation count of the first puncturing decision, or
    ``cap`` if the agent never explores; ``cap`` below 1 raises ValueError.
    The networks start from a copy of the snapshot with a fresh optimizer
    and target, so repetitions are independent. A deterministic head makes
    no random choice at epsilon 0, so its count does not depend on ``rng``:
    ``punctrl probe`` computes it once per checkpoint and repeats it.
    """
    check_count("cap", cap, minimum=1)
    online = params.copy()
    pair = TargetPair(online, tau=cfg.target_tau)
    adam = Adam(online, cfg.learning_rate)
    tr = probe_transition(cfg.sim)
    cache = ForwardCache(online, tr.s.shape)
    grads = online.zeros_like()
    for count in range(1, cap + 1):
        head_out, _ = forward_cached(online, tr.s, cache)
        action, noise = select_action(spec, head_out, rng, epsilon=0.0)
        if action != 0:
            return count
        loss = _learn_step(spec, pair, adam, head_out, cache, noise, tr, grads)
        if not math.isfinite(loss):
            raise TrainingDiverged(f"non-finite loss during adaptation probe at step {count}")
    return cap


CHECKPOINT_MAGIC = b"PCKP"


def save_checkpoint(path, params: NetworkParams, agent_kind: str, step_count: int) -> None:
    """Parameter snapshot prefixed with the agent kind and training step count."""
    kind_bytes = agent_kind.encode("utf-8")
    header = (
        CHECKPOINT_MAGIC
        + np.array([len(kind_bytes)], dtype="<u4").tobytes()
        + kind_bytes
        + np.array([step_count], dtype="<u8").tobytes()
    )
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(header + params_to_bytes(params))


def load_checkpoint(path) -> tuple[NetworkParams, str, int]:
    """Read a checkpoint; a malformed file raises ValueError naming ``path``."""
    with open(path, "rb") as fh:
        buf = fh.read()
    try:
        if buf[:4] != CHECKPOINT_MAGIC:
            raise ValueError("not a checkpoint file")
        if len(buf) < 8:
            raise ValueError(f"truncated checkpoint: {len(buf)} bytes, no agent kind length")
        offset = 8 + int.from_bytes(buf[4:8], "little")
        if len(buf) < offset + 8:
            raise ValueError(f"truncated checkpoint: {len(buf)} bytes, header needs {offset + 8}")
        kind = buf[8:offset].decode("utf-8", errors="replace")
        if kind not in AGENT_KINDS:
            raise ValueError(f"agent kind {kind!r} is not one of {AGENT_KINDS}")
        step_count = int.from_bytes(buf[offset : offset + 8], "little")
        params = params_from_bytes(buf[offset + 8 :])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return params, kind, step_count
