"""Training protocol, manual-scheduling baseline, and probe experiments.

Training is fully online: one environment step, one gradient step on that
single transition, one Polyak target update. Episodes reset the
environment (the random stream keeps running) but never the networks.
"""

import glob
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .agents import (
    AGENT_KINDS,
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
from .metrics import EpisodeRow, ProbeRow, write_atomic
from .net import (
    Adam,
    ForwardCache,
    NetworkParams,
    TargetPair,
    forward,
    forward_cached,
    backward,
    head_output_dim,
    read_head,
    reparameterize,
)
from .seeding import STREAM_ACTION, STREAM_ENV, STREAM_NET_INIT, check_seed, substream
from .sim import CRITICAL, NONE, PuncturingSim, RequestKind, SimConfig, encode_state
from .validation import check_count, check_positive

ADAPTATION_CAP = 10000
ADAPTATION_REPS = 10
ADAPTATION_SEED = 0


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


def format_run_id(kind: str, seed: int) -> str:
    """Name of one run in episode rows and checkpoint file names."""
    return f"{kind}-s{seed}"


@dataclass
class RunResult:
    run_id: str
    episodes: list
    final_params: NetworkParams | None
    total_steps: int


def network_dims(cfg: TrainConfig) -> tuple:
    """Input width, hidden widths and head width of ``cfg.agent``'s network on ``cfg``."""
    head_width = head_output_dim(cfg.agent.head_mode, cfg.sim.n_actions)
    return cfg.sim.state_dim, cfg.hidden_dims, head_width


def build_network(cfg: TrainConfig, rng: np.random.Generator) -> NetworkParams:
    return NetworkParams.init(*network_dims(cfg), rng)


def loss_and_output_grad(spec, head_out, noise, tr, target_q):
    """Loss of one transition and its gradient w.r.t. the raw head output.

    The TD term is computed once for every kind, on the estimates the action
    was chosen from: the deterministic output for eg, the sample rebuilt
    from ``noise`` for vb/me. The Gaussian kinds add their regularizer, and
    the TD gradient reaches log_sigma[a] through that sample.
    """
    mu, log_sigma = read_head(spec.head_mode, head_out)
    q = mu if log_sigma is None else reparameterize(mu, log_sigma, noise)
    prediction, bootstrap_target = td_components(spec, q, target_q, tr)
    loss, grad_pred = loss_eg(prediction, bootstrap_target)
    if log_sigma is None:
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
    return loss + loss_reg, np.array(grad_mu + grad_ls)


def loss_and_grads(spec, online, target, head_out, cache, noise, tr, grads) -> float:
    """Loss of one transition; fills ``grads`` with its gradient w.r.t. ``online``.

    ``head_out`` and ``cache`` come from ``forward_cached(online, tr.s)``.
    Gaussian targets bootstrap from their means; either way the bootstrap
    is a constant in the loss.
    """
    target_q = read_head(spec.head_mode, forward(target, tr.s_next))[0]
    loss, grad_out = loss_and_output_grad(spec, head_out, noise, tr, target_q)
    backward(online, cache, grad_out, out=grads)
    return loss


class Learner:
    """The online DQN update that training and the adaptation probe both run.

    Owns the online/target pair, the optimizer and the buffers every step
    refills. ``act`` keeps the head output and noise that the next ``learn``
    replays; ``label`` names the run in a divergence error.
    """

    def __init__(self, online: NetworkParams, cfg: TrainConfig, label: str):
        self.spec = cfg.agent
        self.label = label
        self.pair = TargetPair(online, tau=cfg.target_tau)
        self.adam = Adam(online, cfg.learning_rate)
        self.cache = ForwardCache(online)
        self.grads = online.zeros_like()
        self.head_out = self.noise = None

    def act(self, s, rng: np.random.Generator, epsilon: float = 0.0) -> int:
        self.head_out, _ = forward_cached(self.pair.online, s, self.cache)
        action, self.noise = select_action(self.spec, self.head_out, rng, epsilon)
        return action

    def learn(self, tr: Transition) -> None:
        """One gradient step and Polyak update on ``tr``, the transition of the last act."""
        pair = self.pair
        loss = loss_and_grads(self.spec, pair.online, pair.target, self.head_out, self.cache,
                              self.noise, tr, self.grads)
        if not math.isfinite(loss):
            raise TrainingDiverged(
                f"non-finite loss at update {self.adam.step_count + 1} ({self.label})"
            )
        self.adam.step(pair.online, self.grads)
        pair.polyak_update()


def _episode_row(kind: str, seed: int, env: PuncturingSim, episode: int, sum_reward: float,
                 epsilon_end: float) -> EpisodeRow:
    c = env.counters
    # a request still pending at truncation is neither served nor missed;
    # ratios are over resolved requests so missed + scheduled = arrived
    arrived = c.arrived - (0 if env.request is NONE else 1)
    arrived_critical = c.arrived_critical - (1 if env.request is CRITICAL else 0)
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


def train(cfg: TrainConfig) -> RunResult:
    """Run the online training protocol and return per-episode metrics."""
    cfg.validate()
    spec = cfg.agent
    run_id = format_run_id(spec.kind, cfg.seed)
    env = PuncturingSim(cfg.sim, substream(cfg.seed, STREAM_ENV))
    action_rng = substream(cfg.seed, STREAM_ACTION)
    online = build_network(cfg, substream(cfg.seed, STREAM_NET_INIT))
    learner = Learner(online, cfg, run_id)
    tr = Transition(None, 0, 0.0, None)
    decay_steps = int(spec.epsilon_decay_fraction * cfg.episodes * cfg.steps_per_episode)
    rows = []

    for episode in range(1, cfg.episodes + 1):
        obs = env.reset()
        sum_reward = 0.0
        for _ in range(cfg.steps_per_episode):
            epsilon = epsilon_at(learner.adam.step_count, decay_steps, spec)
            action = learner.act(obs, action_rng, epsilon)
            r_total = env.step(action)
            obs_next = env.observe()
            tr.s, tr.a, tr.r, tr.s_next = obs, action, r_total, obs_next
            learner.learn(tr)
            sum_reward += r_total
            obs = obs_next
        if not online.all_finite():
            raise TrainingDiverged(
                f"non-finite parameters after episode {episode} ({run_id})"
            )
        rows.append(_episode_row(spec.kind, cfg.seed, env, episode, sum_reward, epsilon))
        if (
            cfg.checkpoint_dir
            and cfg.checkpoint_every > 0
            and episode % cfg.checkpoint_every == 0
            and episode < cfg.episodes
        ):
            path = os.path.join(cfg.checkpoint_dir, f"{run_id}_ep{episode:03d}.ckpt")
            save_checkpoint(path, online, spec.kind, learner.adam.step_count)

    if cfg.checkpoint_dir:
        path = os.path.join(cfg.checkpoint_dir, f"{run_id}_final.ckpt")
        save_checkpoint(path, online, spec.kind, learner.adam.step_count)
    return RunResult(run_id, rows, online, learner.adam.step_count)


MANUAL = "manual"


def manual_action(remaining, kind: RequestKind) -> int:
    """Deterministic scheduling heuristic used as the non-learned baseline.

    Catch-focused: any pending request, normal or critical, is scheduled
    right away into the resource with the least remaining occupation (a free
    one if available, ties to the lowest index). Nothing is ever missed, at
    the price of somewhat more interrupted transmissions.
    """
    if kind is NONE:
        return 0
    # index() returns the first minimum, so ties go to the lowest index
    return 1 + remaining.index(min(remaining))


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
            # the heuristic reads the state directly; it needs no observation
            action = manual_action(env.remaining, env.request)
            sum_reward += env.step(action)
        total_steps += cfg.steps_per_episode
        rows.append(_episode_row(MANUAL, cfg.seed, env, episode, sum_reward, 0.0))
    return RunResult(format_run_id(MANUAL, cfg.seed), rows, None, total_steps)


def make_probe_state(sim_cfg: SimConfig) -> np.ndarray:
    """Critical request in the first mini-slot, every resource fully occupied."""
    slots = sim_cfg.slots_per_subframe
    return encode_state(sim_cfg, 0, CRITICAL, [slots] * sim_cfg.n_resources)


def probe_reaction(params: NetworkParams, cfg: TrainConfig, run_id: str) -> ProbeRow:
    """The reaction row of snapshot ``params`` of run ``run_id`` on the probe state.

    md = estimate(wait) / mean(estimate(punctures)); undefined (None) when
    the denominator magnitude falls below 1e-12. A Gaussian head adds the
    log-std of wait and the mean log-std of the punctures.
    """
    spec = cfg.agent
    q, log_sigma = read_head(spec.head_mode, forward(params, make_probe_state(cfg.sim)))
    denom = float(np.mean(q[1:]))
    row = ProbeRow(run_id, spec.kind, 0,
                   md=float(q[0]) / denom if abs(denom) >= 1e-12 else None)
    if log_sigma is not None:
        row.logstd_wait = float(log_sigma[0])
        row.mean_logstd_punct = float(np.mean(log_sigma[1:]))
    return row


def probe_transition(sim_cfg: SimConfig) -> Transition:
    """The one-step experience of waiting through the probe situation.

    Reward: full capacity of the occupied resources at the mean gain 2 sigma^2,
    minus the critical-discard penalty. The successor observation is the next
    slot with no request and every occupation one slot shorter; the
    transition bootstraps through it like any training step, which is what
    keeps a committed greedy head from flipping after a handful of updates.
    """
    s = make_probe_state(sim_cfg)
    mean_gain = 2.0 * sim_cfg.rayleigh_sigma * sim_cfg.rayleigh_sigma
    r_capacity = sim_cfg.n_resources * math.log1p(mean_gain)
    r = sim_cfg.w_capacity * r_capacity + sim_cfg.w_discard_critical * (-1.0)
    slots = sim_cfg.slots_per_subframe
    s_next = encode_state(sim_cfg, 1, NONE, [slots - 1] * sim_cfg.n_resources)
    return Transition(s, 0, r, s_next)


def probe_adaptation(params: NetworkParams, cfg: TrainConfig, rng: np.random.Generator,
                     cap: int) -> int:
    """Confront-train-repeat on the probe state until a puncture is chosen.

    Returns the confrontation count of the first puncturing decision, or
    ``cap`` if the agent never explores: a puncture at confrontation ``cap``
    would return ``cap`` too, so that confrontation is never run. ``cap``
    below 1 raises ValueError.
    The networks start from a copy of the snapshot with a fresh optimizer
    and target, so repetitions are independent. A deterministic head makes
    no random choice at epsilon 0, so its count does not depend on ``rng``:
    ``punctrl probe`` computes it once per checkpoint and repeats it.
    """
    check_count("cap", cap, minimum=1)
    learner = Learner(params.copy(), cfg, "adaptation probe")
    tr = probe_transition(cfg.sim)
    for count in range(1, cap):
        # learn from the confrontation before, so the update after the last one,
        # which nothing reads, is never made
        if count > 1:
            learner.learn(tr)
        if learner.act(tr.s, rng) != 0:
            return count
    return cap


CHECKPOINT_MAGIC = b"PCKP"


def save_checkpoint(path, params: NetworkParams, agent_kind: str, step_count: int) -> None:
    """Write ``params`` with the agent kind and training step count, atomically.

    Little-endian: the magic, the u4 length of the UTF-8 kind, the kind, the
    u8 step count, the u4 layer count, u4 rows and cols per layer, then
    ``params.flat`` as f8 in one piece.
    """
    kind = agent_kind.encode("utf-8")
    dims = [n for shape in params.shapes for n in shape]
    header = struct.pack(f"<4sI{len(kind)}sQI{len(dims)}I", CHECKPOINT_MAGIC, len(kind), kind,
                         step_count, len(params.shapes), *dims)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    write_atomic(path, header + params.flat.astype("<f8", copy=False).tobytes())


def find_checkpoints(root: str, kind: str, seeds) -> list:
    """The checkpoints ``train`` wrote under ``root`` for the ``kind`` runs of ``seeds``, in
    path order: each run's final checkpoint if it has one, else all of that run's."""
    run_ids = {format_run_id(kind, seed) for seed in seeds}
    found = sorted(glob.glob(os.path.join(root, "**", "*.ckpt"), recursive=True))
    runs = [os.path.basename(path).rsplit("_", 1)[0] for path in found]
    final = {run for run, path in zip(runs, found) if path.endswith("_final.ckpt")}
    return [path for run, path in zip(runs, found)
            if run in run_ids and (run not in final or path.endswith("_final.ckpt"))]


def load_checkpoint(path) -> tuple[NetworkParams, str, int]:
    """Read a checkpoint; a malformed file raises ValueError naming ``path``.

    The length the shape header implies is checked before anything is allocated.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    try:
        if buf[:4] != CHECKPOINT_MAGIC:
            raise ValueError("not a checkpoint file")
        if len(buf) < 8:
            raise ValueError(f"truncated checkpoint: {len(buf)} bytes, no agent kind length")
        offset = 8 + int.from_bytes(buf[4:8], "little")
        if len(buf) < offset + 12:
            raise ValueError(f"truncated checkpoint: {len(buf)} bytes, header needs {offset + 12}")
        kind = buf[8:offset].decode("utf-8", errors="replace")
        if kind not in AGENT_KINDS:
            raise ValueError(f"agent kind {kind!r} is not one of {AGENT_KINDS}")
        step_count, n_layers = struct.unpack_from("<QI", buf, offset)
        body = offset + 12 + 8 * n_layers
        if len(buf) < body:
            raise ValueError(f"truncated checkpoint: {len(buf)} bytes, the {n_layers}-layer "
                             f"shape header needs {body}")
        dims = struct.unpack_from(f"<{2 * n_layers}I", buf, offset + 12)
        shapes = list(zip(dims[::2], dims[1::2]))
        expected = body + 8 * sum(rows * cols + rows for rows, cols in shapes)
        if len(buf) < expected:
            raise ValueError(f"truncated checkpoint: {len(buf)} of {expected} bytes")
        if len(buf) > expected:
            raise ValueError(f"trailing bytes after checkpoint: {len(buf)} of {expected}")
        params = NetworkParams(shapes)
        params.flat[:] = np.frombuffer(buf, dtype="<f8", offset=body)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return params, kind, step_count
