"""Estimator-style interface over the training engine.

DqnScheduler and ManualScheduler follow the scikit-learn parameter
protocol (flat keyword constructor, get_params/set_params, fit returning
self, attributes learned by fit carrying a trailing underscore), so they
clone and compose with that ecosystem without depending on it.
"""

import inspect
import math

import numpy as np

from .agents import EG, AgentSpec
from .net import forward, split_gaussian
from .sim import RequestKind, SimConfig
from .train import TrainConfig, manual_action, manual_baseline, train
from .validation import check_state_matrix

# rows per batched forward pass in DqnScheduler.decision_function
PREDICT_BLOCK_ROWS = 1024


class ParamsProtocolMixin:
    """get_params/set_params with scikit-learn semantics, no dependency."""

    @classmethod
    def _param_names(cls):
        signature = inspect.signature(cls.__init__)
        return [name for name in signature.parameters if name != "self"]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(f"invalid parameter {name!r} for {type(self).__name__}")
            setattr(self, name, value)
        return self


class DqnScheduler(ParamsProtocolMixin):
    """Puncturing policy learned by a deep Q-network.

    fit() generates its own experience by interacting with the seeded
    simulator, so X and y are ignored. predict() maps state vectors to
    greedy actions (0 = wait, k = puncture resource k-1).
    """

    def __init__(
        self,
        agent: str = EG,
        episodes: int = 30,
        steps_per_episode: int = 3000,
        seed: int = 0,
        hidden_dims: tuple = (128, 128),
        learning_rate: float = 1e-4,
        target_tau: float = 1e-4,
        gamma: float = 0.99,
        epsilon_initial: float = 0.99,
        epsilon_decay_fraction: float = 0.5,
        w_lp: float = 1e-2,
        w_me: float = math.e,
        softmax_clip_low: float = 1e-3,
        me_sign: str = "uniform_prior",
        n_resources: int = 2,
        slots_per_subframe: int = 7,
        p_occupy: float = 0.7,
        p_request: float = 0.1,
        p_critical: float = 0.0,
        rayleigh_sigma: float = 1.0,
        w_capacity: float = 1.0,
        w_discard: float = 5.0,
        w_discard_critical: float = 5.0,
        checkpoint_every: int = 0,
        checkpoint_dir: str | None = None,
    ):
        self.agent = agent
        self.episodes = episodes
        self.steps_per_episode = steps_per_episode
        self.seed = seed
        self.hidden_dims = hidden_dims
        self.learning_rate = learning_rate
        self.target_tau = target_tau
        self.gamma = gamma
        self.epsilon_initial = epsilon_initial
        self.epsilon_decay_fraction = epsilon_decay_fraction
        self.w_lp = w_lp
        self.w_me = w_me
        self.softmax_clip_low = softmax_clip_low
        self.me_sign = me_sign
        self.n_resources = n_resources
        self.slots_per_subframe = slots_per_subframe
        self.p_occupy = p_occupy
        self.p_request = p_request
        self.p_critical = p_critical
        self.rayleigh_sigma = rayleigh_sigma
        self.w_capacity = w_capacity
        self.w_discard = w_discard
        self.w_discard_critical = w_discard_critical
        self.checkpoint_every = checkpoint_every
        self.checkpoint_dir = checkpoint_dir

    def _agent_spec(self) -> AgentSpec:
        return AgentSpec(
            kind=self.agent,
            epsilon_initial=self.epsilon_initial,
            epsilon_decay_fraction=self.epsilon_decay_fraction,
            w_lp=self.w_lp,
            w_me=self.w_me,
            softmax_clip_low=self.softmax_clip_low,
            gamma=self.gamma,
            me_sign=self.me_sign,
        )

    def _sim_config(self) -> SimConfig:
        return SimConfig(
            n_resources=self.n_resources,
            slots_per_subframe=self.slots_per_subframe,
            p_occupy=self.p_occupy,
            p_request=self.p_request,
            p_critical=self.p_critical,
            rayleigh_sigma=self.rayleigh_sigma,
            w_capacity=self.w_capacity,
            w_discard=self.w_discard,
            w_discard_critical=self.w_discard_critical,
        )

    def _train_config(self) -> TrainConfig:
        return TrainConfig(
            agent=self._agent_spec(),
            sim=self._sim_config(),
            episodes=self.episodes,
            steps_per_episode=self.steps_per_episode,
            seed=self.seed,
            hidden_dims=tuple(self.hidden_dims),
            learning_rate=self.learning_rate,
            target_tau=self.target_tau,
            checkpoint_every=self.checkpoint_every,
            checkpoint_dir=self.checkpoint_dir,
        )

    def fit(self, X=None, y=None) -> "DqnScheduler":
        """Train on self-generated experience; X and y are ignored."""
        result = train(self._train_config())
        self.params_ = result.final_params
        self.history_ = result.episodes
        self.n_steps_ = result.total_steps
        self.run_id_ = result.run_id
        return self

    def _check_fitted(self):
        if not hasattr(self, "params_"):
            raise RuntimeError("this DqnScheduler is not fitted yet; call fit() first")

    def decision_function(self, X) -> np.ndarray:
        """Per-action value estimates (the Gaussian heads report their means).

        Rows go through the network PREDICT_BLOCK_ROWS at a time, so memory
        stays bounded for any number of rows. The values agree with one
        forward pass per row up to rounding.
        """
        self._check_fitted()
        X = check_state_matrix(X, 3 + self.n_resources)
        deterministic = self.agent == EG
        values = np.empty((X.shape[0], 1 + self.n_resources))
        for start in range(0, X.shape[0], PREDICT_BLOCK_ROWS):
            stop = start + PREDICT_BLOCK_ROWS
            out = forward(self.params_, X[start:stop])
            values[start:stop] = out if deterministic else split_gaussian(out)[0]
        return values

    def predict(self, X) -> np.ndarray:
        """Greedy action per state vector."""
        return np.argmax(self.decision_function(X), axis=1)


class ManualScheduler(ParamsProtocolMixin):
    """Fixed scheduling heuristic exposed through the same interface.

    predict() works without fitting; fit() evaluates the heuristic on the
    seeded simulator to populate history_ for comparison plots.
    """

    def __init__(
        self,
        episodes: int = 30,
        steps_per_episode: int = 3000,
        seed: int = 0,
        n_resources: int = 2,
        slots_per_subframe: int = 7,
        p_occupy: float = 0.7,
        p_request: float = 0.1,
        p_critical: float = 0.0,
        rayleigh_sigma: float = 1.0,
        w_capacity: float = 1.0,
        w_discard: float = 5.0,
        w_discard_critical: float = 5.0,
    ):
        self.episodes = episodes
        self.steps_per_episode = steps_per_episode
        self.seed = seed
        self.n_resources = n_resources
        self.slots_per_subframe = slots_per_subframe
        self.p_occupy = p_occupy
        self.p_request = p_request
        self.p_critical = p_critical
        self.rayleigh_sigma = rayleigh_sigma
        self.w_capacity = w_capacity
        self.w_discard = w_discard
        self.w_discard_critical = w_discard_critical

    def _sim_config(self) -> SimConfig:
        return SimConfig(
            n_resources=self.n_resources,
            slots_per_subframe=self.slots_per_subframe,
            p_occupy=self.p_occupy,
            p_request=self.p_request,
            p_critical=self.p_critical,
            rayleigh_sigma=self.rayleigh_sigma,
            w_capacity=self.w_capacity,
            w_discard=self.w_discard,
            w_discard_critical=self.w_discard_critical,
        )

    def fit(self, X=None, y=None) -> "ManualScheduler":
        cfg = TrainConfig(
            sim=self._sim_config(),
            episodes=self.episodes,
            steps_per_episode=self.steps_per_episode,
            seed=self.seed,
        )
        result = manual_baseline(cfg)
        self.history_ = result.episodes
        self.run_id_ = result.run_id
        return self

    def predict(self, X) -> np.ndarray:
        """Heuristic action per state vector, decoded from the observation."""
        X = check_state_matrix(X, 3 + self.n_resources)
        slots = self.slots_per_subframe
        actions = np.empty(X.shape[0], dtype=int)
        for i, s in enumerate(X):
            if s[1] < 0.5:
                kind = RequestKind.NONE
            elif s[2] >= 0.5:
                kind = RequestKind.CRITICAL
            else:
                kind = RequestKind.NORMAL
            slot_index = round(float(s[0]) * (slots - 1))
            remaining = [round(float(v) * slots) for v in s[3:]]
            actions[i] = manual_action(slot_index, slots, remaining, kind)
        return actions
