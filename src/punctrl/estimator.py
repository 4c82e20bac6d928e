"""Estimator-style interface over the training engine.

DqnScheduler and ManualScheduler follow the scikit-learn parameter
protocol (flat keyword constructor, get_params/set_params, fit returning
self, attributes learned by fit carrying a trailing underscore), so they
clone and compose with that ecosystem without depending on it.
"""

import inspect
from dataclasses import fields

import numpy as np

from .agents import EG, AgentSpec
from .net import forward, split_gaussian
from .sim import SimConfig, decode_state
from .train import TrainConfig, manual_action, manual_baseline, train
from .validation import check_state_matrix

# rows per batched forward pass in DqnScheduler.decision_function
PREDICT_BLOCK_ROWS = 1024

# TrainConfig holders whose fields are flat estimator parameters
HOLDERS = {"agent": AgentSpec, "sim": SimConfig}


def _param_name(holder: str, name: str) -> str:
    # the agent kind is the parameter ``agent``, as ``--agent`` on the command line
    return "agent" if (holder, name) == ("agent", "kind") else name


def _derived_init(holders, learner: bool):
    """An ``__init__`` taking the fields of ``holders`` and of TrainConfig as keywords.

    Names and defaults are those of the dataclass fields. TrainConfig fields
    marked as learner-only are left out unless ``learner`` is true.
    """
    keyword = inspect.Parameter.KEYWORD_ONLY
    params = [
        inspect.Parameter(_param_name(holder, f.name), keyword, default=f.default)
        for holder in holders
        for f in fields(HOLDERS[holder])
    ] + [
        inspect.Parameter(f.name, keyword, default=f.default)
        for f in fields(TrainConfig)
        if f.name not in HOLDERS and (learner or not f.metadata.get("learner"))
    ]
    signature = inspect.Signature(
        [inspect.Parameter("self", inspect.Parameter.POSITIONAL_ONLY), *params]
    )

    def __init__(self, **params):
        bound = signature.bind(self, **params)
        bound.apply_defaults()
        for name, value in bound.arguments.items():
            if name != "self":
                setattr(self, name, value)

    __init__.__signature__ = signature
    return __init__


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

    def _train_config(self) -> TrainConfig:
        """The TrainConfig these parameters describe."""
        params = self.get_params()
        for holder in self._holders:
            cls = HOLDERS[holder]
            params[holder] = cls(**{f.name: params.pop(_param_name(holder, f.name))
                                    for f in fields(cls)})
        return TrainConfig(**params)


class DqnScheduler(ParamsProtocolMixin):
    """Puncturing policy learned by a deep Q-network.

    fit() generates its own experience by interacting with the seeded
    simulator, so X and y are ignored. predict() maps state vectors to
    greedy actions (0 = wait, k = puncture resource k-1). The parameters are
    the [sim], [agent] and [train] config keys, ``seed`` and
    ``checkpoint_dir``; the agent kind is ``agent``.
    """

    _holders = ("agent", "sim")
    __init__ = _derived_init(_holders, learner=True)

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
        sim = self._train_config().sim
        X = check_state_matrix(X, sim.state_dim)
        deterministic = self.agent == EG
        values = np.empty((X.shape[0], sim.n_actions))
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
    seeded simulator to populate history_ for comparison plots. The
    parameters are the [sim] config keys, ``episodes``,
    ``steps_per_episode`` and ``seed``.
    """

    _holders = ("sim",)
    __init__ = _derived_init(_holders, learner=False)

    def fit(self, X=None, y=None) -> "ManualScheduler":
        result = manual_baseline(self._train_config())
        self.history_ = result.episodes
        self.run_id_ = result.run_id
        return self

    def predict(self, X) -> np.ndarray:
        """Heuristic action per state vector, decoded from the observation."""
        sim = self._train_config().sim
        X = check_state_matrix(X, sim.state_dim)
        actions = np.empty(X.shape[0], dtype=int)
        for i, s in enumerate(X):
            _, request, remaining = decode_state(sim, s)
            actions[i] = manual_action(remaining, request)
        return actions
