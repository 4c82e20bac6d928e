"""Estimator-style interface over the training engine.

DqnScheduler and ManualScheduler follow the scikit-learn parameter
protocol (flat keyword constructor, get_params/set_params, fit returning
self, attributes learned by fit carrying a trailing underscore), so they
clone and compose with that ecosystem without depending on it.
"""

from dataclasses import fields, make_dataclass

import numpy as np

from .agents import AgentSpec
from .net import forward, read_head
from .sim import SimConfig, decode_state
from .train import TrainConfig, manual_action, manual_baseline, train
from .validation import check_state_matrix

# rows per batched forward pass in DqnScheduler.decision_function; the last
# block is zero-padded to this size, so every row meets the same matmul kernel
PREDICT_BLOCK_ROWS = 128

# TrainConfig holders whose fields are flat estimator parameters
HOLDERS = {"agent": AgentSpec, "sim": SimConfig}


def _param_name(holder: str, name: str) -> str:
    # the agent kind is the parameter ``agent``, as ``--agent`` on the command line
    return "agent" if (holder, name) == ("agent", "kind") else name


def distinct_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, inverse) for the distinct rows of a 2-D float array.

    ``X[first]`` holds each distinct row once, in np.unique's order, and
    ``X[first][inverse]`` equals X byte for byte. Rows are the same only
    when their bytes are, so 0.0 and -0.0 stay apart: each row is viewed as
    one opaque void scalar of its bytes, which np.unique sorts and groups
    exactly.
    """
    # the void view needs each row's bytes side by side
    X = np.ascontiguousarray(X)
    rows = X.view(np.dtype((np.void, X.itemsize * X.shape[1]))).reshape(-1)
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    return first, inverse


class ParamsProtocolMixin:
    """get_params/set_params with scikit-learn semantics, no dependency.

    The parameters are the fields of the dataclass built on this mixin;
    ``_holders`` names the TrainConfig holders they flatten.
    """

    def get_params(self, deep: bool = True) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def set_params(self, **params):
        valid = {f.name for f in fields(self)}
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


def _scheduler_params(name: str, holders: tuple, learner: bool) -> type:
    """A keyword-only dataclass of the fields of ``holders`` and of TrainConfig.

    Names, types and defaults are those of the config dataclass fields.
    TrainConfig fields marked as learner-only are left out unless
    ``learner`` is true. The class is named after the scheduler built on it,
    because its ``__init__`` errors show that name; equality and repr stay
    those of ``object``, so schedulers compare by identity as before.
    """
    specs = [
        (_param_name(holder, f.name), f.type, f.default)
        for holder in holders
        for f in fields(HOLDERS[holder])
    ] + [
        (f.name, f.type, f.default)
        for f in fields(TrainConfig)
        if f.name not in HOLDERS and (learner or not f.metadata.get("learner"))
    ]
    return make_dataclass(name, specs, bases=(ParamsProtocolMixin,),
                          namespace={"__module__": __name__, "_holders": holders},
                          kw_only=True, eq=False, repr=False)


class DqnScheduler(_scheduler_params("DqnScheduler", ("agent", "sim"), learner=True)):
    """Puncturing policy learned by a deep Q-network.

    fit() generates its own experience by interacting with the seeded
    simulator, so X and y are ignored. predict() maps state vectors to
    greedy actions (0 = wait, k = puncture resource k-1). The parameters are
    the [sim], [agent] and [train] config keys, ``seed`` and
    ``checkpoint_dir``; the agent kind is ``agent``.
    """

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

        Each distinct row goes through the network once, in blocks of
        PREDICT_BLOCK_ROWS rows with the last one zero-padded, and its values
        are copied to every row equal to it. Every block has one shape, so
        on a given host a state's values depend only on the state and the
        weights, not on what else the call holds.
        """
        self._check_fitted()
        cfg = self._train_config()
        X = check_state_matrix(X, cfg.sim.state_dim)
        first, inverse = distinct_rows(X)
        values = np.empty((first.shape[0], cfg.sim.n_actions))
        for start in range(0, first.shape[0], PREDICT_BLOCK_ROWS):
            rows = first[start:start + PREDICT_BLOCK_ROWS]
            block = np.zeros((PREDICT_BLOCK_ROWS, cfg.sim.state_dim))
            block[:rows.size] = X[rows]
            out = forward(self.params_, block)[:rows.size]
            values[start:start + PREDICT_BLOCK_ROWS] = read_head(cfg.agent.head_mode, out)[0]
        return values[inverse]

    def predict(self, X) -> np.ndarray:
        """Greedy action per state vector."""
        return np.argmax(self.decision_function(X), axis=1)


class ManualScheduler(_scheduler_params("ManualScheduler", ("sim",), learner=False)):
    """Fixed scheduling heuristic exposed through the same interface.

    predict() works without fitting; fit() evaluates the heuristic on the
    seeded simulator to populate history_ for comparison plots. The
    parameters are the [sim] config keys, ``episodes``,
    ``steps_per_episode`` and ``seed``.
    """

    def fit(self, X=None, y=None) -> "ManualScheduler":
        result = manual_baseline(self._train_config())
        self.history_ = result.episodes
        self.run_id_ = result.run_id
        return self

    def predict(self, X) -> np.ndarray:
        """Heuristic action per state vector, decoded once per distinct row."""
        sim = self._train_config().sim
        X = check_state_matrix(X, sim.state_dim)
        first, inverse = distinct_rows(X)
        actions = np.empty(first.shape[0], dtype=int)
        for i, row in enumerate(first):
            _, request, remaining = decode_state(sim, X[row])
            actions[i] = manual_action(remaining, request)
        return actions[inverse]
