import hashlib
import inspect
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from punctrl.agents import AgentSpec
from punctrl.config import SCHEMA, load_config
from punctrl.estimator import PREDICT_BLOCK_ROWS, DqnScheduler, ManualScheduler, distinct_rows
from punctrl.net import forward, split_gaussian
from punctrl.sim import SimConfig, decode_state
from punctrl.train import TrainConfig, manual_action, manual_baseline

# sha256 of decision_function over every reference state, in every_state
# order, each checked equal to undeduplicated_values over the same states
REFERENCE_STATE_PINS = {
    "eg": "92d3533502d5dd9d09300f4005c05eab56639a38670911f5e4bd685c80129bf9",
    "vb": "d208fb9572bec2c6a11befa02b8cff66bb357585f761bda31c4b162ca7452c8d",
}


def reference_scheduler(agent):
    """A briefly fitted scheduler with the reference network widths."""
    return DqnScheduler(agent=agent, episodes=1, steps_per_episode=200, seed=11).fit()


def undeduplicated_values(est, X):
    """Every row of X through the network in zero-padded blocks of PREDICT_BLOCK_ROWS."""
    values = []
    for start in range(0, X.shape[0], PREDICT_BLOCK_ROWS):
        rows = X[start:start + PREDICT_BLOCK_ROWS]
        block = np.zeros((PREDICT_BLOCK_ROWS, X.shape[1]))
        block[:rows.shape[0]] = rows
        out = forward(est.params_, block)[:rows.shape[0]]
        values.append(out if est.agent == "eg" else split_gaussian(out)[0])
    return np.concatenate(values)


def same_bytes(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


SIM_PARAMS = ("n_resources", "slots_per_subframe", "p_occupy", "occupy_len_min",
              "occupy_len_max", "p_request", "p_critical", "rayleigh_sigma", "w_capacity",
              "w_discard", "w_discard_critical")
# each scheduler's constructor keywords after self, in signature order
CONSTRUCTOR_PARAMS = {
    DqnScheduler: ("agent", "epsilon_initial", "epsilon_decay_fraction", "w_lp", "w_me",
                   "softmax_clip_low", "gamma", *SIM_PARAMS, "episodes",
                   "steps_per_episode", "seed", "hidden_dims", "learning_rate", "target_tau",
                   "checkpoint_every", "checkpoint_dir"),
    ManualScheduler: (*SIM_PARAMS, "episodes", "steps_per_episode", "seed"),
}


def config_default(name):
    """The default of estimator parameter ``name`` in the config dataclasses."""
    if name == "agent":
        return AgentSpec().kind
    for holder in (AgentSpec(), SimConfig(), TrainConfig()):
        if hasattr(holder, name):
            return getattr(holder, name)
    raise KeyError(name)


def tiny_scheduler(**overrides):
    params = dict(agent="eg", episodes=2, steps_per_episode=40, seed=5, hidden_dims=(8, 8))
    params.update(overrides)
    return DqnScheduler(**params)


class TestParamsProtocol:
    def test_get_params_round_trip(self):
        est = tiny_scheduler(learning_rate=3e-4)
        params = est.get_params()
        clone = DqnScheduler(**params)
        assert clone.get_params() == params

    def test_set_params_returns_self(self):
        est = tiny_scheduler()
        assert est.set_params(gamma=0.9) is est
        assert est.gamma == 0.9

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ValueError):
            tiny_scheduler().set_params(nonsense=1)

    @pytest.mark.parametrize("cls", [DqnScheduler, ManualScheduler])
    def test_unknown_constructor_keyword_raises(self, cls):
        with pytest.raises(TypeError):
            cls(nonsense=1)

    @pytest.mark.parametrize("cls", [DqnScheduler, ManualScheduler])
    def test_constructor_contract_pinned(self, cls):
        params = list(inspect.signature(cls.__init__).parameters.values())[1:]
        assert tuple(p.name for p in params) == CONSTRUCTOR_PARAMS[cls]
        assert all(p.kind is inspect.Parameter.KEYWORD_ONLY for p in params)
        for p in params:
            assert p.default == config_default(p.name), p.name
        with pytest.raises(TypeError):
            cls(2)

    @pytest.mark.parametrize("cls", [DqnScheduler, ManualScheduler])
    def test_clone_keeps_each_parameter_object(self, cls):
        # sklearn.base.clone requires every parameter back as the same object;
        # these two are built at run time, so no default or constant is them
        p_occupy, seed = float("0.5"), int("12345678901234567890")
        est = cls(p_occupy=p_occupy, seed=seed)
        params = est.get_params(deep=False)
        assert params["p_occupy"] is p_occupy and params["seed"] is seed
        clone = type(est)(**params)
        assert list(clone.get_params(deep=False)) == list(params)
        for name, value in clone.get_params(deep=False).items():
            assert value is params[name], name

    def test_parameters_are_the_config_keys(self):
        cfg = load_config(None)
        keys = {**SCHEMA["sim"], **SCHEMA["agent"], **SCHEMA["train"]}
        dqn = DqnScheduler().get_params()
        assert set(dqn) == (set(keys) - {"kind"}) | {"agent", "seed", "checkpoint_dir"}
        assert dqn["agent"] == cfg.agent.kind
        assert dqn["checkpoint_dir"] is None
        for key in SCHEMA["sim"]:
            assert dqn[key] == getattr(cfg.sim, key)
        for key in set(SCHEMA["agent"]) - {"kind"}:
            assert dqn[key] == getattr(cfg.agent, key)
        for key in [*SCHEMA["train"], "seed"]:
            assert dqn[key] == getattr(cfg, key)
        manual = ManualScheduler().get_params()
        assert set(manual) == set(SCHEMA["sim"]) | {"episodes", "steps_per_episode", "seed"}
        assert all(manual[key] == dqn[key] for key in manual)

    def test_sklearn_clone_compatible(self):
        # sklearn.clone() reconstructs from get_params(); emulate it
        est = tiny_scheduler(agent="vb", w_lp=0.5)
        clone = type(est)(**est.get_params())
        assert clone.agent == "vb" and clone.w_lp == 0.5
        assert not hasattr(clone, "params_")


class TestDqnScheduler:
    def test_fit_sets_learned_attributes(self):
        est = tiny_scheduler().fit()
        assert est.run_id_ == "eg-s5"
        assert len(est.history_) == 2
        assert est.n_steps_ == 80
        assert est.params_ is not None

    def test_fit_ignores_x_y(self):
        est = tiny_scheduler()
        est.fit(X=np.zeros((3, 5)), y=np.zeros(3))
        assert len(est.history_) == 2

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            tiny_scheduler().predict(np.zeros((1, 5)))

    def test_predict_shapes_and_range(self):
        est = tiny_scheduler().fit()
        X = np.random.default_rng(0).uniform(0, 1, size=(7, 5))
        actions = est.predict(X)
        assert actions.shape == (7,)
        assert set(actions) <= {0, 1, 2}

    def test_predict_single_vector(self):
        est = tiny_scheduler().fit()
        assert est.predict(np.zeros(5)).shape == (1,)

    def test_decision_function_matches_argmax(self):
        est = tiny_scheduler().fit()
        rng = np.random.default_rng(1)
        distinct = rng.uniform(0, 1, size=(4, 5))
        # predict takes each distinct row's argmax once, then spreads it to its repeats
        repeated = rng.uniform(0, 1, size=(40, 5))[rng.integers(0, 40, 300)]
        for X in (distinct, repeated):
            assert np.array_equal(est.predict(X), np.argmax(est.decision_function(X), axis=1))

    @pytest.mark.parametrize("agent", ["eg", "vb"])
    def test_blocks_agree_with_row_by_row(self, agent):
        est = tiny_scheduler(agent=agent).fit()
        X = np.random.default_rng(2).uniform(0, 1, size=(2 * PREDICT_BLOCK_ROWS + 37, 5))
        rows = np.stack([forward(est.params_, s)[:3] for s in X])
        values = est.decision_function(X)
        assert values.shape == (X.shape[0], 3)
        # not array_equal: OpenBLAS rounds a one-row matmul with another
        # kernel than a full block
        assert np.allclose(values, rows, rtol=1e-12, atol=1e-14)
        assert np.array_equal(est.predict(X), np.argmax(rows, axis=1))

    @pytest.mark.parametrize("agent", ["eg", "vb"])
    def test_repeated_shuffled_rows_match_undeduplicated(self, agent):
        est = reference_scheduler(agent)
        rng = np.random.default_rng(12)
        rows = rng.uniform(0, 1, size=(1700, 5))
        X = rows[rng.integers(0, rows.shape[0], 5000)]
        assert same_bytes(est.decision_function(X), undeduplicated_values(est, X))

    @pytest.mark.parametrize("agent", ["eg", "vb", "me"])
    def test_values_do_not_depend_on_the_call(self, agent):
        est = reference_scheduler(agent)
        b = PREDICT_BLOCK_ROWS
        rng = np.random.default_rng(16)
        pool = rng.uniform(0, 1, size=(4 * b + 3, 5))
        full = est.decision_function(pool)
        sizes = [0, 1, b - 1, b, b + 1, *rng.integers(2, 3 * b + 1, 12)]
        for size in sizes:
            rows = rng.choice(pool.shape[0], size, replace=False)
            assert same_bytes(est.decision_function(pool[rows]), full[rows]), size

    def test_signed_zero_rows_evaluated_apart(self):
        est = reference_scheduler("vb")
        rng = np.random.default_rng(13)
        rows = rng.uniform(0, 1, size=(300, 5))
        rows[:, 2] = 0.0
        flipped = rows.copy()
        flipped[:, 2] = -0.0
        X = np.concatenate([rows, flipped, rows])[rng.permutation(900)]
        first, inverse = distinct_rows(X)
        assert first.shape[0] == 600
        assert same_bytes(X[first][inverse], X)
        assert same_bytes(est.decision_function(X), undeduplicated_values(est, X))

    @pytest.mark.parametrize("agent", ["eg", "vb"])
    def test_reference_states_pinned(self, agent, every_state, host_numerics):
        values = reference_scheduler(agent).decision_function(every_state(SimConfig()))
        assert values.shape == (1344, 3)
        digest = hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes())
        assert digest.hexdigest() == REFERENCE_STATE_PINS[agent], host_numerics

    def test_bad_feature_count_rejected(self):
        est = tiny_scheduler().fit()
        with pytest.raises(ValueError):
            est.predict(np.zeros((2, 4)))

    @pytest.mark.parametrize("call, message", [
        (lambda: tiny_scheduler(learning_rate=math.nan).fit(),
         "learning_rate must be positive and finite, got nan"),
        (lambda: ManualScheduler(episodes=2.0).fit(), "episodes must be an integer, got 2.0"),
        (lambda: tiny_scheduler(w_lp=math.inf).fit(), "w_lp must be finite, got inf"),
        (lambda: ManualScheduler().predict(np.full((1, 5), np.nan)),
         "state vectors must be finite"),
    ], ids=["nan-learning-rate", "float-episodes", "infinite-w_lp", "nan-state"])
    def test_bad_input_rejected(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    def test_gaussian_agent_decision_uses_means(self):
        est = tiny_scheduler(agent="me").fit()
        values = est.decision_function(np.zeros((1, 5)))
        assert values.shape == (1, 3)

    def test_deterministic_refit(self):
        a = tiny_scheduler().fit()
        b = tiny_scheduler().fit()
        assert [r.sum_reward for r in a.history_] == [r.sum_reward for r in b.history_]


class TestDistinctRows:
    def test_rebuilds_rows_bytewise(self):
        rng = np.random.default_rng(14)
        rows = rng.integers(0, 4, size=(40, 3)) / 3
        X = rows[rng.integers(0, 40, 500)]
        first, inverse = distinct_rows(X)
        assert same_bytes(X[first][inverse], X)
        assert first.shape[0] == np.unique(X, axis=0).shape[0]

    def test_no_rows(self):
        first, inverse = distinct_rows(np.empty((0, 5)))
        assert first.shape == inverse.shape == (0,)

    @settings(max_examples=200, deadline=None)
    @given(X=arrays(float, st.tuples(st.integers(0, 300), st.integers(1, 7)),
                    elements=st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, 1 / 3, 1.0])))
    def test_matches_reference_grouping(self, X):
        first, inverse = distinct_rows(X)
        assert same_bytes(X[first][inverse], X)
        assert len({row.tobytes() for row in X[first]}) == first.shape[0]
        assert first.shape[0] == len({row.tobytes() for row in X})
        # np.unique's stable sort and grouping of each row's bytes as one void scalar
        rows = np.ascontiguousarray(X).view(np.dtype((np.void, X.itemsize * X.shape[1])))
        _, unique_first, unique_inverse = np.unique(rows.reshape(-1), return_index=True,
                                                    return_inverse=True)
        assert first.dtype == unique_first.dtype and same_bytes(first, unique_first)
        assert inverse.dtype == unique_inverse.dtype and same_bytes(inverse, unique_inverse)

    def test_grouping_makes_no_copy_of_the_rows(self, every_state):
        states = every_state(SimConfig())
        rng = np.random.default_rng(17)
        X = np.tile(states, (50000 // states.shape[0] + 1, 1))[:50000][rng.permutation(50000)]
        tracemalloc.start()
        try:
            distinct_rows(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < X.nbytes, (peak, X.nbytes)

    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_non_contiguous_rows_match_contiguous_copy(self, layout, every_state):
        states = every_state(SimConfig())
        Y = states[np.random.default_rng(15).integers(0, states.shape[0], 4000)]
        X = np.asfortranarray(Y) if layout == "fortran" else Y[::2]
        C = np.ascontiguousarray(X)
        assert not X.flags.c_contiguous
        est = reference_scheduler("vb")
        assert same_bytes(est.decision_function(X), est.decision_function(C))
        manual = ManualScheduler()
        assert same_bytes(manual.predict(X), manual.predict(C))


class TestManualScheduler:
    def test_predict_works_without_fit(self):
        est = ManualScheduler()
        # critical request, both resources busy: puncture the lighter one
        X = np.array([[0.0, 1.0, 1.0, 3 / 7, 6 / 7]])
        assert est.predict(X)[0] == 1

    def test_predict_decodes_policy_cases(self):
        est = ManualScheduler()
        cases = [
            ([0.0, 0.0, 0.0, 0.5, 0.5], 0),  # no request: wait
            ([0.0, 1.0, 0.0, 0.0, 5 / 7], 1),  # normal, resource 1 free
            ([0.0, 1.0, 0.0, 1.0, 5 / 7], 2),  # normal, resource 2 lighter
            ([1.0, 1.0, 0.0, 2 / 7, 4 / 7], 1),  # final slot, lighter resource
        ]
        X = np.array([s for s, _ in cases])
        assert list(est.predict(X)) == [a for _, a in cases]

    @pytest.mark.parametrize("sim", [
        SimConfig(),
        SimConfig(n_resources=3, slots_per_subframe=4, occupy_len_min=1, occupy_len_max=3),
    ], ids=["reference", "3x4"])
    def test_every_state_duplicated_shuffled(self, sim, every_state):
        states = every_state(sim)
        X = states[np.random.default_rng(16).integers(0, states.shape[0], 3 * states.shape[0])]
        expected = []
        for s in X:
            _, request, remaining = decode_state(sim, s)
            expected.append(manual_action(remaining, request))
        est = ManualScheduler(**{k: getattr(sim, k) for k in ("n_resources", "slots_per_subframe",
                                                               "occupy_len_min", "occupy_len_max")})
        assert est.predict(X).tolist() == expected

    def test_fit_populates_history(self):
        est = ManualScheduler(episodes=2, steps_per_episode=50, seed=3).fit()
        assert len(est.history_) == 2
        assert est.run_id_ == "manual-s3"
        assert all(r.urllc_missed_ratio == 0.0 for r in est.history_)

    def test_fit_uses_occupation_lengths(self):
        est = ManualScheduler(episodes=2, steps_per_episode=50, seed=3,
                              occupy_len_min=1, occupy_len_max=2).fit()
        sim = SimConfig(occupy_len_min=1, occupy_len_max=2)
        expected = manual_baseline(TrainConfig(sim=sim, episodes=2, steps_per_episode=50, seed=3))
        assert est.history_ == expected.episodes
        assert est.history_ != ManualScheduler(episodes=2, steps_per_episode=50, seed=3).fit().history_

    def test_get_params_protocol(self):
        est = ManualScheduler(p_occupy=0.5)
        clone = ManualScheduler(**est.get_params())
        assert clone.p_occupy == 0.5
