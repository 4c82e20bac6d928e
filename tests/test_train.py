import importlib
import math
import os
import struct
from fnmatch import fnmatch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from punctrl.agents import AGENT_KINDS, AgentSpec
from punctrl.metrics import EpisodeRow, ProbeRow, write_csv
from punctrl.net import NetworkParams
from punctrl.seeding import substream
from punctrl.sim import PuncturingSim, RequestKind, SimConfig
from punctrl.train import (
    ADAPTATION_CAP,
    TrainConfig,
    TrainingDiverged,
    build_network,
    load_checkpoint,
    make_probe_state,
    manual_action,
    manual_baseline,
    probe_adaptation,
    probe_reaction,
    probe_transition,
    save_checkpoint,
    train,
)


def small_cfg(kind="eg", episodes=2, steps=60, seed=11, **sim_kwargs):
    return TrainConfig(
        agent=AgentSpec(kind=kind),
        sim=SimConfig(**sim_kwargs),
        episodes=episodes,
        steps_per_episode=steps,
        seed=seed,
        hidden_dims=(16, 16),
    )


def params_equal(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a.arrays(), b.arrays()))


# the module, which the package's `train` function shadows as an attribute
TRAIN_MODULE = importlib.import_module("punctrl.train")


def train_from(cfg, params, monkeypatch):
    """train(cfg) starting from a copy of ``params`` in place of its seeded initialization."""
    monkeypatch.setattr(TRAIN_MODULE, "build_network", lambda cfg, rng: params.copy())
    return train(cfg)


class TestTrain:
    def test_zero_episodes_returns_untouched_snapshot(self):
        cfg = small_cfg(episodes=0)
        rng = substream(cfg.seed, "net-init")
        expected = build_network(cfg, rng)
        result = train(cfg)
        assert result.episodes == []
        assert result.total_steps == 0
        assert params_equal(result.final_params, expected)

    def test_null_environment_zero_init_params_never_move(self, monkeypatch):
        # all-zero outputs and all-zero rewards keep every TD error at zero,
        # and Adam with zero gradients moves nothing
        cfg = small_cfg(episodes=1, steps=40, p_occupy=0.0, p_request=0.0)
        zero = NetworkParams.zeros(cfg.sim.state_dim, cfg.hidden_dims, cfg.sim.n_actions)
        result = train_from(cfg, zero, monkeypatch)
        assert params_equal(result.final_params, zero)
        assert result.episodes[0].sum_reward == 0.0

    def test_determinism_bit_identical(self):
        cfg = small_cfg(kind="vb", episodes=2, steps=80)
        a = train(cfg)
        b = train(cfg)
        assert a.episodes == b.episodes
        assert params_equal(a.final_params, b.final_params)

    def test_episode_ratios_lie_in_unit_interval(self):
        for kind in ("eg", "vb", "me"):
            cfg = small_cfg(kind=kind, episodes=1, steps=400, seed=3, p_critical=0.2)
            result = train(cfg)
            row = result.episodes[0]
            assert 0.0 <= row.tx_interrupted_ratio <= 1.0
            assert 0.0 <= row.urllc_missed_ratio <= 1.0
            assert 0.0 <= row.critical_missed_ratio <= 1.0

    def test_counters_reconcile_on_env(self):
        cfg = SimConfig(p_critical=0.25)
        env = PuncturingSim(cfg, np.random.default_rng(5))
        rng = np.random.default_rng(6)
        env.reset()
        for _ in range(5000):
            env.step(int(rng.integers(0, 3)))
        c = env.counters
        pending = 0 if env.request is RequestKind.NONE else 1
        assert c.scheduled + c.discarded + pending == c.arrived
        assert c.tx_interrupted <= c.puncture_actions
        assert c.tx_interrupted <= c.tx_started

    def test_epsilon_end_recorded_for_eg_only(self):
        cfg = small_cfg(kind="eg", episodes=2, steps=50)
        result = train(cfg)
        # decay horizon is half of 2 * 50 = 50 steps; episode 1 ends mid-decay
        assert result.episodes[0].epsilon_end > 0.0
        assert result.episodes[1].epsilon_end == 0.0
        cfg_vb = small_cfg(kind="vb", episodes=1, steps=50)
        assert train(cfg_vb).episodes[0].epsilon_end == 0.0

    def test_run_id_and_rows(self):
        cfg = small_cfg(kind="me", episodes=3, steps=30, seed=77)
        result = train(cfg)
        assert result.run_id == "me-s77"
        assert [row.episode for row in result.episodes] == [1, 2, 3]
        assert all(row.agent == "me" and row.seed == 77 for row in result.episodes)


class TestManualPolicy:
    def test_critical_targets_least_loaded(self):
        assert manual_action([3, 6], RequestKind.CRITICAL) == 1
        assert manual_action([6, 3], RequestKind.CRITICAL) == 2
        assert manual_action([0, 5], RequestKind.CRITICAL) == 1

    def test_normal_scheduled_immediately(self):
        # catch-focused: free resource preferred, else the lighter one is cut
        assert manual_action([0, 5], RequestKind.NORMAL) == 1
        assert manual_action([5, 0], RequestKind.NORMAL) == 2
        assert manual_action([5, 7], RequestKind.NORMAL) == 1
        assert manual_action([2, 4], RequestKind.NORMAL) == 1

    def test_no_request_waits(self):
        assert manual_action([4, 2], RequestKind.NONE) == 0

    def test_tie_breaks_to_lowest_index(self):
        assert manual_action([4, 4], RequestKind.CRITICAL) == 1


class TestManualBaseline:
    def test_never_misses_any_request(self):
        cfg = TrainConfig(
            sim=SimConfig(p_critical=0.3),
            episodes=3,
            steps_per_episode=3000,
            seed=5,
        )
        result = manual_baseline(cfg)
        for row in result.episodes:
            assert row.urllc_missed_ratio == 0.0
            assert row.critical_missed_ratio == 0.0

    def test_deterministic(self):
        cfg = TrainConfig(episodes=2, steps_per_episode=200, seed=9)
        assert manual_baseline(cfg).episodes == manual_baseline(cfg).episodes

    def test_agent_label(self):
        cfg = TrainConfig(episodes=1, steps_per_episode=50, seed=2)
        result = manual_baseline(cfg)
        assert result.agent_kind == "manual"
        assert result.final_params is None


class TestProbeReaction:
    def test_probe_state_encoding(self):
        sim_cfg = SimConfig()
        assert np.array_equal(make_probe_state(sim_cfg), np.array([0.0, 1.0, 1.0, 1.0, 1.0]))

    def test_symmetric_estimates_give_md_one(self):
        sim_cfg = SimConfig()
        params = NetworkParams.zeros(5, (4,), 3)
        params.biases[-1][:] = 3.0
        outcome = probe_reaction(params, AgentSpec(kind="eg"), sim_cfg)
        assert outcome.md == pytest.approx(1.0)
        assert outcome.logstd_wait is None and outcome.mean_logstd_punct is None

    def test_hand_computed_ratio(self):
        sim_cfg = SimConfig()
        params = NetworkParams.zeros(5, (4,), 3)
        params.biases[-1][:] = [4.0, 1.0, 3.0]
        outcome = probe_reaction(params, AgentSpec(kind="eg"), sim_cfg)
        assert outcome.md == pytest.approx(2.0)
        assert outcome.argmax_action == 0

    def test_guarded_denominator(self):
        sim_cfg = SimConfig()
        params = NetworkParams.zeros(5, (4,), 3)
        params.biases[-1][:] = [1.0, 1e-13, -1e-13]
        outcome = probe_reaction(params, AgentSpec(kind="eg"), sim_cfg)
        assert outcome.md is None

    def test_gaussian_head_reports_logstds(self):
        sim_cfg = SimConfig()
        params = NetworkParams.zeros(5, (4,), 6)
        params.biases[-1][:] = [5.0, 2.0, 2.0, -1.0, -2.0, -4.0]
        outcome = probe_reaction(params, AgentSpec(kind="vb"), sim_cfg)
        assert outcome.md == pytest.approx(2.5)
        assert outcome.logstd_wait == pytest.approx(-1.0)
        assert outcome.mean_logstd_punct == pytest.approx(-3.0)


class TestProbeAdaptation:
    def test_immediate_explorer_returns_one(self):
        # mean estimates already prefer a puncture, variance is negligible
        sim_cfg = SimConfig()
        params = NetworkParams.zeros(5, (4,), 6)
        params.biases[-1][:] = [0.0, 1.0, 0.0, -30.0, -30.0, -30.0]
        cfg = TrainConfig(agent=AgentSpec(kind="vb"), sim=sim_cfg)
        rng = np.random.default_rng(0)
        assert probe_adaptation(params, cfg.agent, cfg, rng, cap=ADAPTATION_CAP) == 1

    def test_stubborn_eg_hits_cap(self):
        sim_cfg = SimConfig()
        params = NetworkParams.zeros(5, (4,), 3)
        params.biases[-1][:] = [50.0, 0.0, 0.0]
        cfg = TrainConfig(agent=AgentSpec(kind="eg"), sim=sim_cfg)
        rng = np.random.default_rng(1)
        assert probe_adaptation(params, cfg.agent, cfg, rng, cap=25) == 25

    def test_cap_below_one_rejected(self):
        cfg = TrainConfig(agent=AgentSpec(kind="eg"))
        params = NetworkParams.zeros(5, (4,), 3)
        for cap in (0, -5):
            with pytest.raises(ValueError, match="cap"):
                probe_adaptation(params, cfg.agent, cfg, np.random.default_rng(0), cap=cap)

    # zero weights with the wait bias ahead by `margin`: learning pulls the
    # wait estimate down until a puncture wins, after 32 steps at margin 0.3
    # and 110 at margin 1.0, which cap 50 cuts off
    @pytest.mark.parametrize("margin, cap, expected", [(0.3, 200, 32), (1.0, 50, 50)])
    @settings(max_examples=15, deadline=None)
    @given(seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)))
    def test_eg_count_does_not_depend_on_rng(self, margin, cap, expected, seeds):
        cfg = TrainConfig(agent=AgentSpec(kind="eg"), learning_rate=1e-2)
        params = NetworkParams.zeros(5, (4,), 3)
        params.biases[-1][:] = [margin, 0.0, 0.0]
        counts = [probe_adaptation(params, cfg.agent, cfg, np.random.default_rng(seed), cap=cap)
                  for seed in seeds]
        assert counts == [expected, expected]

    # a Gaussian head explores by sampling, so its count depends on the stream;
    # the wait mean leads by 1 at small variance until learning lowers it
    @pytest.mark.parametrize("kind, expected", [
        ("vb", [83, 82, 74, 83, 89, 90]),
        ("me", [54, 52, 56, 57, 58, 54]),
    ])
    def test_gaussian_counts_pinned(self, kind, expected):
        cfg = TrainConfig(agent=AgentSpec(kind=kind), learning_rate=1e-2)
        params = NetworkParams.zeros(5, (4,), 6)
        params.biases[-1][:] = [1.0, 0.0, 0.0, -3.0, -3.0, -3.0]
        counts = [probe_adaptation(params, cfg.agent, cfg, np.random.default_rng(seed), cap=500)
                  for seed in range(6)]
        assert counts == expected

    def test_probe_transition_matches_simulator(self):
        # cross-module oracle: a manually prepared simulator state at the mean
        # gain 2 sigma^2 must yield the reward and successor the probe constructs
        for sigma in (1.0, 2.0):
            sim_cfg = SimConfig(p_request=0.0, rayleigh_sigma=sigma)
            tr = probe_transition(sim_cfg)
            env = PuncturingSim(sim_cfg, np.random.default_rng(3))
            env.reset()
            env.slot_index = 0
            env.remaining = [7, 7]
            env.gain = [2.0 * sigma * sigma] * 2
            env.request = RequestKind.CRITICAL
            assert np.array_equal(env.observe(), tr.s)
            r_total = env.step(0)
            assert r_total == pytest.approx(tr.r, abs=1e-12)
            assert np.allclose(env.observe(), tr.s_next, atol=1e-12)

    def test_snapshot_not_mutated(self):
        sim_cfg = SimConfig()
        rng = np.random.default_rng(4)
        params = NetworkParams.init(5, (8,), 6, rng)
        before = params.copy()
        cfg = TrainConfig(agent=AgentSpec(kind="me"), sim=sim_cfg)
        probe_adaptation(params, cfg.agent, cfg, np.random.default_rng(5), cap=20)
        assert params_equal(params, before)


@pytest.mark.parametrize("caller, label", [
    (train_from, "eg-s11"),
    (lambda cfg, params, _: probe_adaptation(params, cfg.agent, cfg, np.random.default_rng(0),
                                             cap=ADAPTATION_CAP),
     "adaptation probe"),
], ids=["train", "probe"])
def test_divergence_names_the_caller(caller, label, monkeypatch):
    cfg = small_cfg(episodes=1, steps=10)
    poisoned = build_network(cfg, substream(cfg.seed, "net-init"))
    poisoned.weights[0][0, 0] = math.nan
    with pytest.raises(TrainingDiverged, match=f"update 1 \\({label}\\)"):
        caller(cfg, poisoned, monkeypatch)


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        params = NetworkParams.init(5, (8, 8), 6, rng)
        path = tmp_path / "run" / "chk.ckpt"
        save_checkpoint(path, params, "vb", 12345)
        loaded, kind, steps = load_checkpoint(path)
        assert kind == "vb" and steps == 12345
        assert params_equal(params, loaded)

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        params = NetworkParams.init(5, (7, 3), 6, rng)
        path = tmp_path / "exact.ckpt"
        save_checkpoint(path, params, "me", 3)
        loaded, _, _ = load_checkpoint(path)
        assert loaded.shapes == params.shapes
        assert all(np.array_equal(a, b) for a, b in zip(params.arrays(), loaded.arrays()))

    def test_header_layout_little_endian(self, tmp_path):
        path = tmp_path / "layout.ckpt"
        save_checkpoint(path, NetworkParams.zeros(2, (3,), 1), "eg", 9)
        buf = path.read_bytes()
        assert buf[:4] == b"PCKP" and int.from_bytes(buf[4:8], "little") == 2
        assert buf[8:10] == b"eg" and int.from_bytes(buf[10:18], "little") == 9  # step count
        assert int.from_bytes(buf[18:22], "little") == 2  # layer count
        assert int.from_bytes(buf[22:26], "little") == 3  # first layer rows
        assert int.from_bytes(buf[26:30], "little") == 2  # first layer cols
        n_floats = 3 * 2 + 3 + 1 * 3 + 1
        assert len(buf) == 18 + 4 + 2 * 8 + 8 * n_floats

    def test_extra_float_rejected(self, tmp_path):
        path = tmp_path / "extra.ckpt"
        save_checkpoint(path, NetworkParams.zeros(2, (3,), 1), "eg", 0)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(ValueError, match=str(path)):
            load_checkpoint(path)

    @staticmethod
    def _header(n_layers, dims, kind=b"eg"):
        return (b"PCKP" + struct.pack("<I", len(kind)) + kind
                + struct.pack(f"<QI{len(dims)}I", 5, n_layers, *dims))

    def test_zero_layer_count_rejected(self, tmp_path):
        path = tmp_path / "empty.ckpt"
        path.write_bytes(self._header(0, []))
        with pytest.raises(ValueError, match=f"{path}.*no layers"):
            load_checkpoint(path)

    def test_unchained_layers_rejected_with_path(self, tmp_path):
        path = tmp_path / "unchained.ckpt"
        n_floats = 3 * 5 + 3 + 6 * 4 + 6
        path.write_bytes(self._header(2, [3, 5, 6, 4]) + b"\x00" * (8 * n_floats))
        with pytest.raises(ValueError, match=f"{path}.*layer 1 has shape \\(6, 4\\).* 3 cols"):
            load_checkpoint(path)

    def test_empty_layer_rejected_with_path(self, tmp_path):
        path = tmp_path / "empty_layer.ckpt"
        path.write_bytes(self._header(1, [0, 5]))
        with pytest.raises(ValueError, match=f"{path}.*layer 0 has shape \\(0, 5\\)"):
            load_checkpoint(path)

    def test_huge_layer_claim_rejected_before_allocating(self, tmp_path):
        path = tmp_path / "huge.ckpt"
        path.write_bytes(self._header(1, [2**31, 2**31]) + b"\x00" * 64)
        with pytest.raises(ValueError, match=f"{path}.*truncated"):
            load_checkpoint(path)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "not.ckpt"
        path.write_bytes(b"whatever")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    @pytest.fixture
    def real_checkpoint(self, tmp_path):
        cfg = small_cfg(kind="vb", episodes=1, steps=20)
        cfg.checkpoint_dir = str(tmp_path)
        with open(train(cfg).checkpoints[0], "rb") as fh:
            return fh.read()

    def test_truncated_file_rejected_with_path(self, tmp_path, real_checkpoint):
        n = len(real_checkpoint)
        # empty, then inside the magic, the kind length, the kind, the step
        # count, the layer count, the shape header, the first weights, the
        # middle of the data and the last bias
        for cut in (0, 2, 6, 9, 14, 21, 30, 50, n // 2, n - 1):
            path = tmp_path / f"cut{cut}.ckpt"
            path.write_bytes(real_checkpoint[:cut])
            with pytest.raises(ValueError, match=str(path)):
                load_checkpoint(path)

    def test_trailing_bytes_rejected_with_path(self, tmp_path, real_checkpoint):
        path = tmp_path / "long.ckpt"
        path.write_bytes(real_checkpoint + b"\x00")
        with pytest.raises(ValueError, match=f"{path}.*trailing bytes"):
            load_checkpoint(path)

    def test_unknown_kind_rejected_with_path(self, tmp_path):
        path = tmp_path / "odd.ckpt"
        save_checkpoint(path, NetworkParams.zeros(5, (4,), 3), "zz", 7)
        with pytest.raises(ValueError, match=f"{path}.*'zz'"):
            load_checkpoint(path)

    def test_failed_write_keeps_previous_files(self, tmp_path, monkeypatch):
        ckpt = tmp_path / "run.ckpt"
        episodes = tmp_path / "episodes.csv"
        save_checkpoint(ckpt, NetworkParams.zeros(5, (4,), 3), "eg", 1)
        write_csv([], episodes, EpisodeRow)
        before = ckpt.read_bytes(), episodes.read_bytes()
        temporaries = []

        def refuse(src, dst):
            temporaries.append(os.path.basename(src))
            raise OSError("disk gone")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk gone"):
            save_checkpoint(ckpt, NetworkParams.zeros(5, (4,), 3), "vb", 2)
        with pytest.raises(OSError, match="disk gone"):
            write_csv([], episodes, ProbeRow)
        assert (ckpt.read_bytes(), episodes.read_bytes()) == before
        assert sorted(os.listdir(tmp_path)) == ["episodes.csv", "run.ckpt"]
        # probe and report find their inputs by these globs; a temporary must match none
        assert len(temporaries) == 2
        for name in temporaries:
            assert not any(fnmatch(name, glob) for glob in ("*.ckpt", "episodes.csv", "probes.csv"))

    def test_train_writes_final_checkpoint(self, tmp_path):
        cfg = small_cfg(episodes=1, steps=30)
        cfg.checkpoint_dir = str(tmp_path)
        result = train(cfg)
        assert len(result.checkpoints) == 1
        loaded, kind, steps = load_checkpoint(result.checkpoints[0])
        assert kind == "eg" and steps == 30
        assert params_equal(loaded, result.final_params)

    def test_intermediate_checkpoints(self, tmp_path):
        cfg = small_cfg(episodes=4, steps=20)
        cfg.checkpoint_dir = str(tmp_path)
        cfg.checkpoint_every = 2
        result = train(cfg)
        assert len(result.checkpoints) == 2  # episode 2 + final
        names = [p.split("/")[-1] for p in result.checkpoints]
        assert names == ["eg-s11_ep002.ckpt", "eg-s11_final.ckpt"]


def _values():
    """Floats of every class: nan, infinities, signed zeros, subnormals and normals."""
    return st.one_of(
        st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.5e-310]),
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    )


@st.composite
def _checkpoint_case(draw):
    widths = draw(st.lists(st.integers(1, 9), min_size=2, max_size=5))
    params = NetworkParams.zeros(widths[0], widths[1:-1], widths[-1])
    params.flat[:] = draw(st.lists(_values(), min_size=params.flat.size,
                                   max_size=params.flat.size))
    # a nan with a payload other than the default must survive too
    if params.flat.size and draw(st.booleans()):
        params.flat.view(np.uint64)[0] = 0x7FF0_0000_0000_0001
    return params, draw(st.sampled_from(AGENT_KINDS)), draw(st.integers(0, 2**64 - 1))


@settings(max_examples=60, deadline=None)
@given(case=_checkpoint_case())
def test_checkpoint_round_trip_is_bit_exact_and_every_prefix_fails(tmp_path_factory, case):
    params, kind, step_count = case
    tmp = tmp_path_factory.mktemp("ckpt")
    path = tmp / "p.ckpt"
    save_checkpoint(path, params, kind, step_count)
    loaded, loaded_kind, loaded_steps = load_checkpoint(path)
    assert (loaded_kind, loaded_steps, loaded.shapes) == (kind, step_count, params.shapes)
    assert np.array_equal(loaded.flat.view(np.uint64), params.flat.view(np.uint64))
    buf = path.read_bytes()
    bad = tmp / "bad.ckpt"
    for cut in range(len(buf)):
        bad.write_bytes(buf[:cut])
        with pytest.raises(ValueError, match=str(bad)):
            load_checkpoint(bad)
    bad.write_bytes(buf + b"\x01")
    with pytest.raises(ValueError, match=f"{bad}.*trailing bytes"):
        load_checkpoint(bad)
