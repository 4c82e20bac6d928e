import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from punctrl.agents import AGENT_KINDS, ME_SIGNS, AgentSpec
from punctrl.cli import build_parser, main
from punctrl.config import CliConfig, ConfigError, config_text, load_config
from punctrl.metrics import EpisodeRow, ProbeRow, read_csv
from punctrl.sim import SimConfig

TINY = """
[sim]
p_critical = 0.0

[train]
episodes = 2
steps_per_episode = 40
hidden_dims = 8,8
"""


DEFAULT_MANIFEST = """\
[sim]
n_resources = 2
slots_per_subframe = 7
p_occupy = 0.69999999999999996
occupy_len_min = 5
occupy_len_max = 7
p_request = 0.10000000000000001
p_critical = 0
rayleigh_sigma = 1
w_capacity = 1
w_discard = 5
w_discard_critical = 5

[agent]
kind = eg
epsilon_initial = 0.98999999999999999
epsilon_decay_fraction = 0.5
w_lp = 0.01
w_me = 2.7182818284590451
softmax_clip_low = 0.001
gamma = 0.98999999999999999
me_sign = uniform_prior

[train]
episodes = 30
steps_per_episode = 3000
hidden_dims = 128,128
learning_rate = 0.0001
target_tau = 0.0001
checkpoint_every = 0

[run]
seed = 0
reps = 1
jobs = 1
out_dir = runs

"""

probability = st.floats(0.0, 1.0)
finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def valid_configs(draw):
    slots = draw(st.integers(1, 20))
    len_max = draw(st.integers(0, slots))
    sim = SimConfig(
        n_resources=draw(st.integers(1, 8)),
        slots_per_subframe=slots,
        p_occupy=draw(probability),
        occupy_len_min=draw(st.integers(0, len_max)),
        occupy_len_max=len_max,
        p_request=draw(probability),
        p_critical=draw(probability),
        rayleigh_sigma=draw(positive),
        w_capacity=draw(finite),
        w_discard=draw(finite),
        w_discard_critical=draw(finite),
    )
    agent = AgentSpec(
        kind=draw(st.sampled_from(AGENT_KINDS)),
        epsilon_initial=draw(probability),
        epsilon_decay_fraction=draw(probability),
        w_lp=draw(finite),
        w_me=draw(finite),
        softmax_clip_low=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        gamma=draw(probability),
        me_sign=draw(st.sampled_from(ME_SIGNS)),
    )
    reps = draw(st.integers(1, 64))
    return CliConfig(
        sim=sim,
        agent=agent,
        episodes=draw(st.integers(0, 10**6)),
        steps_per_episode=draw(st.integers(1, 10**6)),
        seed=draw(st.integers(0, 2**64 - reps)),  # rep seeds stay below 2**64
        hidden_dims=tuple(draw(st.lists(st.integers(1, 4096), min_size=1, max_size=4))),
        learning_rate=draw(positive),
        target_tau=draw(positive),
        checkpoint_every=draw(st.integers(0, 100)),
        reps=reps,
        jobs=draw(st.integers(1, 64)),
        out_dir=draw(st.from_regex(r"[A-Za-z0-9_./-]{1,20}", fullmatch=True)),
    )


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY)
    return str(path)


def run(*argv):
    return main(list(argv))


class TestConfig:
    def test_defaults_match_reference_setup(self):
        cfg = load_config(None)
        assert cfg.episodes == 30
        assert cfg.steps_per_episode == 3000
        assert cfg.sim.p_occupy == 0.7
        assert cfg.sim.p_request == 0.1
        assert cfg.sim.w_discard == 5.0
        assert cfg.agent.epsilon_initial == 0.99
        assert cfg.agent.gamma == 0.99
        assert cfg.hidden_dims == (128, 128)
        assert cfg.learning_rate == 1e-4
        assert cfg.target_tau == 1e-4

    # configparser reports keys lower-cased, whatever case the file uses
    @pytest.mark.parametrize("text, key", [
        ("[sim]\np_occupy = 0.5\np_ocupy = 0.7\n", "p_ocupy"),
        ("[train]\nsteps_per_episode = 10\nEpisodez = 3\n", "episodez"),
    ], ids=["p_ocupy", "Episodez"])
    def test_unknown_key_rejected_with_line(self, tmp_path, text, key):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert key in str(err.value)
        assert ":3:" in str(err.value)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[simulation]\np_occupy = 0.5\n")
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert "simulation" in str(err.value)

    def test_semantic_error_anchored(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[sim]\np_occupy = 1.7\n")
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert "p_occupy" in str(err.value) and ":2:" in str(err.value)

    @pytest.mark.parametrize("text, line, key", [
        ("[train]\nepisodes = 2\nhidden_dims = 8,0\n", 3, "hidden_dims"),
        ("[sim]\noccupy_len_min = 6\noccupy_len_max = 5\n", 3, "occupy_len_max"),
        ("[run]\nseed = 1\n\n[agent]\nkind = xx\n", 5, "kind"),
        ("[agent]\nme_sign = yy\n", 2, "me_sign"),
        ("[train]\nepisodes = 2\n\n[run]\nreps = 0\n", 5, "reps"),
        ("[run]\nseed = 2\nout_dir =\n", 3, "out_dir"),
        ("[train]\nsteps_per_episode = 10\nEpisodes = -1\n", 3, "episodes"),
    ])
    def test_bad_value_anchored_to_its_line(self, tmp_path, text, line, key):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert f"{path}:{line}:" in str(err.value)
        assert key in str(err.value)

    def test_default_manifest_text(self):
        # key order and float formatting are part of the manifest format
        assert config_text(load_config(None)) == DEFAULT_MANIFEST

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cfg=valid_configs())
    def test_any_valid_config_round_trips(self, tmp_path, cfg):
        text = config_text(cfg)
        path = tmp_path / "manifest.ini"
        path.write_text(text)
        again = load_config(str(path))
        assert again == cfg
        assert config_text(again) == text

    def test_manifest_round_trips(self, tmp_path, tiny_config):
        from punctrl.config import write_manifest

        cfg = load_config(tiny_config)
        cfg.seed = 99
        manifest = tmp_path / "manifest.ini"
        write_manifest(cfg, manifest)
        again = load_config(str(manifest))
        assert again == cfg


class TestCmdTrain:
    def test_writes_expected_rows(self, tmp_path, tiny_config):
        out = str(tmp_path / "run")
        assert run("train", "--config", tiny_config, "--agent", "eg", "--seed", "3",
                   "--reps", "1", "--out", out) == 0
        rows = read_csv(os.path.join(out, "episodes.csv"), EpisodeRow)
        assert len(rows) == 2
        assert all(r.agent == "eg" and r.seed == 3 for r in rows)
        assert os.path.exists(os.path.join(out, "manifest.ini"))
        assert os.path.exists(os.path.join(out, "checkpoints", "eg-s3_final.ckpt"))

    def test_reps_use_consecutive_seeds(self, tmp_path, tiny_config):
        out = str(tmp_path / "run")
        assert run("train", "--config", tiny_config, "--agent", "vb", "--seed", "10",
                   "--reps", "2", "--out", out) == 0
        rows = read_csv(os.path.join(out, "episodes.csv"), EpisodeRow)
        assert sorted({r.seed for r in rows}) == [10, 11]

    def test_byte_identical_reruns(self, tmp_path, tiny_config):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        for out in (out_a, out_b):
            assert run("train", "--config", tiny_config, "--agent", "me", "--seed", "7",
                       "--reps", "1", "--out", out) == 0
        a = Path(out_a, "episodes.csv").read_bytes()
        b = Path(out_b, "episodes.csv").read_bytes()
        assert a == b

    def test_unknown_agent_is_usage_error(self, tmp_path, tiny_config):
        assert run("train", "--config", tiny_config, "--agent", "xx",
                   "--out", str(tmp_path / "x")) == 2

    @pytest.mark.parametrize("flag", ["--reps", "--jobs"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_count_below_one_is_usage_error(self, tmp_path, tiny_config, flag, value):
        out = tmp_path / "x"
        assert run("train", "--config", tiny_config, flag, value, "--out", str(out)) == 2
        assert not out.exists()

    def test_bad_flag_override_writes_no_manifest(self, tmp_path, tiny_config):
        out = tmp_path / "x"
        assert run("train", "--config", tiny_config, "--checkpoint-every", "-1",
                   "--out", str(out)) == 1
        assert not out.exists()

    def test_empty_out_flag_is_rejected(self, tmp_path, tiny_config, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run("train", "--config", tiny_config, "--out", "") == 1
        assert "out_dir" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_seed_range_past_u64_writes_nothing(self, tmp_path, tiny_config, capsys):
        out = tmp_path / "x"
        assert run("train", "--config", tiny_config, "--seed", str(2**64 - 1), "--reps", "2",
                   "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "seed" in err and "reps" in err
        assert not out.exists()

    def test_seed_range_ending_at_u64_max_runs(self, tmp_path, tiny_config):
        out = tmp_path / "x"
        assert run("train", "--config", tiny_config, "--seed", str(2**64 - 2), "--reps", "2",
                   "--out", str(out)) == 0
        rows = read_csv(out / "episodes.csv", EpisodeRow)
        assert sorted({r.seed for r in rows}) == [2**64 - 2, 2**64 - 1]

    def test_bad_config_is_runtime_error(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[sim]\nnope = 1\n")
        assert run("train", "--config", str(bad), "--out", str(tmp_path / "x")) == 1

    def test_manifest_reproduces_run(self, tmp_path, tiny_config):
        out_a = str(tmp_path / "a")
        run("train", "--config", tiny_config, "--agent", "eg", "--seed", "5",
            "--reps", "1", "--out", out_a)
        out_b = str(tmp_path / "b")
        assert run("train", "--config", os.path.join(out_a, "manifest.ini"),
                   "--out", out_b) == 0
        a = Path(out_a, "episodes.csv").read_bytes()
        b = Path(out_b, "episodes.csv").read_bytes()
        assert a == b


class TestCmdBaseline:
    def test_baseline_run(self, tmp_path, tiny_config):
        out = str(tmp_path / "manual")
        assert run("baseline", "--config", tiny_config, "--seed", "4",
                   "--episodes", "3", "--out", out) == 0
        rows = read_csv(os.path.join(out, "episodes.csv"), EpisodeRow)
        assert len(rows) == 3
        assert all(r.agent == "manual" for r in rows)
        assert all(r.critical_missed_ratio == 0.0 for r in rows)

    def test_reps_use_consecutive_seeds(self, tmp_path, tiny_config):
        three = tmp_path / "three.ini"
        three.write_text(Path(tiny_config).read_text() + "\n[run]\nreps = 3\n")
        out3, out1 = str(tmp_path / "three"), str(tmp_path / "one")
        assert run("baseline", "--config", str(three), "--seed", "4", "--out", out3) == 0
        assert run("baseline", "--config", tiny_config, "--seed", "4", "--out", out1) == 0
        rows3 = read_csv(os.path.join(out3, "episodes.csv"), EpisodeRow)
        rows1 = read_csv(os.path.join(out1, "episodes.csv"), EpisodeRow)
        assert [r.seed for r in rows3] == [4, 4, 5, 5, 6, 6]
        assert rows3[:2] == rows1

    def test_no_arrivals_mean_zero_missed(self, tmp_path):
        cfg = tmp_path / "noreq.ini"
        cfg.write_text("[sim]\np_request = 0.0\n\n[train]\nepisodes = 2\nsteps_per_episode = 30\n")
        out = str(tmp_path / "manual")
        assert run("baseline", "--config", str(cfg), "--out", out) == 0
        rows = read_csv(os.path.join(out, "episodes.csv"), EpisodeRow)
        assert all(r.urllc_missed_ratio == 0.0 for r in rows)


class TestCmdProbe:
    @pytest.fixture
    def trained_dir(self, tmp_path, tiny_config):
        out = str(tmp_path / "run")
        run("train", "--config", tiny_config, "--agent", "eg", "--seed", "1",
            "--reps", "1", "--out", out)
        run("train", "--config", tiny_config, "--agent", "vb", "--seed", "1",
            "--reps", "1", "--out", str(tmp_path / "run_vb"))
        return out

    def test_reaction_rows(self, trained_dir):
        assert run("probe", "--checkpoints", trained_dir, "--mode", "reaction") == 0
        rows = read_csv(os.path.join(trained_dir, "reaction", "probes.csv"), ProbeRow)
        assert len(rows) == 1
        row = rows[0]
        assert row.agent == "eg"
        assert row.md is not None
        assert row.logstd_wait is None and row.mean_logstd_punct is None
        assert row.steps_until_explore is None

    def test_adapt_respects_cap(self, trained_dir):
        assert run("probe", "--checkpoints", trained_dir, "--mode", "adapt",
                   "--reps", "3", "--cap", "10") == 0
        rows = read_csv(os.path.join(trained_dir, "probes.csv"), ProbeRow)
        assert len(rows) == 3
        assert all(1 <= r.steps_until_explore <= 10 for r in rows)

    @pytest.mark.parametrize("kind", ["eg", "vb"])
    def test_adapt_rows_equal_direct_probes(self, tmp_path, trained_dir, kind):
        from punctrl.config import as_train_config
        from punctrl.seeding import STREAM_PROBE, substream
        from punctrl.train import load_checkpoint, probe_adaptation

        run_dir = trained_dir if kind == "eg" else str(tmp_path / "run_vb")
        assert run("probe", "--checkpoints", run_dir, "--mode", "adapt",
                   "--reps", "4", "--cap", "30", "--seed", "6") == 0
        rows = read_csv(os.path.join(run_dir, "probes.csv"), ProbeRow)
        manifest = load_config(os.path.join(run_dir, "manifest.ini"))
        cfg = as_train_config(manifest, seed=manifest.seed)
        params, _, _ = load_checkpoint(
            os.path.join(run_dir, "checkpoints", f"{kind}-s1_final.ckpt"))
        assert [r.repetition for r in rows] == [0, 1, 2, 3]
        for row in rows:
            rng = substream(6, f"{STREAM_PROBE}/{kind}-s1_final/{row.repetition}")
            assert row.agent == kind
            assert row.steps_until_explore == probe_adaptation(params, cfg.agent, cfg, rng,
                                                               cap=30)

    @pytest.mark.parametrize("flag", ["--cap", "--reps"])
    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_count_below_one_is_usage_error(self, trained_dir, flag, value):
        assert run("probe", "--checkpoints", trained_dir, "--mode", "adapt",
                   flag, value) == 2
        assert not os.path.exists(os.path.join(trained_dir, "probes.csv"))

    def test_default_cap_is_ten_thousand(self, tmp_path, trained_dir, monkeypatch):
        import punctrl.cli as cli
        from punctrl.seeding import STREAM_PROBE, substream

        calls = []

        def fake_probe(params, spec, cfg, rng, cap):
            calls.append((rng.bit_generator.state, cap))
            return 1

        monkeypatch.setattr(cli, "probe_adaptation", fake_probe)
        assert run("probe", "--checkpoints", str(tmp_path / "run_vb"), "--mode", "adapt") == 0
        # the adapt defaults: 10 reps on seed 0, each capped at 10 000 confrontations
        assert calls == [
            (substream(0, f"{STREAM_PROBE}/vb-s1_final/{rep}").bit_generator.state, 10000)
            for rep in range(10)
        ]

    @pytest.mark.parametrize("flag,value", [("--reps", "5"), ("--cap", "3"), ("--seed", "9")])
    def test_reaction_rejects_adapt_flags(self, trained_dir, capsys, flag, value):
        assert run("probe", "--checkpoints", trained_dir, "--mode", "reaction", flag, value) == 2
        assert f"--mode reaction does not read {flag}" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(trained_dir, "reaction"))
        assert not os.path.exists(os.path.join(trained_dir, "probes.csv"))

    @pytest.mark.parametrize("line,changed", [("n_resources = 2", "n_resources = 3"),
                                              ("hidden_dims = 8,8", "hidden_dims = 8,9")])
    def test_checkpoint_not_matching_manifest_fails(self, trained_dir, capsys, line, changed):
        manifest = Path(trained_dir, "manifest.ini")
        manifest.write_text(manifest.read_text().replace(line, changed))
        for mode in ("reaction", "adapt"):
            assert run("probe", "--checkpoints", trained_dir, "--mode", mode) == 1
            err = capsys.readouterr().err
            assert str(manifest) in err
            assert os.path.join(trained_dir, "checkpoints", "eg-s1_final.ckpt") in err
        assert not os.path.exists(os.path.join(trained_dir, "reaction"))
        assert not os.path.exists(os.path.join(trained_dir, "probes.csv"))

    def test_missing_manifest_fails(self, trained_dir, capsys):
        os.remove(os.path.join(trained_dir, "manifest.ini"))
        assert run("probe", "--checkpoints", trained_dir, "--mode", "reaction") == 1
        assert "manifest.ini" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(trained_dir, "probes.csv"))
        assert not os.path.exists(os.path.join(trained_dir, "reaction"))

    def test_reaction_and_adapt_keep_both_outputs(self, tmp_path, trained_dir, capsys):
        assert run("probe", "--checkpoints", trained_dir, "--mode", "reaction") == 0
        assert run("probe", "--checkpoints", trained_dir, "--mode", "adapt",
                   "--reps", "2", "--cap", "5") == 0
        reaction = read_csv(os.path.join(trained_dir, "reaction", "probes.csv"), ProbeRow)
        adapt = read_csv(os.path.join(trained_dir, "probes.csv"), ProbeRow)
        assert [r.md is not None for r in reaction] == [True]
        assert [r.steps_until_explore is not None for r in adapt] == [True, True]
        capsys.readouterr()
        assert run("report", "--in", trained_dir, "--out", str(tmp_path / "rep")) == 0
        out = capsys.readouterr().out
        assert "Reaction to the unseen critical event" in out
        assert "steps until the new event" in out

    @pytest.mark.parametrize("mode", ["reaction", "adapt"])
    def test_reads_only_the_manifest_runs(self, tmp_path, tiny_config, mode):
        # a later run into the same directory rewrites the manifest; the first
        # run's checkpoint stays on disk but belongs to no run the manifest names
        out = str(tmp_path / "shared")
        assert run("train", "--config", tiny_config, "--agent", "eg", "--seed", "0",
                   "--out", out) == 0
        assert run("train", "--config", tiny_config, "--agent", "vb", "--seed", "3",
                   "--reps", "2", "--out", out) == 0
        assert os.path.exists(os.path.join(out, "checkpoints", "eg-s0_final.ckpt"))
        csv_path = str(tmp_path / "probes.csv")
        adapt_flags = ["--reps", "1", "--cap", "3"] if mode == "adapt" else []
        assert run("probe", "--checkpoints", out, "--mode", mode, *adapt_flags,
                   "--out", csv_path) == 0
        rows = read_csv(csv_path, ProbeRow)
        assert [(r.run_id, r.agent) for r in rows] == [("vb-s3_final", "vb"),
                                                       ("vb-s4_final", "vb")]

    def test_other_runs_checkpoints_are_not_found(self, tmp_path, tiny_config, capsys):
        out = str(tmp_path / "moved")
        assert run("train", "--config", tiny_config, "--agent", "eg", "--seed", "0",
                   "--out", out) == 0
        manifest = Path(out, "manifest.ini")
        manifest.write_text(manifest.read_text().replace("seed = 0", "seed = 1"))
        assert run("probe", "--checkpoints", out, "--mode", "reaction") == 1
        assert "no checkpoints of the runs in" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "reaction"))

    def test_missing_checkpoints_fail(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run("probe", "--checkpoints", str(empty)) == 1
        assert run("probe", "--checkpoints", str(tmp_path / "nope")) == 1


class TestCmdReport:
    def test_empty_dir_reports_no_runs(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run("report", "--in", str(empty), "--out", str(tmp_path / "rep")) == 1
        assert "no runs found" in capsys.readouterr().err

    def test_truncated_episodes_csv_is_runtime_error(self, tmp_path, tiny_config, capsys):
        runs = tmp_path / "runs"
        run("train", "--config", tiny_config, "--agent", "eg", "--seed", "0",
            "--reps", "1", "--out", str(runs / "eg"))
        episodes = runs / "eg" / "episodes.csv"
        episodes.write_bytes(episodes.read_bytes()[:-20])
        assert run("report", "--in", str(runs), "--out", str(tmp_path / "rep")) == 1
        assert capsys.readouterr().err.startswith(f"error: {episodes}:3: ")

    def test_cell_past_csv_field_limit_is_runtime_error(self, tmp_path, tiny_config, capsys):
        runs = tmp_path / "runs"
        run("train", "--config", tiny_config, "--agent", "eg", "--seed", "0",
            "--reps", "1", "--out", str(runs / "eg"))
        episodes = runs / "eg" / "episodes.csv"
        lines = episodes.read_text().splitlines(keepends=True)
        lines[1] = "x" * 200_000 + lines[1]
        episodes.write_text("".join(lines))
        assert run("report", "--in", str(runs), "--out", str(tmp_path / "rep")) == 1
        assert capsys.readouterr().err.startswith(f"error: {episodes}:2: ")

    def test_full_report(self, tmp_path, tiny_config, capsys):
        runs = tmp_path / "runs"
        run("train", "--config", tiny_config, "--agent", "eg", "--seed", "0",
            "--reps", "2", "--out", str(runs / "eg"))
        run("baseline", "--config", tiny_config, "--seed", "0", "--episodes", "2",
            "--out", str(runs / "manual"))
        run("probe", "--checkpoints", str(runs / "eg"), "--mode", "adapt",
            "--reps", "2", "--cap", "5")
        out = tmp_path / "report"
        assert run("report", "--in", str(runs), "--out", str(out)) == 0
        assert (out / "summary.csv").exists()
        text = (out / "rewards.svg").read_text()
        assert text.count("<polyline") == 1  # one eg series
        assert "stroke-dasharray" in text  # baseline line present
        assert "steps until the new event" in capsys.readouterr().out

    def test_summary_uses_sample_std(self, tmp_path, tiny_config):
        from punctrl.metrics import SummaryRow, read_csv as read

        runs = tmp_path / "runs"
        run("train", "--config", tiny_config, "--agent", "eg", "--seed", "0",
            "--reps", "3", "--out", str(runs / "eg"))
        out = tmp_path / "report"
        run("report", "--in", str(runs), "--out", str(out))
        rows = read(out / "summary.csv", SummaryRow)
        by_ep = [r for r in rows if r.metric == "sum_reward" and r.episode == 1]
        assert len(by_ep) == 1
        entry = by_ep[0]
        # sample (n-1) std recomputed by hand from the episode rows
        eps = read(runs / "eg" / "episodes.csv", EpisodeRow)
        vals = [r.sum_reward for r in eps if r.episode == 1]
        mean = sum(vals) / 3
        std = (sum((v - mean) ** 2 for v in vals) / 2) ** 0.5
        assert entry.mean == pytest.approx(mean)
        assert entry.std == pytest.approx(std)
        assert entry.n == 3


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert run() == 2

    def test_help_exits_zero(self):
        assert run("--help") == 0

    def test_negative_seed_rejected(self, tmp_path, tiny_config):
        assert run("train", "--config", tiny_config, "--seed", "-1",
                   "--out", str(tmp_path / "x")) == 2

    def test_seed_past_u64_is_usage_error(self, tmp_path, tiny_config):
        out = tmp_path / "x"
        assert run("train", "--config", tiny_config, "--seed", "18446744073709551616",
                   "--out", str(out)) == 2
        assert not out.exists()

    def test_u64_max_seed_accepted(self):
        args = build_parser().parse_args(["train", "--seed", "18446744073709551615"])
        assert args.seed == 2**64 - 1
