import configparser
import os
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from punctrl.agents import AGENT_KINDS, AgentSpec
from punctrl.cli import build_parser, main
from punctrl.config import SCHEMA, CliConfig, ConfigError, _holder, config_text, load_config
from punctrl.metrics import EpisodeRow, ProbeRow, format_value, read_csv
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
# any character, with the ones the config grammar treats specially drawn more often
path_chars = st.one_of(st.characters(), st.sampled_from(" \t\n\r\x0b\x0c\x85\u2028#;=:[]%"))


def accepted_out_dir(text: str) -> bool:
    """Whether CliConfig.validate takes ``text`` as out_dir; the strategy restates no rule."""
    try:
        CliConfig(out_dir=text).validate()
    except ValueError:
        return False
    return True


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
        out_dir=draw(st.text(path_chars, min_size=1, max_size=20).filter(accepted_out_dir)),
    )


def reference_config(path):
    """The config that Python's configparser reads from ``path``, or None if it is rejected.

    configparser reads the sections and values, which are then parsed in file
    order and validated: the reference for the grammar load_config reads.
    """
    with open(path, encoding="utf-8-sig") as fh:
        text = fh.read()
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    cfg = CliConfig()
    try:
        parser.read_string(text)
        for section in parser.sections():
            if section not in SCHEMA:
                return None
            for key, raw in parser.items(section):
                if key not in SCHEMA[section]:
                    return None
                setattr(_holder(cfg, section), key, SCHEMA[section][key](raw))
        cfg.validate()
    except (configparser.Error, ValueError):
        return None
    return cfg


# lines in and around the grammar: blank ones, comments, continuations, stray
# brackets, headers with text after them, and keys or values no run accepts
NOISE_LINES = ("", "  ", "\t", "\x0c", "\x85", "# c", "; c = 1", "  # c", "  8", "\tx = 1",
               "[]", "[]]", "]", "[", "[ sim ]", "[DEFAULT]", "[sim] ; c", "[train]x", "[agent",
               "episodes", "= 1", ": 1", "nope = 1", "episodes = -1", "hidden_dims = 8,")


@st.composite
def config_texts(draw):
    """Texts over the SCHEMA sections and keys: keys in mixed case after either
    delimiter, values of a valid config, some indented, with noise lines among them."""
    cfg = draw(valid_configs())
    lines = []
    for section in draw(st.lists(st.sampled_from(list(SCHEMA)), min_size=1, unique=True)):
        lines.append(draw(st.sampled_from(["", "", " ", "\t"])) + f"[{section}]")
        for key in draw(st.lists(st.sampled_from(list(SCHEMA[section])), min_size=1, unique=True)):
            upper = draw(st.lists(st.booleans(), min_size=len(key), max_size=len(key)))
            name = "".join(c.upper() if up else c for c, up in zip(key, upper))
            lines.append(draw(st.sampled_from(["", "", "", " ", "\t"])) + name
                         + draw(st.sampled_from([" = ", "=", ": ", " :", "\t=\t"]))
                         + format_value(getattr(_holder(cfg, section), key))
                         + draw(st.sampled_from(["", "", "", " ", "\x85", "\x0c", " ; c"])))
    noise = st.tuples(st.integers(0, len(lines)), st.sampled_from(NOISE_LINES))
    for at, line in draw(st.lists(noise, max_size=4)):
        lines.insert(at, line)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n", "\n  \n"]))


# free-form texts strung from the grammar's characters and some section and key names
grammar_soups = st.lists(st.sampled_from(
    ["[", "]", "=", ":", "#", ";", " ", "\t", "\n", "\n", "\r", "\x0c", "\x85", "\ufeff", "sim",
     "train", "DEFAULT", "episodes", "Episodes", "p_occupy", "hidden_dims", "out_dir", "0.5", "3",
     "8,", "x"]), max_size=40).map("".join)


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

    # keys are reported lower-cased, whatever case the file uses
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

    # [DEFAULT] is an unknown section like any other, not configparser's default section
    @pytest.mark.parametrize("text, line", [
        ("[DEFAULT]\nepisodes = 5\n", 1),
        ("[DEFAULT]\nepisodes = 5\n\n[train]\nsteps_per_episode = 10\n", 1),
        ("[sim]\np_occupy = 0.5\n\n[DEFAULT]\nepisodes = 5\n", 4),
    ], ids=["alone", "with-train", "with-sim"])
    def test_default_section_rejected_with_line(self, tmp_path, text, line):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert str(err.value) == f"{path}:{line}: unknown section [DEFAULT]"

    def test_me_sign_is_an_unknown_key(self, tmp_path):
        # manifests written while the penalty's sign was a key of its own hold this line
        path = tmp_path / "old.ini"
        path.write_text("[agent]\nme_sign = uniform_prior\n")
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert str(err.value) == f"{path}:2: unknown key 'me_sign' in section [agent]"

    def test_undecodable_file_named(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_bytes(b"[sim]\np_occupy = 0.5\xff\n")
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert str(err.value).startswith(f"{path}: cannot read config: 'utf-8' codec")

    def test_byte_order_mark_accepted(self, tmp_path):
        text = b"[sim]\np_occupy = 0.5\n"
        plain, marked = tmp_path / "plain.ini", tmp_path / "marked.ini"
        plain.write_bytes(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text)
        cfg = load_config(str(marked))
        assert cfg == load_config(str(plain)) and cfg.sim.p_occupy == 0.5

    def test_semantic_error_anchored(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[sim]\np_occupy = 1.7\n")
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert "p_occupy" in str(err.value) and ":2:" in str(err.value)

    @pytest.mark.parametrize("text, line, key", [
        ("[train]\nepisodes = 2\nhidden_dims = 8,0\n", 3, "hidden_dims"),
        ("[train]\nepisodes = 2\nhidden_dims = ,\n", 3, "hidden_dims"),
        ("[sim]\noccupy_len_min = 6\noccupy_len_max = 5\n", 3, "occupy_len_max"),
        ("[run]\nseed = 1\n\n[agent]\nkind = xx\n", 5, "kind"),
        ("[agent]\nsoftmax_clip_low = 1.5\n", 2, "softmax_clip_low"),
        ("[train]\nepisodes = 2\n\n[run]\nreps = 0\n", 5, "reps"),
        ("[run]\nseed = 2\nout_dir =\n", 3, "out_dir"),
        ("[train]\nsteps_per_episode = 10\nEpisodes = -1\n", 3, "episodes"),
        # line 3 continues out_dir's value
        ("[run]\nout_dir = runs\n  episodes = 7\n[train]\nepisodes = -1\n", 5, "episodes"),
        # U+0085 and U+000C end no line
        ("[run]\nout_dir = a\x85b\n[train]\nepisodes = -1\n", 4, "episodes"),
        ("[run]\nout_dir = a\x0cb\n[train]\nepisodes = -1\n", 4, "episodes"),
        # the message names occupy_len_max first, which the file leaves at its default
        ("[sim]\nn_resources = 3\noccupy_len_min = 8\n", 3, "occupy_len_max"),
    ])
    def test_bad_value_anchored_to_its_line(self, tmp_path, text, line, key):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert f"{path}:{line}:" in str(err.value)
        assert key in str(err.value)

    @pytest.mark.parametrize("text, message", [
        ("[ sim ]\np_occupy = 0.5\n", "1: unknown section [ sim ]"),
        ("[train]\nepisodes\n", "2: expected key = value, got 'episodes'"),
        ("episodes = 5\n[train]\n", "1: expected a [section] header, got 'episodes = 5'"),
        ("[train]\nepisodes = 2\n\n[train]\n", "4: repeated section [train]"),
        ("[sim]\np_occupy = 0.5\nP_Occupy = 0.6\n", "3: repeated key 'p_occupy' in section [sim]"),
    ], ids=["spaced-header", "no-delimiter", "before-header", "repeated-section", "repeated-key"])
    def test_unreadable_line_is_one_error_line(self, tmp_path, text, message):
        path = tmp_path / "c.ini"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert str(err.value) == f"{path}:{message}"

    def assert_reads_as_reference(self, path, text):
        path.write_bytes(text.encode("utf-8"))
        expected = reference_config(path)
        try:
            cfg = load_config(str(path))
        except ConfigError as err:
            assert expected is None, str(err)
            assert re.fullmatch(rf"{re.escape(str(path))}:\d+: [^\n]+", str(err)), str(err)
        else:
            assert cfg == expected
            assert config_text(cfg) == config_text(expected)

    @pytest.mark.parametrize("text", [
        "[train]\nhidden_dims = 8,\n  16\n",
        "[train]\nhidden_dims = 8,\n\n  16\n\n\n",
        "[train]\nhidden_dims = 8,\n# c\n  16\n",
        "[train]\nepisodes = 3\n; c\n  5\n",
        "[train]\nepisodes =\n  3\n",
        "[]\n", "[]]\n", "[train] ; c\nepisodes = 3\n", "[train]]\n", "[train]x\nepisodes = 3\n",
        "[train]\n\tepisodes = 3\n", "\t[train]\nepisodes = 3\n  steps_per_episode = 4\n",
        "\ufeff[train]\nepisodes = 3\n", "[train]\r\nepisodes = 3\r\n",
        "[train]\nEPISODES : 3\n", "[train]\nepisodes:3\n", "[train]\n= 3\n", "[train]\n: 3\n",
        "[run]\nout_dir = a:b=c\n", "[run]\nout_dir = a\x0cb\x85c\n", "\n\n# c\n[train]\n",
    ])
    def test_edge_cases_read_as_configparser_reads_them(self, tmp_path, text):
        self.assert_reads_as_reference(tmp_path / "c.ini", text)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=st.one_of(config_texts(), grammar_soups))
    def test_reads_as_configparser_reads(self, tmp_path, text):
        self.assert_reads_as_reference(tmp_path / "c.ini", text)

    def test_default_manifest_text(self):
        # key order and float formatting are part of the manifest format
        assert config_text(load_config(None)) == DEFAULT_MANIFEST

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cfg=valid_configs())
    def test_any_valid_config_round_trips(self, tmp_path, cfg):
        text = config_text(cfg)
        path = tmp_path / "manifest.ini"
        path.write_text(text, encoding="utf-8")
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

    # --checkpoint-every and baseline's --episodes take 0, but no negative count
    @pytest.mark.parametrize("value, flag", [
        *[(value, flag) for value in ("0", "-3") for flag in ("--reps", "--jobs")],
        ("-1", "--checkpoint-every"),
        ("-1", "--episodes"),
    ])
    def test_count_below_one_is_usage_error(self, tmp_path, tiny_config, value, flag):
        out = tmp_path / "x"
        command = "baseline" if flag == "--episodes" else "train"
        assert run(command, "--config", tiny_config, flag, value, "--out", str(out)) == 2
        assert not out.exists()

    def test_empty_out_flag_is_rejected(self, tmp_path, tiny_config, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run("train", "--config", tiny_config, "--out", "") == 1
        assert "out_dir" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("out_dir", ["runs ", " runs", "ru\nns", "ru\rns"],
                             ids=["trailing-space", "leading-space", "newline", "carriage-return"])
    def test_out_the_manifest_cannot_read_back_is_rejected(self, tmp_path, tiny_config, capsys,
                                                           monkeypatch, out_dir):
        monkeypatch.chdir(tmp_path)
        assert run("train", "--config", tiny_config, "--out", out_dir) == 1
        assert capsys.readouterr().err.startswith("error: out_dir ")
        assert os.listdir(tmp_path) == ["tiny.ini"]

    def test_out_not_writable_as_utf8_is_rejected(self, tmp_path, tiny_config, capsys,
                                                 monkeypatch):
        # Python reads the byte 0xff of `--out $'r\xff'` as the lone surrogate U+DCFF
        monkeypatch.chdir(tmp_path)
        assert run("train", "--config", tiny_config, "--out", "r\udcff") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out_dir ") and "UTF-8" in err
        assert os.listdir(tmp_path) == ["tiny.ini"]

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

    def test_jobs_capped_at_reps_and_spawned(self, tmp_path, tiny_config, monkeypatch):
        import concurrent.futures
        import multiprocessing.process

        pools = []

        class InlinePool:
            """Records how the pool is built and runs its tasks in this process."""

            def __init__(self, max_workers, mp_context):
                pools.append((max_workers, mp_context.get_start_method()))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        def no_process(self):
            raise AssertionError("a worker process was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_process)
        out = tmp_path / "run"
        assert run("train", "--config", tiny_config, "--agent", "eg", "--seed", "1",
                   "--reps", "2", "--jobs", "64", "--out", str(out)) == 0
        assert pools == [(2, "spawn")]
        rows = read_csv(out / "episodes.csv", EpisodeRow)
        assert sorted({r.seed for r in rows}) == [1, 2]

    def test_parallel_reps_match_serial_bytes(self, tmp_path, tiny_config, monkeypatch):
        outs = {}
        for jobs in ("1", "2"):
            # the same relative --out, so the manifests' out_dir lines agree
            (tmp_path / jobs).mkdir()
            monkeypatch.chdir(tmp_path / jobs)
            assert run("train", "--config", tiny_config, "--agent", "vb", "--seed", "4",
                       "--reps", "2", "--jobs", jobs, "--checkpoint-every", "1",
                       "--out", "run") == 0
            outs[jobs] = tmp_path / jobs / "run"
        serial, parallel = outs["1"], outs["2"]
        assert (serial / "episodes.csv").read_bytes() == (parallel / "episodes.csv").read_bytes()
        names = sorted(path.name for path in (serial / "checkpoints").iterdir())
        assert names == sorted(path.name for path in (parallel / "checkpoints").iterdir())
        assert len(names) == 4  # one after episode 1 and one final, per rep
        for name in names:
            assert (serial / "checkpoints" / name).read_bytes() == (
                parallel / "checkpoints" / name).read_bytes()
        serial_lines = (serial / "manifest.ini").read_text().splitlines()
        parallel_lines = (parallel / "manifest.ini").read_text().splitlines()
        assert len(serial_lines) == len(parallel_lines)
        differing = [(a, b) for a, b in zip(serial_lines, parallel_lines) if a != b]
        assert differing == [("jobs = 1", "jobs = 2")]

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
            assert row.steps_until_explore == probe_adaptation(params, cfg, rng, cap=30)

    @pytest.mark.parametrize("kind", ["eg", "vb"])
    def test_reaction_rows_equal_direct_probes(self, tmp_path, trained_dir, kind):
        from punctrl.train import load_checkpoint, probe_reaction

        run_dir = trained_dir if kind == "eg" else str(tmp_path / "run_vb")
        assert run("probe", "--checkpoints", run_dir, "--mode", "reaction") == 0
        rows = read_csv(os.path.join(run_dir, "reaction", "probes.csv"), ProbeRow)
        cfg = load_config(os.path.join(run_dir, "manifest.ini"))
        paths = sorted(Path(run_dir, "checkpoints").glob("*.ckpt"))
        assert [p.name for p in paths] == [f"{kind}-s1_final.ckpt"]
        assert rows == [probe_reaction(load_checkpoint(p)[0], cfg, p.stem) for p in paths]

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

        def fake_probe(params, cfg, rng, cap):
            calls.append((rng.bit_generator.state, cap))
            return 1

        monkeypatch.setattr(cli, "probe_adaptation", fake_probe)
        # the adapt defaults: 10 reps on seed ADAPTATION_SEED (0), each capped at
        # 10 000 confrontations; an explicit --seed 0 is kept under any default
        for default, flags, seed in ((0, (), 0), (3, (), 3), (3, ("--seed", "0"), 0)):
            monkeypatch.setattr(cli, "ADAPTATION_SEED", default)
            calls.clear()
            assert run("probe", "--checkpoints", str(tmp_path / "run_vb"), "--mode", "adapt",
                       *flags) == 0
            assert calls == [
                (substream(seed, f"{STREAM_PROBE}/vb-s1_final/{rep}").bit_generator.state, 10000)
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
            assert err.startswith("error: ") and str(manifest) in err
            assert os.path.join(trained_dir, "checkpoints", "eg-s1_final.ckpt") in err
        assert not os.path.exists(os.path.join(trained_dir, "reaction"))
        assert not os.path.exists(os.path.join(trained_dir, "probes.csv"))

    def test_checkpoint_kind_not_matching_manifest_fails(self, tmp_path, trained_dir, capsys):
        # vb and me heads have the same shapes, so only the stored kind tells them apart
        from punctrl.train import load_checkpoint, save_checkpoint

        vb_dir = str(tmp_path / "run_vb")
        ckpt = os.path.join(vb_dir, "checkpoints", "vb-s1_final.ckpt")
        params, _, steps = load_checkpoint(ckpt)
        save_checkpoint(ckpt, params, "me", steps)
        for mode in ("reaction", "adapt"):
            assert run("probe", "--checkpoints", vb_dir, "--mode", mode) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {ckpt} holds a me agent")
            assert os.path.join(vb_dir, "manifest.ini") in err
        assert not os.path.exists(os.path.join(vb_dir, "reaction"))
        assert not os.path.exists(os.path.join(vb_dir, "probes.csv"))

    def test_missing_manifest_fails(self, trained_dir, capsys):
        os.remove(os.path.join(trained_dir, "manifest.ini"))
        assert run("probe", "--checkpoints", trained_dir, "--mode", "reaction") == 1
        assert capsys.readouterr().err.startswith(f"error: no manifest.ini in {trained_dir}")
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

    def test_every_checkpoint_probed_without_final_ones(self, tmp_path):
        config = tmp_path / "three.ini"
        config.write_text(TINY.replace("episodes = 2", "episodes = 3"))
        out = str(tmp_path / "intermediate")
        assert run("train", "--config", str(config), "--agent", "eg", "--seed", "0",
                   "--checkpoint-every", "1", "--out", out) == 0
        os.remove(os.path.join(out, "checkpoints", "eg-s0_final.ckpt"))
        assert run("probe", "--checkpoints", out, "--mode", "reaction") == 0
        rows = read_csv(os.path.join(out, "reaction", "probes.csv"), ProbeRow)
        assert [r.run_id for r in rows] == ["eg-s0_ep001", "eg-s0_ep002"]

    def test_run_without_final_keeps_its_intermediates(self, tmp_path):
        config = tmp_path / "three.ini"
        config.write_text(TINY.replace("episodes = 2", "episodes = 3"))
        out = str(tmp_path / "lost_final")
        assert run("train", "--config", str(config), "--agent", "eg", "--seed", "0",
                   "--reps", "2", "--checkpoint-every", "1", "--out", out) == 0
        os.remove(os.path.join(out, "checkpoints", "eg-s1_final.ckpt"))
        assert run("probe", "--checkpoints", out, "--mode", "reaction") == 0
        rows = read_csv(os.path.join(out, "reaction", "probes.csv"), ProbeRow)
        assert [r.run_id for r in rows] == ["eg-s0_final", "eg-s1_ep001", "eg-s1_ep002"]

    @pytest.mark.parametrize("first, last", [(1, 10), (10, 1)])
    def test_run_ids_match_whole(self, tmp_path, tiny_config, first, last):
        # eg-s1 is a prefix of eg-s10: only the last run's checkpoint is the manifest's
        out = str(tmp_path / "shared")
        for seed in (first, last):
            assert run("train", "--config", tiny_config, "--agent", "eg", "--seed", str(seed),
                       "--out", out) == 0
        assert run("probe", "--checkpoints", out, "--mode", "reaction") == 0
        rows = read_csv(os.path.join(out, "reaction", "probes.csv"), ProbeRow)
        assert [r.run_id for r in rows] == [f"eg-s{last}_final"]

    def test_other_runs_checkpoints_are_not_found(self, tmp_path, tiny_config, capsys):
        out = str(tmp_path / "moved")
        assert run("train", "--config", tiny_config, "--agent", "eg", "--seed", "0",
                   "--out", out) == 0
        manifest = Path(out, "manifest.ini")
        manifest.write_text(manifest.read_text().replace("seed = 0", "seed = 1"))
        assert run("probe", "--checkpoints", out, "--mode", "reaction") == 1
        assert capsys.readouterr().err.startswith("error: no checkpoints of the runs in")
        assert not os.path.exists(os.path.join(out, "reaction"))

    def test_missing_checkpoints_fail(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run("probe", "--checkpoints", str(empty)) == 1
        assert capsys.readouterr().err.startswith(f"error: no manifest.ini in {empty}")
        assert list(empty.iterdir()) == []
        nope = tmp_path / "nope"
        assert run("probe", "--checkpoints", str(nope)) == 1
        assert capsys.readouterr().err == f"error: checkpoint directory not found: {nope}\n"
        assert not nope.exists()


class TestCmdReport:
    def test_empty_dir_reports_no_runs(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run("report", "--in", str(empty), "--out", str(tmp_path / "rep")) == 1
        assert capsys.readouterr().err == f"error: no runs found under {empty}\n"
        assert not (tmp_path / "rep").exists()

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

    def test_means_one_float_spacing_apart_are_charted(self, tmp_path, polyline_ys):
        # vb's mean of three 0.1s is 0.10000000000000002, so the y range of
        # tx_interrupted.svg spans one float spacing
        header = ("run_id,agent,seed,episode,sum_reward,tx_interrupted_ratio,"
                  "urllc_missed_ratio,critical_missed_ratio,epsilon_end\n")
        runs = tmp_path / "runs"
        for kind, seeds in (("eg", [0]), ("vb", [0, 1, 2])):
            (runs / kind).mkdir(parents=True)
            (runs / kind / "episodes.csv").write_text(header + "".join(
                f"{kind}-s{seed},{kind},{seed},1,{seed - 1},0.1,0,0,0\n" for seed in seeds))
        out = tmp_path / "report"
        assert run("report", "--in", str(runs), "--out", str(out)) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "rewards.svg", "summary.csv", "tx_interrupted.svg", "urllc_missed.svg"]
        # a last-bit difference is drawn as no gap: both polylines share one y
        assert len(polyline_ys((out / "tx_interrupted.svg").read_text())) == 1

    def test_markup_in_agent_names_is_escaped(self, tmp_path, tiny_config):
        import xml.etree.ElementTree as ET
        from dataclasses import replace

        from punctrl.metrics import write_csv

        runs = tmp_path / "runs"
        run("train", "--config", tiny_config, "--agent", "eg", "--seed", "0",
            "--reps", "1", "--out", str(runs / "eg"))
        episodes = runs / "eg" / "episodes.csv"
        rows = read_csv(episodes, EpisodeRow)
        write_csv([replace(r, agent="a&b<c") for r in rows], episodes, EpisodeRow)
        out = tmp_path / "report"
        assert run("report", "--in", str(runs), "--out", str(out)) == 0
        for name in ("rewards.svg", "tx_interrupted.svg", "urllc_missed.svg"):
            texts = ET.parse(out / name).iter("{http://www.w3.org/2000/svg}text")
            assert "a&b<c" in [el.text for el in texts]

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
