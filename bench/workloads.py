"""The three benchmark workloads, their inputs and their output checks.

Each workload is a closed loop: one caller runs the punctrl CLI (and, for
``probe_predict``, the estimator) in-process, each call waiting for the
previous one. A pass is one run through the workload's commands; every pass
gets the same inputs, so passes are comparable and their outputs must be
byte-identical. Inputs come only from the workload seed.
"""

import contextlib
import gc
import hashlib
import io
import math
import os
import shutil
import time
import xml.etree.ElementTree as ElementTree
from statistics import median

import numpy as np

import punctrl.cli
from punctrl import DqnScheduler
from punctrl.config import load_config
from punctrl.metrics import EpisodeRow, ProbeRow, SummaryRow, read_csv
from punctrl.net import forward, split_gaussian
from punctrl.train import load_checkpoint, make_probe_state, save_checkpoint

AGENTS = ("eg", "vb", "me")
CHARTS = ("rewards.svg", "tx_interrupted.svg", "urllc_missed.svg")


class Ops:
    """Counts attempted and failed operations: CLI calls, predict calls and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, what: str) -> None:
        self.failed += 1
        self.errors.append(what)

    def cli(self, argv) -> float:
        """Run one punctrl command; returns its wall time in seconds."""
        self.attempted += 1
        err = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = punctrl.cli.main(argv)
        except Exception as exc:  # a crash counts as a failed operation, the run goes on
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if code != 0:
            self.fail(f"punctrl {' '.join(argv)} -> {code} {err.getvalue().strip()}")
        return elapsed

    def check(self, what: str, predicate) -> None:
        """One output check; ``predicate`` returns truth, or raises when the output is broken."""
        self.attempted += 1
        try:
            ok = bool(predicate())
        except Exception as exc:  # an unreadable output fails the check
            ok = False
            what = f"{what}: {type(exc).__name__}: {exc}"
        if not ok:
            self.fail(what)


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _write_config(path, sections: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for section, keys in sections.items():
            fh.write(f"[{section}]\n")
            for key, value in keys.items():
                fh.write(f"{key} = {value}\n")


def _episode_rows_ok(rows, count) -> bool:
    ratios = ("tx_interrupted_ratio", "urllc_missed_ratio", "critical_missed_ratio", "epsilon_end")
    return len(rows) == count and all(
        math.isfinite(r.sum_reward) and all(0.0 <= getattr(r, name) <= 1.0 for name in ratios)
        for r in rows
    )


class TrainRef:
    """`punctrl train` for eg, then vb, then me at the reference sim and net config."""

    name = "train_ref"
    must_hit = (
        "net.forward_cached", "net.forward", "net.backward", "net.Adam.step",
        "net.TargetPair.polyak_update", "net.NetworkParams.init", "agents.select_action",
        "agents.td_components", "agents.loss_eg", "agents.loss_vb", "agents.loss_me",
        "sim.PuncturingSim.step", "sim.PuncturingSim.reset", "train.train",
        "train.save_checkpoint", "metrics.write_csv", "config.write_manifest",
        "config.load_config", "seeding.substream", "cli.cmd_train",
    )
    must_not_hit = ()

    def __init__(self, work, seed, toy):
        self.work = work
        self.seed = seed
        # one episode per command keeps passes short, so a median over many
        # passes filters out the slow phases of a shared machine
        self.episodes = 1
        self.steps = 40 if toy else 3000
        self.config = os.path.join(work, "train_ref.ini")

    def prepare(self, ops) -> None:
        _write_config(self.config, {
            "train": {"episodes": self.episodes, "steps_per_episode": self.steps},
            "run": {"jobs": 1},
        })

    def setup_args(self) -> list:
        return ["train", self.config, str(self.seed)]

    def run(self, ops, out) -> dict:
        per_agent = {}
        for kind in AGENTS:
            per_agent[kind] = ops.cli([
                "train", "--config", self.config, "--agent", kind, "--seed", str(self.seed),
                "--reps", "1", "--jobs", "1", "--checkpoint-every", "1",
                "--out", os.path.join(out, kind),
            ])
        steps = self.episodes * self.steps
        return {
            "wall": sum(per_agent.values()),
            "steps": steps * len(AGENTS),
            "agent_rates": {kind: steps / t for kind, t in per_agent.items()},
        }

    def check(self, ops, out) -> dict:
        hashes = {}
        for kind in AGENTS:
            run_dir = os.path.join(out, kind)
            episodes = os.path.join(run_dir, "episodes.csv")
            manifest = os.path.join(run_dir, "manifest.ini")
            # with one episode, --checkpoint-every 1 writes the final checkpoint only
            ckpt = f"checkpoints/{kind}-s{self.seed}_final.ckpt"
            ckpt_path = os.path.join(run_dir, ckpt)
            ops.check(f"{kind} episodes.csv has {self.episodes} sound rows",
                      lambda: _episode_rows_ok(read_csv(episodes, EpisodeRow), self.episodes))
            ops.check(f"{kind} manifest.ini reloads",
                      lambda: load_config(manifest).agent.kind == kind)
            ops.check(f"{ckpt} reloads as {kind} at step {self.steps}",
                      lambda: load_checkpoint(ckpt_path)[1:] == (kind, self.steps))
            for rel, path in (("episodes.csv", episodes), (ckpt, ckpt_path)):
                if os.path.exists(path):
                    hashes[f"{kind}/{rel}"] = sha256(path)
        return hashes


class BaselineManual:
    """`punctrl baseline` on a sim config where the manual policy reaches every branch it can."""

    name = "baseline_manual"
    must_hit = (
        "sim.PuncturingSim.step", "sim.PuncturingSim.reset", "train.manual_baseline",
        "train.manual_action", "metrics.write_csv", "config.write_manifest",
        "config.load_config", "cli.cmd_baseline",
    )
    must_not_hit = ("net.", "agents.")

    def __init__(self, work, seed, toy):
        self.work = work
        self.seed = seed
        self.episodes = 2 if toy else 30
        self.steps = 200 if toy else 3000
        self.config = os.path.join(work, "baseline_manual.ini")

    def prepare(self, ops) -> None:
        # more resources, more and critical requests: the reference config
        # never poses a critical request and leaves resources mostly busy
        _write_config(self.config, {
            "sim": {"n_resources": 4, "p_occupy": 0.6, "p_request": 0.3, "p_critical": 0.3},
            "train": {"steps_per_episode": self.steps},
        })

    def setup_args(self) -> list:
        return ["baseline", self.config, str(self.seed)]

    def run(self, ops, out) -> dict:
        wall = ops.cli([
            "baseline", "--config", self.config, "--seed", str(self.seed),
            "--episodes", str(self.episodes), "--out", out,
        ])
        return {"wall": wall, "steps": self.episodes * self.steps}

    def check(self, ops, out) -> dict:
        episodes = os.path.join(out, "episodes.csv")

        def rows_ok():
            rows = read_csv(episodes, EpisodeRow)
            # the manual heuristic schedules every request at once, so none is missed
            return _episode_rows_ok(rows, self.episodes) and all(
                r.urllc_missed_ratio == 0.0 for r in rows
            )

        ops.check("manual episodes.csv sound, no URLLC request missed", rows_ok)
        return {"manual/episodes.csv": sha256(episodes)} if os.path.exists(episodes) else {}


class ProbePredict:
    """Probes on fixture checkpoints, `DqnScheduler.predict` on a state grid, `report`."""

    name = "probe_predict"
    must_hit = (
        "net.forward_cached", "net.forward", "net.backward", "net.Adam.step",
        "net.TargetPair.polyak_update", "agents.select_action", "agents.td_components",
        "agents.loss_eg", "agents.loss_vb", "agents.loss_me", "train.probe_adaptation",
        "train.probe_reaction", "train.load_checkpoint", "estimator.DqnScheduler.predict",
        "metrics.read_csv", "metrics.write_csv", "metrics.aggregate_episodes",
        "metrics.aggregate_probes", "svgchart.emit_linechart", "config.load_config",
        "seeding.substream", "cli.cmd_probe", "cli.cmd_report",
    )
    must_not_hit = ()

    def __init__(self, work, seed, toy):
        self.work = work
        self.seed = seed
        self.fixture_steps = 30 if toy else 300
        self.reps = 2 if toy else 10
        self.cap = 5 if toy else 100
        self.rows = 300 if toy else 50000
        self.tree = os.path.join(work, "fixture")

    def prepare(self, ops) -> None:
        """Fixture run tree and fitted scheduler; built once, not timed."""
        config = os.path.join(self.work, "fixture.ini")
        _write_config(config, {"train": {"episodes": 2, "steps_per_episode": self.fixture_steps}})
        for kind in AGENTS:
            run_dir = os.path.join(self.tree, kind)
            ops.cli(["train", "--config", config, "--agent", kind, "--seed", str(self.seed),
                     "--checkpoint-every", "1", "--out", run_dir])
            os.makedirs(os.path.join(run_dir, "reaction"), exist_ok=True)
            final = os.path.join(run_dir, "checkpoints", f"{kind}-s{self.seed}_final.ckpt")
            _commit_to_waiting(final, load_config(os.path.join(run_dir, "manifest.ini")).sim)
        ops.cli(["baseline", "--config", config, "--seed", str(self.seed),
                 "--out", os.path.join(self.tree, "manual")])
        self.scheduler = DqnScheduler(agent="vb", episodes=1,
                                      steps_per_episode=self.fixture_steps, seed=self.seed).fit()
        self.grid = _state_grid(np.random.default_rng(self.seed), self.rows,
                                self.scheduler.n_resources, self.scheduler.slots_per_subframe)

    def setup_args(self) -> list:
        run_dir = os.path.join(self.tree, "eg")
        return ["probe", os.path.join(run_dir, "manifest.ini"),
                os.path.join(run_dir, "checkpoints", f"eg-s{self.seed}_final.ckpt")]

    def _probe_paths(self, kind):
        run_dir = os.path.join(self.tree, kind)
        return run_dir, os.path.join(run_dir, "probes.csv"), os.path.join(
            run_dir, "reaction", "probes.csv")

    def run(self, ops, out) -> dict:
        adapt = reaction = 0.0
        for kind in AGENTS:
            run_dir, adapt_csv, reaction_csv = self._probe_paths(kind)
            for stale in (adapt_csv, reaction_csv):
                if os.path.exists(stale):
                    os.remove(stale)
            adapt += ops.cli(["probe", "--checkpoints", run_dir, "--mode", "adapt",
                              "--reps", str(self.reps), "--cap", str(self.cap),
                              "--seed", str(self.seed), "--out", adapt_csv])
            reaction += ops.cli(["probe", "--checkpoints", run_dir, "--mode", "reaction",
                                 "--out", reaction_csv])
        ops.attempted += 1
        t0 = time.perf_counter()
        try:
            self.actions = self.scheduler.predict(self.grid)
        except Exception as exc:  # counted as a failed operation
            self.actions = None
            ops.fail(f"DqnScheduler.predict: {type(exc).__name__}: {exc}")
        predict = time.perf_counter() - t0
        report = ops.cli(["report", "--in", self.tree, "--out", os.path.join(out, "report")])
        return {
            "wall": adapt + reaction + predict + report,
            "steps": self._confrontations(),
            "steps_wall": adapt,
            "predict_rows_per_s": self.rows / predict,
        }

    def _confrontations(self) -> int:
        total = 0
        for kind in AGENTS:
            _, adapt_csv, _ = self._probe_paths(kind)
            if os.path.exists(adapt_csv):
                total += sum(r.steps_until_explore or 0 for r in read_csv(adapt_csv, ProbeRow))
        return total

    def check(self, ops, out) -> dict:
        hashes = {}
        for kind in AGENTS:
            _, adapt_csv, reaction_csv = self._probe_paths(kind)
            ops.check(f"{kind} adapt probe: {self.reps} rows, steps in [1, {self.cap}]",
                      lambda: _adapt_rows_ok(read_csv(adapt_csv, ProbeRow), self.reps, self.cap))
            ops.check(f"{kind} reaction probe: one row", lambda: len(
                read_csv(reaction_csv, ProbeRow)) == 1)
            for label, path in (("probes.csv", adapt_csv), ("reaction/probes.csv", reaction_csv)):
                if os.path.exists(path):
                    hashes[f"{kind}/{label}"] = sha256(path)
        n_check = min(self.rows, 2000)

        def predict_ok():
            values = self.scheduler.decision_function(self.grid[:n_check])
            return self.actions is not None and np.array_equal(
                self.actions[:n_check], np.argmax(values, axis=1))

        ops.check("predict equals the argmax of decision_function", predict_ok)
        if self.actions is not None:
            hashes["predict/actions"] = hashlib.sha256(
                np.ascontiguousarray(self.actions, dtype="<i8").tobytes()).hexdigest()
        report = os.path.join(out, "report")
        ops.check("summary.csv reads back",
                  lambda: len(read_csv(os.path.join(report, "summary.csv"), SummaryRow)) > 0)
        for name in CHARTS:
            ops.check(f"{name} parses as SVG", lambda: ElementTree.parse(
                os.path.join(report, name)).getroot().tag.endswith("svg"))
        if os.path.exists(os.path.join(report, "summary.csv")):
            hashes["report/summary.csv"] = sha256(os.path.join(report, "summary.csv"))
        return hashes


def _adapt_rows_ok(rows, reps, cap) -> bool:
    return len(rows) == reps and all(1 <= r.steps_until_explore <= cap for r in rows)


def _commit_to_waiting(path, sim_cfg) -> None:
    """Shift a checkpoint's output biases so it waits on the probe state by a wide margin.

    A briefly trained network explores the probe event after 1 to 100
    confrontations depending on the seed. Committed to waiting, every
    adaptation repetition runs to the cap, so a pass does the same number
    of learn steps for every workload seed.
    """
    params, kind, step_count = load_checkpoint(path)
    n_actions = sim_cfg.n_actions
    out = forward(params, make_probe_state(sim_cfg))
    bias = params.biases[-1]
    if kind == "eg":
        q = out
    else:
        q, log_sigma = split_gaussian(out)
        bias[n_actions:] -= log_sigma + 4.0  # sigma near 0.02 on the probe state
    bias[0] += np.max(q[1:]) - q[0] + 10.0
    save_checkpoint(path, params, kind, step_count)


def _state_grid(rng, n, n_resources, slots) -> np.ndarray:
    """Valid observations: slot position, request flags, relative occupations."""
    grid = np.empty((n, 3 + n_resources))
    grid[:, 0] = rng.integers(0, slots, n) / max(slots - 1, 1)
    grid[:, 1] = rng.integers(0, 2, n)
    grid[:, 2] = grid[:, 1] * rng.integers(0, 2, n)
    grid[:, 3:] = rng.integers(0, slots + 1, (n, n_resources)) / slots
    return grid


WORKLOADS = {w.name: w for w in (TrainRef, BaselineManual, ProbePredict)}


def run_passes(workload, ops, seconds, tracer=None, between=None) -> tuple[list, dict]:
    """Run passes until the next one would end past ``seconds``.

    With a tracer, passes alternate untraced and traced, starting untraced,
    and at least one of each runs. ``between`` runs after every pass.
    Returns the per-pass results (each tagged ``traced``) and the output
    hashes of the first pass.
    """
    min_passes = 2 if tracer else 1
    start = time.perf_counter()
    passes, first_hashes = [], None
    while True:
        gc.collect()  # leave no garbage of the previous pass to this one
        pass_start = time.perf_counter()
        traced = tracer is not None and len(passes) % 2 == 1
        out = os.path.join(workload.work, "out")
        os.makedirs(out)
        if traced:
            tracer.install()
        try:
            result = workload.run(ops, out)
        finally:
            if traced:
                tracer.remove()
        result["traced"] = traced
        passes.append(result)
        hashes = workload.check(ops, out)
        if first_hashes is None:
            first_hashes = hashes
        else:
            ops.check("outputs byte-identical to the first pass", lambda: hashes == first_hashes)
        shutil.rmtree(out)
        if between is not None:
            between()
        now = time.perf_counter()
        result["pass_s"] = now - pass_start
        if len(passes) >= min_passes and now - start + median(
                p["pass_s"] for p in passes) > seconds:
            return passes, first_hashes
