"""End-to-end acceptance checks at the reference experiment scale.

Each criterion prints one PASS/FAIL line (visible regardless of pytest's
capture settings). The expensive part, nine full training runs, happens
once per session and is shared by every criterion that needs trained
networks.
"""

import sys
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import numpy as np
import pytest

from punctrl.agents import (
    EG,
    ME,
    VB,
    AgentSpec,
    Transition,
)
from punctrl.cli import main as cli_main
from punctrl.net import (
    ForwardCache,
    NetworkParams,
    forward,
    forward_cached,
    read_head,
    reparameterize,
)
from punctrl.seeding import substream
from punctrl.sim import PuncturingSim, RequestKind, SimConfig
from punctrl.train import (
    ADAPTATION_CAP,
    TrainConfig,
    loss_and_grads,
    loss_and_output_grad,
    make_probe_state,
    manual_baseline,
    probe_adaptation,
    probe_reaction,
    train,
)

AGENTS = (EG, VB, ME)
SEEDS = (0, 1, 2)
ADAPT_REPS = 10
CAP = 10000

REPORT_LINES = []


def report(criterion: int, passed: bool, detail: str) -> None:
    line = f"ACCEPTANCE {criterion} {'PASS' if passed else 'FAIL'}: {detail}"
    REPORT_LINES.append(line)
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()


def _train_one(task):
    kind, seed = task
    cfg = TrainConfig(agent=AgentSpec(kind=kind), episodes=30, steps_per_episode=3000, seed=seed)
    start = time.perf_counter()
    result = train(cfg)
    return kind, seed, result, time.perf_counter() - start


@pytest.fixture(scope="session")
def trained():
    """3 seeds x 3 agents at the reference scale; trained once per session."""
    tasks = [(kind, seed) for kind in AGENTS for seed in SEEDS]
    runs = {kind: [] for kind in AGENTS}
    durations = []
    # spawn, not fork: numpy's BLAS may already have started threads
    with ProcessPoolExecutor(max_workers=2, mp_context=get_context("spawn")) as pool:
        for kind, _, result, duration in pool.map(_train_one, tasks):
            runs[kind].append(result)
            durations.append(duration)
    return runs, durations


@pytest.fixture(scope="session")
def baseline():
    return manual_baseline(TrainConfig(episodes=30, steps_per_episode=3000, seed=0))


class TestCriterion1AdaptationOrdering:
    def test_steps_until_exploring(self, trained):
        runs, _ = trained
        means = {}
        capped = {}
        for kind in AGENTS:
            cfg = TrainConfig(agent=AgentSpec(kind=kind))
            steps = []
            for result in runs[kind]:
                # the eg head makes no random choice at epsilon 0: rep 0's count
                # holds for every rep, cross-checked on one other substream
                reps = (0, ADAPT_REPS - 1) if kind == EG else range(ADAPT_REPS)
                counts = [
                    probe_adaptation(result.final_params, cfg,
                                     substream(0, f"probe/{result.run_id}/{rep}"), cap=CAP)
                    for rep in reps
                ]
                if kind == EG:
                    assert counts[0] == counts[1], f"eg probe depends on its rng: {counts}"
                    counts = counts[:1] * ADAPT_REPS
                steps.extend(counts)
            means[kind] = float(np.mean(steps))
            capped[kind] = sum(1 for s in steps if s == CAP) / len(steps)
        eg_slow = means[EG] >= 1500 or capped[EG] >= 0.5
        passed = (
            means[ME] < means[VB] < means[EG]
            and means[ME] <= 200
            and means[VB] <= 1000
            and eg_slow
        )
        report(
            1,
            passed,
            f"steps until exploring: me {means[ME]:.1f} < vb {means[VB]:.1f} < "
            f"eg {means[EG]:.1f} (eg capped {capped[EG]:.0%})",
        )
        assert means[ME] < means[VB] < means[EG]
        assert means[ME] <= 200
        assert means[VB] <= 1000
        assert eg_slow

    def test_first_confrontation_explorer_counts_one(self):
        params = NetworkParams.zeros(5, (4,), 6)
        params.biases[-1][:] = [0.0, 1.0, 0.0, -30.0, -30.0, -30.0]
        cfg = TrainConfig(agent=AgentSpec(kind=VB))
        assert probe_adaptation(params, cfg, np.random.default_rng(0), cap=ADAPTATION_CAP) == 1


class TestCriterion2TrainingCurves:
    def first_crossing(self, runs, threshold):
        by_episode = np.mean([[row.sum_reward for row in r.episodes] for r in runs], axis=0)
        for episode, value in enumerate(by_episode, start=1):
            if value >= threshold:
                return episode
        return None

    def test_curve_shape(self, trained, baseline):
        runs, _ = trained
        base_mean = float(np.mean([row.sum_reward for row in baseline.episodes]))
        threshold = 0.95 * base_mean
        first = {kind: self.first_crossing(runs[kind], threshold) for kind in AGENTS}
        vb_fast = first[VB] is not None and first[VB] <= 5
        me_fast = first[ME] is not None and first[ME] <= 5
        eg_slow = first[EG] is None or first[EG] >= 10
        passed = vb_fast and me_fast and eg_slow
        report(
            2,
            passed,
            f"95%-of-baseline first reached: vb ep{first[VB]}, me ep{first[ME]}, "
            f"eg ep{first[EG]} (baseline mean {base_mean:.0f})",
        )
        assert vb_fast, f"vb first crossing {first[VB]} not within 5 episodes"
        assert me_fast, f"me first crossing {first[ME]} not within 5 episodes"
        assert eg_slow, f"eg first crossing {first[EG]} earlier than episode 10"


class TestCriterion3ProbePreference:
    def test_probe_reaction_ordering(self, trained):
        runs, _ = trained
        sim_cfg = SimConfig()
        argmax_ok = True
        excess = {}
        for kind in AGENTS:
            spec = AgentSpec(kind=kind)
            cfg = TrainConfig(agent=spec, sim=sim_cfg)
            values = []
            for result in runs[kind]:
                outcome = probe_reaction(result.final_params, cfg, result.run_id)
                q = read_head(spec.head_mode, forward(result.final_params,
                                                      make_probe_state(sim_cfg)))[0]
                argmax_ok = argmax_ok and q.argmax() == 0
                # preference excess over indifference, in percent
                values.append((outcome.md - 1.0) * 100.0 if outcome.md is not None else np.nan)
            excess[kind] = float(np.mean(values))
        ordering = excess[EG] >= 10.0 * excess[VB] and excess[VB] >= excess[ME] >= 1.0
        report(
            3,
            argmax_ok and ordering,
            f"argmax all wait: {argmax_ok}; preference excess %: eg {excess[EG]:.1f}, "
            f"vb {excess[VB]:.1f}, me {excess[ME]:.1f}",
        )
        assert argmax_ok, "a trained snapshot prefers puncturing on the probe state"
        assert excess[EG] >= 10.0 * excess[VB], (
            f"eg excess {excess[EG]:.2f}% not 10x vb excess {excess[VB]:.2f}%"
        )
        assert excess[VB] >= excess[ME] >= 1.0, (
            f"vb {excess[VB]:.2f}% >= me {excess[ME]:.2f}% >= 1% violated"
        )


class TestCriterion4GradientOracle:
    def loss_grads(self, params, target_params, tr, spec, noise):
        """Loss and parameter gradients of one transition, as a training step computes them."""
        head_out, cache = forward_cached(params, tr.s, ForwardCache(params))
        grads = params.zeros_like()
        loss = loss_and_grads(spec, params, target_params, head_out, cache, noise, tr, grads)
        return loss, grads

    def fd_grads(self, params, target_params, tr, spec, noise, h=1e-5):
        grads = params.zeros_like()
        flat_p = params.flat
        flat_g = grads.flat
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + h
            hi, _ = self.loss_grads(params, target_params, tr, spec, noise)
            flat_p[i] = orig - h
            lo, _ = self.loss_grads(params, target_params, tr, spec, noise)
            flat_p[i] = orig
            flat_g[i] = (hi - lo) / (2 * h)
        return grads

    def test_hundred_networks_all_losses(self):
        rng = np.random.default_rng(2024)
        checked = 0
        worst = 0.0
        for net_index in range(100):
            kind = AGENTS[net_index % 3]
            spec = AgentSpec(kind=kind)
            n_actions = 3
            out_dim = n_actions if kind == EG else 2 * n_actions
            params = NetworkParams.init(4, (3,), out_dim, rng)
            target_params = NetworkParams.init(4, (3,), out_dim, rng)
            noise = rng.standard_normal(n_actions) if kind != EG else None
            tr = Transition(
                rng.standard_normal(4),
                int(rng.integers(0, n_actions)),
                float(rng.standard_normal()),
                rng.standard_normal(4),
            )
            _, analytic = self.loss_grads(params, target_params, tr, spec, noise)
            numeric = self.fd_grads(params, target_params, tr, spec, noise)
            gap = np.abs(analytic.flat - numeric.flat)
            assert np.all(gap <= 1e-4 * np.abs(numeric.flat) + 1e-7), (
                f"gradient mismatch on net {net_index} ({kind})"
            )
            big = np.abs(numeric.flat) > 1e-4
            if big.any():
                worst = max(worst, float((gap[big] / np.abs(numeric.flat[big])).max()))
            checked += 1
        report(4, True, f"{checked} nets x 3 loss kinds, worst relative error {worst:.2e}")


class TestCriterion5DistributionOracles:
    def test_channel_gain_mean(self):
        cfg = SimConfig()
        sim = PuncturingSim(cfg, np.random.default_rng(7))
        total, count = 0.0, 0
        for _ in range(100_000):
            sim.begin_subframe()
            for gain in sim.gain:
                total += gain
                count += 1
        mean = total / count
        ok = 1.9 <= mean <= 2.1
        report(5, ok, f"gain mean {mean:.4f} in [1.9, 2.1]")
        assert ok

    def test_occupancy_rate(self):
        cfg = SimConfig(p_occupy=0.7)
        sim = PuncturingSim(cfg, np.random.default_rng(8))
        occupied = 0
        n = 100_000
        for _ in range(n):
            sim.begin_subframe()
            occupied += sum(1 for r in sim.remaining if r > 0)
        rate = occupied / (2 * n)
        assert abs(rate - 0.7) <= 0.01, f"occupancy rate {rate:.4f}"

    def test_request_arrival_rate(self):
        cfg = SimConfig(p_request=0.1, p_critical=0.0)
        sim = PuncturingSim(cfg, np.random.default_rng(9))
        arrivals = 0
        n = 100_000
        for _ in range(n):
            sim.maybe_spawn_request()
            if sim.request is not RequestKind.NONE:
                arrivals += 1
            sim.request = RequestKind.NONE
        rate = arrivals / n
        assert abs(rate - 0.1) <= 0.005, f"arrival rate {rate:.4f}"


class TestCriterion6VbReduction:
    def test_log_sigma_gradient_is_minus_weight(self):
        spec = AgentSpec(kind=VB)
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(100):
            mu = rng.standard_normal(3) * 3.0
            log_sigma = rng.standard_normal(3)
            noise = rng.standard_normal(3)
            q = reparameterize(mu, log_sigma, noise)
            action = int(rng.integers(0, 3))
            # zero TD error isolates the density term
            tr = Transition(None, action, float(q[action]), None)
            head_out = np.concatenate([mu, log_sigma])
            _, grad_out = loss_and_output_grad(spec, head_out, noise, tr, np.zeros(3))
            grad_mu, grad_ls = grad_out[:3], grad_out[3:]
            worst = max(worst, float(np.max(np.abs(grad_ls + spec.w_lp))))
            worst = max(worst, float(np.max(np.abs(grad_mu))))
            assert np.allclose(grad_ls, -spec.w_lp, atol=1e-10)
            assert np.allclose(grad_mu, 0.0, atol=1e-10)
        report(6, True, f"density gradient reduces to -w_lp, worst deviation {worst:.2e}")


class TestCriterion7MePenaltyMinimizer:
    def test_descent_reaches_uniform(self, softmax_clipped):
        spec = AgentSpec(kind=ME, w_me=1.0)
        rng = np.random.default_rng(12)
        log_sigma = np.full(3, -40.0)
        noise = np.zeros(3)
        tr = Transition(None, 0, 0.0, None)
        worst = 0.0
        for _ in range(100):
            mu = rng.standard_normal(3)
            for _ in range(1500):
                # penalty-only gradient: zero TD error, degenerate variance
                tr.r = float(mu[0])
                head_out = np.concatenate([mu, log_sigma])
                _, grad_out = loss_and_output_grad(spec, head_out, noise, tr, np.zeros(3))
                mu = mu - 0.05 * grad_out[:3]
            sm = softmax_clipped(mu, spec.softmax_clip_low)
            worst = max(worst, float(np.max(np.abs(sm - 1.0 / 3.0))))
            assert np.all(np.abs(sm - 1.0 / 3.0) <= 1e-3)
        report(7, True, f"100 random starts converge to uniform, worst gap {worst:.2e}")


class TestCriterion8CliDeterminism:
    CONFIG = """
[train]
episodes = 2
steps_per_episode = 600
"""

    def test_byte_identical_episodes(self, tmp_path):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(self.CONFIG)
        digests = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            code = cli_main(
                ["train", "--config", str(cfg_path), "--agent", "vb", "--seed", "123",
                 "--reps", "2", "--out", str(out)]
            )
            assert code == 0
            digests.append((out / "episodes.csv").read_bytes())
        ok = digests[0] == digests[1]
        report(8, ok, f"episodes.csv identical across reruns ({len(digests[0])} bytes)")
        assert ok


class TestCriterion9RuntimeBudget:
    def test_single_run_within_budget(self, trained):
        _, durations = trained
        slowest = max(durations)
        ok = slowest <= 300.0
        report(9, ok, f"slowest full training run {slowest:.0f}s <= 300s")
        assert ok
