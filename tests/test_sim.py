import dataclasses
import math

import numpy as np
import pytest

from punctrl.sim import (
    PuncturingSim,
    RequestKind,
    SimConfig,
    SimCounters,
    decode_state,
    encode_state,
    sample_channel_gain,
)


def make_sim(seed=0, **kwargs):
    cfg = SimConfig(**kwargs)
    return PuncturingSim(cfg, np.random.default_rng(seed))


def step_with_deltas(sim, action):
    """One step; returns r_total and the counter increments it caused, by field name."""
    before = dataclasses.asdict(sim.counters)
    r_total = sim.step(action)
    after = dataclasses.asdict(sim.counters)
    return r_total, {name: after[name] - before[name] for name in before}


class FixedDraw:
    """An rng whose every ``random()`` returns ``value``."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


class TestChannelGain:
    def test_u_equal_one_gives_zero(self):
        # u = 1 - random() = 1
        assert sample_channel_gain(FixedDraw(0.0), 1.0) == 0.0

    def test_hand_inverted_quantile(self):
        # |h| = sqrt(-2 ln u) = 1 exactly at u = e^(-1/2)
        gain = sample_channel_gain(FixedDraw(1.0 - math.exp(-0.5)), 1.0)
        assert gain == pytest.approx(1.0, abs=1e-12)

    def test_u_zero_rejected(self):
        # u = 1 - random() = 0 is the log singularity
        with pytest.raises(ValueError):
            sample_channel_gain(FixedDraw(1.0), 1.0)

    def test_monte_carlo_mean_matches_analytic(self):
        # E[g] = 2 sigma^2 for a squared Rayleigh amplitude
        rng = np.random.default_rng(42)
        n = 200_000
        total = 0.0
        for _ in range(n):
            total += sample_channel_gain(rng, 1.0)
        assert total / n == pytest.approx(2.0, abs=0.02)

    def test_sigma_scaling(self):
        rng = np.random.default_rng(7)
        mean = sum(sample_channel_gain(rng, 2.0) for _ in range(50_000)) / 50_000
        assert mean == pytest.approx(8.0, rel=0.03)


class TestBeginSubframe:
    def test_p_occupy_zero_leaves_everything_free(self):
        sim = make_sim(p_occupy=0.0)
        sim.reset()
        assert all(r == 0 for r in sim.remaining)

    def test_p_occupy_one_lengths_uniform(self):
        sim = make_sim(seed=3, p_occupy=1.0, p_request=0.0)
        counts = {5: 0, 6: 0, 7: 0}
        n_subframes = 100_000
        for _ in range(n_subframes):
            sim.slot_index = 0
            sim.begin_subframe()
            for r in sim.remaining:
                counts[r] += 1
        total = sum(counts.values())
        assert total == 2 * n_subframes
        for length in (5, 6, 7):
            assert counts[length] / total == pytest.approx(1 / 3, abs=0.01)

    def test_occupancy_rate_tracks_p_occupy(self):
        sim = make_sim(seed=11, p_occupy=0.7, p_request=0.0)
        occupied = 0
        n_subframes = 100_000
        for _ in range(n_subframes):
            sim.begin_subframe()
            occupied += sum(1 for r in sim.remaining if r > 0)
        assert occupied / (2 * n_subframes) == pytest.approx(0.70, abs=0.01)

    def test_gains_redrawn_for_unoccupied_resources(self):
        sim = make_sim(seed=5, p_occupy=0.0)
        sim.begin_subframe()
        assert all(g > 0.0 for g in sim.gain)


class TestSpawnRequest:
    def test_p_request_zero_never_spawns(self):
        sim = make_sim(p_request=0.0)
        sim.reset()
        for _ in range(500):
            sim.step(0)
        assert sim.counters.arrived == 0

    def test_arrival_rate_over_free_slots(self):
        sim = make_sim(seed=13, p_request=0.1, p_critical=0.0)
        free_slots = 0
        arrivals = 0
        n = 100_000
        for _ in range(n):
            was_free = sim.request is RequestKind.NONE
            sim.maybe_spawn_request()
            if was_free:
                free_slots += 1
                if sim.request is not RequestKind.NONE:
                    arrivals += 1
            sim.request = RequestKind.NONE  # resolve immediately so slots stay free
        assert free_slots == n
        assert arrivals / free_slots == pytest.approx(0.10, abs=0.005)
        assert sim.counters.arrived_critical == 0

    def test_all_critical_when_forced(self):
        sim = make_sim(p_request=1.0, p_critical=1.0)
        for _ in range(100):
            sim.maybe_spawn_request()
            assert sim.request is RequestKind.CRITICAL
            sim.request = RequestKind.NONE

    def test_no_arrival_while_pending(self):
        sim = make_sim(p_request=1.0, p_critical=0.0)
        sim.maybe_spawn_request()
        assert sim.counters.arrived == 1
        sim.maybe_spawn_request()
        assert sim.counters.arrived == 1


class TestStep:
    def test_empty_wait_gives_zero_reward(self):
        sim = make_sim(p_occupy=0.0, p_request=0.0)
        sim.reset()
        assert sim.step(0) == 0.0
        # no transmission, request, puncture or discard happened
        assert sim.counters == SimCounters()

    def test_capacity_sum_hand_computed(self):
        sim = make_sim(p_request=0.0)
        sim.reset()
        sim.remaining = [3, 5]
        sim.gain = [1.0, math.e - 1.0]
        sim.request = RequestKind.NONE
        r_total, deltas = step_with_deltas(sim, 0)
        # no discard, so the total is the capacity term alone (w_capacity = 1)
        assert deltas["discarded"] == 0
        assert r_total == pytest.approx(math.log(2.0) + 1.0, abs=1e-12)

    def test_missed_critical_costs_weighted_penalty(self):
        # distinct discard weights: -5 can only come from the critical term
        sim = make_sim(p_occupy=0.0, p_request=0.0, w_discard=3.0)
        sim.reset()
        sim.request = RequestKind.CRITICAL
        r_total, deltas = step_with_deltas(sim, 0)
        assert r_total == -5.0
        assert deltas["discarded"] == 1 and deltas["discarded_critical"] == 1
        assert sim.request is RequestKind.NONE

    def test_puncture_voids_transmission(self):
        sim = make_sim(p_occupy=0.0, p_request=0.0)
        sim.reset()
        sim.remaining[0] = 4
        sim.gain[0] = 2.0
        sim.request = RequestKind.NORMAL
        r_total, deltas = step_with_deltas(sim, 1)
        assert deltas["tx_interrupted"] == 1
        assert deltas["scheduled"] == 1
        assert deltas["discarded"] == 0
        assert sim.remaining[0] == 0
        # voided transmission contributes nothing from the punctured slot on
        assert r_total == 0.0

    def test_puncture_without_request_still_voids(self):
        # the punctured mini-slot is wasted, but the ongoing transmission is
        # lost either way; this is what makes random puncturing costly
        sim = make_sim(p_occupy=0.0, p_request=0.0)
        sim.reset()
        sim.remaining[0] = 4
        sim.gain[0] = 2.0
        r_total, deltas = step_with_deltas(sim, 1)
        assert deltas["tx_interrupted"] == 1
        assert deltas["scheduled"] == 0
        assert deltas["discarded"] == 0 and deltas["discarded_critical"] == 0
        assert sim.remaining[0] == 0
        assert r_total == 0.0

    def test_normal_discarded_only_at_final_slot(self):
        # distinct discard weights: -3 can only come from the normal term
        sim = make_sim(p_occupy=0.0, p_request=0.0, w_discard=3.0)
        sim.reset()
        sim.request = RequestKind.NORMAL
        for slot in range(6):
            assert sim.slot_index == slot
            r_total, deltas = step_with_deltas(sim, 0)
            assert r_total == 0.0 and deltas["discarded"] == 0
        # the request set at slot 0 survived to the final slot of the sub-frame
        assert sim.slot_index == 6
        assert sim.request is RequestKind.NORMAL
        assert sim.counters.arrived == 0
        r_total, deltas = step_with_deltas(sim, 0)
        assert r_total == -3.0
        assert deltas["discarded"] == 1 and deltas["discarded_critical"] == 0

    def test_action_out_of_range_rejected(self):
        sim = make_sim()
        sim.reset()
        with pytest.raises(ValueError):
            sim.step(3)
        with pytest.raises(ValueError):
            sim.step(-1)


class TestObserve:
    def test_initial_empty_observation(self):
        sim = make_sim(p_occupy=0.0, p_request=0.0)
        obs = sim.reset()
        assert np.array_equal(obs, np.zeros(5))

    def test_final_slot_position_is_one(self):
        sim = make_sim(p_occupy=0.0, p_request=0.0)
        sim.reset()
        sim.slot_index = 6
        assert sim.observe()[0] == 1.0

    def test_full_occupation_is_one(self):
        sim = make_sim(p_occupy=0.0, p_request=0.0)
        sim.reset()
        sim.remaining[1] = 7
        obs = sim.observe()
        assert obs[4] == 1.0
        assert obs[3] == 0.0

    def test_request_flags(self):
        sim = make_sim(p_occupy=0.0, p_request=0.0)
        sim.reset()
        sim.request = RequestKind.NORMAL
        assert list(sim.observe()[1:3]) == [1.0, 0.0]
        sim.request = RequestKind.CRITICAL
        assert list(sim.observe()[1:3]) == [1.0, 1.0]

    def test_reference_run_stays_in_enumerated_states(self, every_state):
        # the premise of deduplicated prediction: observations come from a
        # small finite set, 1344 vectors at the reference config
        cfg = SimConfig()
        states = {s.tobytes() for s in every_state(cfg)}
        sim = PuncturingSim(cfg, np.random.default_rng(17))
        actions = np.random.default_rng(18)
        seen = {sim.reset().tobytes()}
        for _ in range(3000):
            sim.step(int(actions.integers(0, cfg.n_actions)))
            seen.add(sim.observe().tobytes())
        assert len(states) == 1344
        assert seen <= states
        assert len(seen) > 100

    @pytest.mark.parametrize("slots,n", [(7, 2), (1, 3), (12, 4)])
    def test_decode_reads_back_every_state(self, slots, n):
        cfg = SimConfig(n_resources=n, slots_per_subframe=slots, occupy_len_min=0,
                        occupy_len_max=slots)
        for slot in range(slots):
            for request in RequestKind:
                for remaining in ([0] * n, [slots] * n, [k % (slots + 1) for k in range(n)]):
                    s = encode_state(cfg, slot, request, remaining)
                    assert s.shape == (cfg.state_dim,)
                    assert decode_state(cfg, s) == (slot, request, remaining)


class TestTrajectoryInvariants:
    def rollout(self, seed, steps=3000):
        """Random actions; per step the next obs, r_total, the capacity the
        action left running (from the state before the step) and the
        counter increments."""
        sim = make_sim(seed=seed, p_critical=0.3)
        rng = np.random.default_rng(seed + 1)
        sim.reset()
        trace = []
        for _ in range(steps):
            action = int(rng.integers(0, 3))
            r_capacity = 0.0
            for k, (r, g) in enumerate(zip(sim.remaining, sim.gain)):
                if r > 0 and k != action - 1:
                    r_capacity += math.log1p(g)
            r_total, deltas = step_with_deltas(sim, action)
            trace.append((sim.observe(), r_total, r_capacity, deltas))
        return sim, trace

    @staticmethod
    def discard_terms(deltas):
        """(r_discard, r_discard_critical) implied by the counter increments."""
        critical = deltas["discarded_critical"]
        return -float(deltas["discarded"] - critical), -float(critical)

    def test_reward_recomposition_bit_exact(self):
        sim, trace = self.rollout(21)
        cfg = sim.cfg
        for _, r_total, r_capacity, deltas in trace:
            r_discard, r_discard_critical = self.discard_terms(deltas)
            expected = (
                cfg.w_capacity * r_capacity
                + cfg.w_discard * r_discard
                + cfg.w_discard_critical * r_discard_critical
            )
            assert r_total == expected

    def test_component_and_observation_ranges(self):
        sim, trace = self.rollout(22)
        cfg = sim.cfg
        for obs, r_total, _, deltas in trace:
            r_discard, r_discard_critical = self.discard_terms(deltas)
            assert r_discard in (-1.0, 0.0)
            assert r_discard_critical in (-1.0, 0.0)
            # what remains after the discard terms is the weighted capacity
            discard = cfg.w_discard * r_discard + cfg.w_discard_critical * r_discard_critical
            assert r_total - discard >= 0.0
            assert np.all(obs >= 0.0) and np.all(obs <= 1.0)

    def test_critical_never_survives_its_slot(self):
        # with every slot spawning a critical request, each one must be
        # resolved in its own step, so the request pending after a step is
        # always one that arrived in that step
        sim = make_sim(seed=5, p_request=1.0, p_critical=1.0)
        sim.reset()
        for _ in range(200):
            assert sim.request is RequestKind.CRITICAL
            _, deltas = step_with_deltas(sim, 0)
            assert deltas["discarded_critical"] == 1 and deltas["discarded"] == 1
            assert deltas["arrived"] == 1

    def test_normal_request_never_crosses_subframe(self):
        sim = make_sim(seed=29, p_request=0.9)
        sim.reset()
        for _ in range(5000):
            _, deltas = step_with_deltas(sim, 0)
            if sim.slot_index == 0 and sim.request is not RequestKind.NONE:
                assert deltas["arrived"] == 1

    def test_determinism_same_seed_same_trajectory(self):
        _, trace_a = self.rollout(31)
        _, trace_b = self.rollout(31)
        for (obs_a, rew_a, _, _), (obs_b, rew_b, _, _) in zip(trace_a, trace_b):
            assert np.array_equal(obs_a, obs_b)
            assert rew_a == rew_b

    def test_occupancy_lengths_decrement_from_draws(self):
        sim = make_sim(seed=37)
        sim.reset()
        seen = set()
        for _ in range(2000):
            seen.update(sim.remaining)
            sim.step(0)
        assert seen <= {0, 1, 2, 3, 4, 5, 6, 7}


class TestConfigValidation:
    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(p_occupy=1.5).validate()

    def test_bad_occupy_lengths_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(occupy_len_min=6, occupy_len_max=5).validate()
        with pytest.raises(ValueError):
            SimConfig(occupy_len_max=8).validate()

    def test_zero_resources_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(n_resources=0).validate()
