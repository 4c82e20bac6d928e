"""Guards on the simulator's outputs: pinned bytes, counter invariants, and
the observation encoding the manual scheduler decodes.

The digests were computed before the simulator lost its per-step objects.
Any later change to ``sim.py`` or the baseline loop has to keep these bytes.
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from punctrl.estimator import ManualScheduler
from punctrl.sim import PuncturingSim, RequestKind, SimConfig, sample_channel_gain
from punctrl.train import TrainConfig, manual_action, manual_baseline

# the baseline_manual benchmark's sim section: critical requests on 4 resources
BENCH_SIM = dict(n_resources=4, p_occupy=0.6, p_request=0.3, p_critical=0.3)

CONFIGS = {"reference": SimConfig(), "bench": SimConfig(**BENCH_SIM)}

SIM_DIGESTS = {
    "reference": "618b0e3fa1b38cc61c204ef93ee1e42abe1c111384f534838e118f6d326dc4ad",
    "bench": "11c3c136001a81a5c4bce9825510c1edd8af9b0fe9c34141669d9874ed846958",
}

BASELINE_DIGESTS = {
    "reference": "09f7cbc929703b0ccf79001672c5cad17228cd24e3f119b7e9c6b22236b44ef4",
    "bench": "34723286fd66a2958c761e3b559bf31ab59132d178d5e867eec5ef1c0b439259",
}


def sim_digest(cfg, seed, steps=20_000, episode=5_000):
    """sha256 over random-action episodes: every observation's bytes, every
    r_total as float.hex() and the counters at each episode end."""
    sim = PuncturingSim(cfg, np.random.default_rng(seed))
    actions = np.random.default_rng(seed + 1).integers(0, cfg.n_actions, steps).tolist()
    h = hashlib.sha256()
    for i, action in enumerate(actions):
        if i % episode == 0:
            h.update(repr(dataclasses.astuple(sim.counters)).encode())
            h.update(sim.reset().tobytes())
        r_total = sim.step(action)
        h.update(sim.observe().tobytes())
        h.update(r_total.hex().encode())
    h.update(repr(dataclasses.astuple(sim.counters)).encode())
    return h.hexdigest()


def baseline_digest(sim_cfg):
    """sha256 over the episode rows of a short manual baseline."""
    result = manual_baseline(TrainConfig(sim=sim_cfg, episodes=3, steps_per_episode=1000, seed=7))
    h = hashlib.sha256()
    for row in result.episodes:
        h.update(repr(dataclasses.astuple(row)).encode())
    h.update(str(result.total_steps).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_sim_bytes_pinned(name, host_numerics):
    assert sim_digest(CONFIGS[name], 2024) == SIM_DIGESTS[name], host_numerics


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_manual_baseline_rows_pinned(name, host_numerics):
    assert baseline_digest(CONFIGS[name]) == BASELINE_DIGESTS[name], host_numerics


@st.composite
def sims_and_actions(draw):
    n = draw(st.integers(1, 4))
    slots = draw(st.integers(1, 9))
    len_min = draw(st.integers(0, slots))
    cfg = SimConfig(
        n_resources=n,
        slots_per_subframe=slots,
        p_occupy=draw(st.floats(0.0, 1.0)),
        occupy_len_min=len_min,
        occupy_len_max=draw(st.integers(len_min, slots)),
        p_request=draw(st.floats(0.0, 1.0)),
        p_critical=draw(st.floats(0.0, 1.0)),
    )
    actions = draw(st.lists(st.integers(0, n), min_size=1, max_size=120))
    return cfg, draw(st.integers(0, 2**32 - 1)), actions


class TwoLoopSim(PuncturingSim):
    """Reference loop version of ``begin_subframe`` and ``step``: capacity and countdown in
    two separate loops, each config value read where it is used. It draws from the numpy
    ``Generator`` it is given, not through a ``BlockDraws`` reader."""

    def __init__(self, cfg, rng):
        super().__init__(cfg, rng)
        self.rng = rng

    def begin_subframe(self):
        cfg = self.cfg
        rng = self.rng
        for k in range(cfg.n_resources):
            if rng.random() < cfg.p_occupy:
                self.remaining[k] = int(rng.integers(cfg.occupy_len_min, cfg.occupy_len_max + 1))
                self.counters.tx_started += 1
            else:
                self.remaining[k] = 0
            self.gain[k] = sample_channel_gain(rng, cfg.rayleigh_sigma)

    def step(self, action):
        cfg = self.cfg
        if not 0 <= action <= cfg.n_resources:
            raise ValueError(f"action must be in [0, {cfg.n_resources}], got {action}")
        counters = self.counters
        remaining = self.remaining
        request = self.request
        if action > 0:
            counters.puncture_actions += 1
            if remaining[action - 1] > 0:
                counters.tx_interrupted += 1
            remaining[action - 1] = 0
            if request is not RequestKind.NONE:
                counters.scheduled += 1
                if request is RequestKind.CRITICAL:
                    counters.scheduled_critical += 1
                request = RequestKind.NONE
        r_capacity = 0.0
        for r, g in zip(remaining, self.gain):
            if r > 0:
                r_capacity += math.log1p(g)
        r_discard = 0.0
        r_discard_critical = 0.0
        if request is RequestKind.CRITICAL:
            r_discard_critical = -1.0
            counters.discarded += 1
            counters.discarded_critical += 1
            request = RequestKind.NONE
        elif request is RequestKind.NORMAL and self.slot_index == cfg.slots_per_subframe - 1:
            r_discard = -1.0
            counters.discarded += 1
            request = RequestKind.NONE
        self.request = request
        r_total = (
            cfg.w_capacity * r_capacity
            + cfg.w_discard * r_discard
            + cfg.w_discard_critical * r_discard_critical
        )
        for k, r in enumerate(remaining):
            if r > 0:
                remaining[k] = r - 1
        self.slot_index += 1
        if self.slot_index == cfg.slots_per_subframe:
            self.slot_index = 0
            self.begin_subframe()
        self.maybe_spawn_request()
        return r_total


def check_invariants(sim):
    c = sim.counters
    assert c.arrived == c.scheduled + c.discarded + (sim.request is not RequestKind.NONE)
    assert c.arrived_critical == (
        c.scheduled_critical + c.discarded_critical + (sim.request is RequestKind.CRITICAL)
    )
    assert c.tx_interrupted <= min(c.puncture_actions, c.tx_started)
    assert all(0 <= r <= sim.cfg.occupy_len_max for r in sim.remaining)
    obs = sim.observe()
    assert obs.shape == (sim.cfg.state_dim,)
    assert np.all(obs >= 0.0) and np.all(obs <= 1.0)


@settings(max_examples=150, deadline=None)
@given(case=sims_and_actions())
def test_counter_invariants_hold_after_every_step(case):
    cfg, seed, actions = case
    sim = PuncturingSim(cfg, np.random.default_rng(seed))
    sim.reset()
    check_invariants(sim)
    for action in actions:
        sim.step(action)
        check_invariants(sim)


def sim_state(sim):
    return sim.observe().tobytes(), dataclasses.astuple(sim.counters)


@settings(max_examples=150, deadline=None)
@given(case=sims_and_actions())
def test_one_pass_step_equals_two_loop_reference(case):
    # checks the one-pass step and the block draws against numpy's own draws
    cfg, seed, actions = case
    sim = PuncturingSim(cfg, np.random.default_rng(seed))
    reference = TwoLoopSim(cfg, np.random.default_rng(seed))
    assert sim.reset().tobytes() == reference.reset().tobytes()
    for action in actions:
        assert sim.step(action).hex() == reference.step(action).hex()
        assert sim_state(sim) == sim_state(reference)


@settings(max_examples=300, deadline=None)
@given(remaining=st.lists(st.integers(0, 3), min_size=1, max_size=6),
       kind=st.sampled_from(RequestKind))
def test_manual_action_equals_keyed_min(remaining, kind):
    # values in 0..3 over up to six resources, so most lists hold ties
    expected = 0 if kind is RequestKind.NONE else (
        1 + min(range(len(remaining)), key=remaining.__getitem__))
    assert manual_action(remaining, kind) == expected


def test_observation_decodes_to_the_heuristics_action():
    # manual_baseline reads the state directly; predict reads observe()
    scheduler = ManualScheduler(**BENCH_SIM)
    sim = PuncturingSim(SimConfig(**BENCH_SIM), np.random.default_rng(17))
    actions = np.random.default_rng(18).integers(0, 5, 4000).tolist()
    sim.reset()
    pending = 0
    for action in actions:
        expected = manual_action(sim.remaining, sim.request)
        assert scheduler.predict(sim.observe()[None])[0] == expected
        pending += sim.request is not RequestKind.NONE
        sim.step(action)
    # the walk posed enough requests for the decoded flags to matter
    assert pending > 500
