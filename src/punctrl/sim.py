"""Mini-slot puncturing environment.

Time advances in mini-slots, seven per sub-frame, over N orthogonal
resources. At every sub-frame start the surrounding protocol occupies each
resource with probability ``p_occupy`` for a uniform 5..7 mini-slots and
redraws a Rayleigh-squared power gain per resource. Each mini-slot may pose
a URLLC puncturing request: a normal one must be served within its
sub-frame, a critical one within its arrival slot, or it is discarded. The
agent either waits or punctures one resource; puncturing schedules the
pending request there and voids whatever transmission was still running on
that resource.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .validation import check_count, check_finite, check_positive, check_probability


class RequestKind(enum.Enum):
    NONE = "none"
    NORMAL = "normal"
    CRITICAL = "critical"


@dataclass
class SimConfig:
    """Environment parameters. Defaults follow the reference setup."""

    n_resources: int = 2
    slots_per_subframe: int = 7
    p_occupy: float = 0.7
    occupy_len_min: int = 5
    occupy_len_max: int = 7
    p_request: float = 0.1
    p_critical: float = 0.0
    rayleigh_sigma: float = 1.0
    w_capacity: float = 1.0
    w_discard: float = 5.0
    w_discard_critical: float = 5.0

    def validate(self) -> "SimConfig":
        check_count("n_resources", self.n_resources, minimum=1)
        check_count("slots_per_subframe", self.slots_per_subframe, minimum=1)
        check_probability("p_occupy", self.p_occupy)
        check_probability("p_request", self.p_request)
        check_probability("p_critical", self.p_critical)
        check_count("occupy_len_min", self.occupy_len_min, minimum=0)
        if not self.occupy_len_min <= self.occupy_len_max <= self.slots_per_subframe:
            raise ValueError(
                "occupy_len_max must lie in [occupy_len_min, slots_per_subframe] = "
                f"[{self.occupy_len_min}, {self.slots_per_subframe}], got {self.occupy_len_max}"
            )
        check_positive("rayleigh_sigma", self.rayleigh_sigma)
        for name in ("w_capacity", "w_discard", "w_discard_critical"):
            check_finite(name, getattr(self, name))
        return self

    @property
    def n_actions(self) -> int:
        return self.n_resources + 1

    @property
    def state_dim(self) -> int:
        return 3 + self.n_resources


@dataclass
class ResourceState:
    remaining_slots: int = 0
    gain: float = 0.0


@dataclass
class RequestState:
    kind: RequestKind = RequestKind.NONE
    age_slots: int = 0

    @property
    def pending(self) -> bool:
        return self.kind is not RequestKind.NONE


@dataclass(frozen=True)
class RewardBreakdown:
    """Per-slot reward components and their weighted sum."""

    r_capacity: float
    r_discard: float
    r_discard_critical: float
    r_total: float


@dataclass
class EventFlags:
    tx_interrupted: bool = False
    request_scheduled: bool = False
    request_discarded: bool = False


@dataclass
class SimCounters:
    """Cumulative event counts since the last reset."""

    tx_started: int = 0
    tx_interrupted: int = 0
    puncture_actions: int = 0
    arrived: int = 0
    arrived_critical: int = 0
    scheduled: int = 0
    scheduled_critical: int = 0
    discarded: int = 0
    discarded_critical: int = 0


def gain_from_uniform(u: float, sigma: float = 1.0) -> float:
    """Rayleigh-squared power gain by inverse transform: g = sigma^2 * (-2 ln u).

    The amplitude sigma*sqrt(-2 ln u) is Rayleigh(sigma) for u uniform on
    (0, 1]; its square is the power gain, with mean 2*sigma^2.
    """
    if not 0.0 < u <= 1.0:
        raise ValueError(f"u must lie in (0, 1], got {u}")
    return -2.0 * math.log(u) * sigma * sigma


def sample_channel_gain(rng: np.random.Generator, sigma: float = 1.0) -> float:
    # 1 - random() lies in (0, 1], excluding the log singularity at 0
    return gain_from_uniform(1.0 - rng.random(), sigma)


class PuncturingSim:
    """Sequential mini-slot scheduler environment.

    The action space is {0 = wait, 1..N = puncture resource}. A puncture
    always voids whatever transmission is still running on that resource;
    the pending request, if any, is scheduled into the punctured mini-slot,
    otherwise the slot is simply wasted. A single request can be
    outstanding at a time; further arrivals are suppressed until it
    resolves.
    """

    def __init__(self, cfg: SimConfig, rng: np.random.Generator):
        self.cfg = cfg.validate()
        self.rng = rng
        self.slot_index = 0
        self.subframe_index = 0
        self.resources = [ResourceState() for _ in range(cfg.n_resources)]
        self.request = RequestState()
        self.counters = SimCounters()

    def reset(self) -> np.ndarray:
        """Start a fresh episode; the random stream continues uninterrupted."""
        self.slot_index = 0
        self.subframe_index = 0
        self.resources = [ResourceState() for _ in range(self.cfg.n_resources)]
        self.request = RequestState()
        self.counters = SimCounters()
        self.begin_subframe()
        self.maybe_spawn_request()
        return self.observe()

    def begin_subframe(self) -> None:
        """Draw fresh occupancy and channel gains; call with slot_index wrapped to 0."""
        cfg = self.cfg
        for res in self.resources:
            if self.rng.random() < cfg.p_occupy:
                res.remaining_slots = int(
                    self.rng.integers(cfg.occupy_len_min, cfg.occupy_len_max + 1)
                )
                self.counters.tx_started += 1
            else:
                res.remaining_slots = 0
            res.gain = sample_channel_gain(self.rng, cfg.rayleigh_sigma)

    def maybe_spawn_request(self) -> None:
        """Possibly pose a new request; suppressed while one is outstanding."""
        if self.request.pending:
            return
        if self.rng.random() < self.cfg.p_request:
            critical = self.rng.random() < self.cfg.p_critical
            kind = RequestKind.CRITICAL if critical else RequestKind.NORMAL
            self.request = RequestState(kind=kind, age_slots=0)
            self.counters.arrived += 1
            if critical:
                self.counters.arrived_critical += 1

    def observe(self) -> np.ndarray:
        """State vector (slot position, request flags, relative occupations), all in [0, 1]."""
        cfg = self.cfg
        obs = np.empty(cfg.state_dim)
        denom = max(cfg.slots_per_subframe - 1, 1)
        obs[0] = self.slot_index / denom
        obs[1] = 1.0 if self.request.pending else 0.0
        obs[2] = 1.0 if self.request.kind is RequestKind.CRITICAL else 0.0
        for k, res in enumerate(self.resources):
            obs[3 + k] = res.remaining_slots / cfg.slots_per_subframe
        return obs

    def step(self, action: int) -> tuple[np.ndarray, RewardBreakdown, EventFlags]:
        """Apply one action at the current mini-slot and advance time.

        Returns the next observation (new occupancy/requests already drawn),
        the reward breakdown of the slot just played, and event flags.
        """
        cfg = self.cfg
        if not 0 <= action <= cfg.n_resources:
            raise ValueError(f"action must be in [0, {cfg.n_resources}], got {action}")
        flags = EventFlags()
        counters = self.counters

        if action > 0:
            counters.puncture_actions += 1
            res = self.resources[action - 1]
            if res.remaining_slots > 0:
                flags.tx_interrupted = True
                counters.tx_interrupted += 1
            # the rest of the transmission is voided whether or not a request
            # fills the slot; the punctured mini-slot itself adds nothing to
            # capacity
            res.remaining_slots = 0
            if self.request.pending:
                flags.request_scheduled = True
                counters.scheduled += 1
                if self.request.kind is RequestKind.CRITICAL:
                    counters.scheduled_critical += 1
                self.request = RequestState()

        r_capacity = 0.0
        for res in self.resources:
            if res.remaining_slots > 0:
                r_capacity += math.log1p(res.gain)

        r_discard = 0.0
        r_discard_critical = 0.0
        if self.request.kind is RequestKind.CRITICAL:
            # a critical request not punctured in its arrival slot times out
            r_discard_critical = -1.0
            flags.request_discarded = True
            counters.discarded += 1
            counters.discarded_critical += 1
            self.request = RequestState()
        elif (
            self.request.kind is RequestKind.NORMAL
            and self.slot_index == cfg.slots_per_subframe - 1
        ):
            r_discard = -1.0
            flags.request_discarded = True
            counters.discarded += 1
            self.request = RequestState()

        r_total = (
            cfg.w_capacity * r_capacity
            + cfg.w_discard * r_discard
            + cfg.w_discard_critical * r_discard_critical
        )
        reward = RewardBreakdown(r_capacity, r_discard, r_discard_critical, r_total)

        for res in self.resources:
            if res.remaining_slots > 0:
                res.remaining_slots -= 1
        if self.request.pending:
            self.request.age_slots += 1

        self.slot_index += 1
        if self.slot_index == cfg.slots_per_subframe:
            self.slot_index = 0
            self.subframe_index += 1
            self.begin_subframe()
        self.maybe_spawn_request()

        return self.observe(), reward, flags
