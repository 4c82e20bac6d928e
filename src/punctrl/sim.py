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

from .seeding import BlockDraws
from .validation import check_count, check_finite, check_positive, check_probability


class RequestKind(enum.Enum):
    NONE = "none"
    NORMAL = "normal"
    CRITICAL = "critical"


# Python 3.11's enum metaclass defines __getattr__, which sends every
# RequestKind.X lookup down a slow path (~0.1 µs, several per mini-slot);
# a module global is a plain dict lookup
NONE, NORMAL, CRITICAL = RequestKind.NONE, RequestKind.NORMAL, RequestKind.CRITICAL


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


def encode_state(cfg: SimConfig, slot_index: int, request: RequestKind, remaining) -> np.ndarray:
    """State vector (slot position, request flags, relative occupations), all in [0, 1]."""
    slots = cfg.slots_per_subframe
    pending = 0.0 if request is NONE else 1.0
    critical = 1.0 if request is CRITICAL else 0.0
    return np.array([slot_index / max(slots - 1, 1), pending, critical]
                    + [r / slots for r in remaining])


def decode_state(cfg: SimConfig, s) -> tuple:
    """(slot_index, request, remaining) read back from a state vector of encode_state."""
    slots = cfg.slots_per_subframe
    if s[1] < 0.5:
        request = NONE
    elif s[2] >= 0.5:
        request = CRITICAL
    else:
        request = NORMAL
    remaining = [round(float(v) * slots) for v in s[3:]]
    return round(float(s[0]) * max(slots - 1, 1)), request, remaining


@dataclass(slots=True)
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


def sample_channel_gain(rng, sigma: float) -> float:
    """Rayleigh-squared power gain by inverse transform: g = sigma^2 * (-2 ln u).

    u = 1 - ``rng.random()`` lies in (0, 1], excluding the log singularity at
    0; the amplitude sigma*sqrt(-2 ln u) is then Rayleigh(sigma) and its
    square, the power gain, has mean 2*sigma^2. ``rng`` is any object with a
    ``random()`` method, a ``Generator`` or a ``BlockDraws``.
    """
    return -2.0 * math.log(1.0 - rng.random()) * sigma * sigma


class PuncturingSim:
    """Sequential mini-slot scheduler environment.

    The action space is {0 = wait, 1..N = puncture resource}. A puncture
    always voids whatever transmission is still running on that resource;
    the pending request, if any, is scheduled into the punctured mini-slot,
    otherwise the slot is simply wasted. A single request can be
    outstanding at a time; further arrivals are suppressed until it
    resolves.

    The state is plain attributes: ``slot_index``, per resource the
    mini-slots its transmission still occupies (``remaining``) and its power
    gain (``gain``), the kind of the outstanding request (``request``) and
    the event ``counters``.

    The simulator owns ``rng``. It draws through a ``BlockDraws`` reader,
    which gives the values ``rng.random()`` and ``rng.integers()`` would, in
    the same order, but whose bit generator runs up to a block of words
    ahead of the draws; nothing else may draw from ``rng`` afterwards.
    """

    def __init__(self, cfg: SimConfig, rng: np.random.Generator):
        self.cfg = cfg.validate()
        self.rng = BlockDraws(rng)
        self._clear()

    def _clear(self) -> None:
        n = self.cfg.n_resources
        self.slot_index = 0
        self.remaining = [0] * n
        self.gain = [0.0] * n
        self.request = NONE
        self.counters = SimCounters()

    def reset(self) -> np.ndarray:
        """Start a fresh episode; the random stream continues uninterrupted."""
        self._clear()
        self.begin_subframe()
        self.maybe_spawn_request()
        return self.observe()

    def begin_subframe(self) -> None:
        """Draw fresh occupancy and channel gains; call with slot_index wrapped to 0."""
        cfg = self.cfg
        rng = self.rng
        remaining = self.remaining
        gain = self.gain
        counters = self.counters
        p_occupy = cfg.p_occupy
        len_min, len_end = cfg.occupy_len_min, cfg.occupy_len_max + 1
        sigma = cfg.rayleigh_sigma
        for k in range(cfg.n_resources):
            if rng.random() < p_occupy:
                remaining[k] = rng.integers(len_min, len_end)
                counters.tx_started += 1
            else:
                remaining[k] = 0
            gain[k] = sample_channel_gain(rng, sigma)

    def maybe_spawn_request(self) -> None:
        """Possibly pose a new request; suppressed while one is outstanding."""
        if self.request is not NONE:
            return
        rng = self.rng
        if rng.random() < self.cfg.p_request:
            critical = rng.random() < self.cfg.p_critical
            self.request = CRITICAL if critical else NORMAL
            self.counters.arrived += 1
            if critical:
                self.counters.arrived_critical += 1

    def observe(self) -> np.ndarray:
        """The current state as encode_state builds it."""
        return encode_state(self.cfg, self.slot_index, self.request, self.remaining)

    def step(self, action: int) -> float:
        """Apply one action at the current mini-slot and advance time.

        Returns the weighted reward of the slot just played; the next
        occupancy and request are already drawn, and observe() reads them.
        """
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
            # the rest of the transmission is voided whether or not a request
            # fills the slot; the punctured mini-slot itself adds nothing to
            # capacity
            remaining[action - 1] = 0
            if request is not NONE:
                counters.scheduled += 1
                if request is CRITICAL:
                    counters.scheduled_critical += 1
                request = NONE

        # one pass: a running transmission adds its capacity and counts down
        gain = self.gain
        r_capacity = 0.0
        for k in range(len(remaining)):
            r = remaining[k]
            if r > 0:
                r_capacity += math.log1p(gain[k])
                remaining[k] = r - 1

        r_discard = 0.0
        r_discard_critical = 0.0
        if request is CRITICAL:
            # a critical request not punctured in its arrival slot times out
            r_discard_critical = -1.0
            counters.discarded += 1
            counters.discarded_critical += 1
            request = NONE
        elif request is NORMAL and self.slot_index == cfg.slots_per_subframe - 1:
            r_discard = -1.0
            counters.discarded += 1
            request = NONE
        self.request = request

        r_total = (
            cfg.w_capacity * r_capacity
            + cfg.w_discard * r_discard
            + cfg.w_discard_critical * r_discard_critical
        )

        self.slot_index += 1
        if self.slot_index == cfg.slots_per_subframe:
            self.slot_index = 0
            self.begin_subframe()
        self.maybe_spawn_request()
        return r_total
