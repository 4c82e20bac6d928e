import itertools
import sys

import numpy as np
import pytest

from punctrl.sim import RequestKind, encode_state


@pytest.fixture
def every_state():
    """A function giving every state vector encode_state builds under a SimConfig.

    Slot positions, request kinds and per-resource occupations of 0 to
    ``occupy_len_max`` mini-slots, one row each: 7 * 3 * 8**2 = 1344 rows at
    the reference config.
    """

    def build(cfg):
        occupations = itertools.product(range(cfg.occupy_len_max + 1), repeat=cfg.n_resources)
        return np.array([
            encode_state(cfg, slot, request, list(remaining))
            for slot, request, remaining in itertools.product(
                range(cfg.slots_per_subframe), RequestKind, occupations)
        ])

    return build


@pytest.fixture
def softmax_clipped():
    """A reference softmax, shifted by the maximum, clamped to [clip_low, 1] unrenormalized."""

    def softmax(q, clip_low):
        e = np.exp(np.asarray(q, dtype=float) - np.max(q))
        return np.clip(e / np.sum(e), clip_low, 1.0)

    return softmax


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance criterion lines after the test summary."""
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "REPORT_LINES", None) if module else None
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
