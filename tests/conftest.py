import ctypes
import glob
import itertools
import os
import re
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


@pytest.fixture(scope="session")
def host_numerics():
    """The OpenBLAS core and numpy SIMD targets this host computes with, as one line.

    The digest pins were recorded with one core and one set of targets;
    another of either can round differently, so a failing pin names what
    it ran with. Parts that cannot be read say unknown.
    """
    core = "unknown"
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(pattern)):
        corename = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            core = corename().decode()
            break
    try:
        from numpy._core import _multiarray_umath as umath

        enabled = umath.__cpu_features__
        simd = " ".join(t for t in umath.__cpu_dispatch__ if enabled.get(t)) or "baseline only"
    except (ImportError, AttributeError):
        simd = "unknown"
    return f"host numerics: OpenBLAS core {core}, numpy SIMD targets {simd}"


@pytest.fixture
def softmax_clipped():
    """A reference softmax, shifted by the maximum, clamped to [clip_low, 1] unrenormalized."""

    def softmax(q, clip_low):
        e = np.exp(np.asarray(q, dtype=float) - np.max(q))
        return np.clip(e / np.sum(e), clip_low, 1.0)

    return softmax


@pytest.fixture
def polyline_ys():
    """A function giving the set of y coordinates of every polyline point in an SVG text."""

    def ys(text):
        return {point.split(",")[1]
                for points in re.findall(r'<polyline points="([^"]*)"', text)
                for point in points.split()}

    return ys


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance criterion lines after the test summary."""
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "REPORT_LINES", None) if module else None
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
