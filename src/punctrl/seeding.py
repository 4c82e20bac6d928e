"""Named random substreams derived from a single 64-bit seed, and a block
reader of a generator's stream.

Every source of randomness in a run (environment draws, weight init,
action noise, probe repetitions) gets its own generator keyed by a stream
name, so adding a new stream never perturbs the draws of existing ones.
"""

import hashlib

import numpy as np

STREAM_ENV = "env"
STREAM_NET_INIT = "net-init"
STREAM_ACTION = "action"
STREAM_PROBE = "probe"

U64_MAX = 2**64 - 1

# raw 64-bit words BlockDraws fetches per call into numpy
BLOCK = 1024
_U32_MASK = 2**32 - 1
_DOUBLE_UNIT = 2.0**-53


def check_seed(seed: int) -> int:
    """Validate a seed as an unsigned 64-bit integer."""
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed <= U64_MAX:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return int(seed)


def substream(seed: int, name: str) -> np.random.Generator:
    """Generator for the substream `name` of the master `seed`.

    The stream name is hashed so the entropy mix is independent of the
    order streams are created in.
    """
    seed = check_seed(seed)
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence([seed, *words]))


class BlockDraws:
    """The scalar draws of a PCG64 ``Generator``, read from its raw words in blocks.

    ``random()`` and ``integers(low, high)`` return exactly what
    ``rng.random()`` and ``int(rng.integers(low, high))`` would, in the same
    call order, at a fraction of numpy's cost per call: the words come
    from ``random_raw`` ``BLOCK`` at a time, and the values are computed
    from them by numpy's own rules. ``random`` is a word's top 53 bits
    times 2**-53 (O'Neill 2014, "PCG"), decoded for a whole block at once
    when the block is fetched. ``integers`` is numpy's
    ``buffered_bounded_lemire_uint32`` (Lemire 2019, "Fast Random Integer
    Generation in an Interval"): it takes 32-bit halves, the low half of a
    word first and its high half on the next call, as PCG64's
    ``has_uint32`` buffer does, and it keeps the rejection loop.

    The reader owns the generator: its bit generator runs up to a block
    ahead of the draws, so nothing else may draw from it afterwards.
    """

    def __init__(self, rng: np.random.Generator):
        bit_generator = rng.bit_generator
        state = bit_generator.state
        if state["bit_generator"] != "PCG64":
            raise ValueError(f"BlockDraws needs a PCG64 generator, got {state['bit_generator']}")
        self._raw = bit_generator.random_raw
        # a block's words and their uniforms, read at one shared position;
        # none is fetched yet, so the first draw fetches one
        self._words = []
        self._floats = []
        self._pos = BLOCK
        # the high half-word PCG64 holds from an earlier 32-bit draw, if any
        self._half = state["uinteger"] if state["has_uint32"] else None

    def _refill(self) -> None:
        raw = self._raw(BLOCK)
        # few words are read as words, so each becomes an int only when read:
        # indexing the array's memoryview gives a Python int
        self._words = raw.data
        # exact: the top 53 bits convert to float64 without rounding, and
        # the power-of-two scale only shifts the exponent
        self._floats = ((raw >> 11) * _DOUBLE_UNIT).tolist()

    def _next_word(self) -> int:
        pos = self._pos
        if pos == BLOCK:
            self._refill()
            pos = 0
        self._pos = pos + 1
        return self._words[pos]

    def random(self) -> float:
        """A float uniform on [0, 1), as ``Generator.random()``."""
        pos = self._pos
        if pos == BLOCK:
            self._refill()
            pos = 0
        self._pos = pos + 1
        return self._floats[pos]

    def _next_uint32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._next_word()
        self._half = word >> 32
        return word & _U32_MASK

    def integers(self, low: int, high: int) -> int:
        """An int uniform on [low, high), as ``int(Generator.integers(low, high))``."""
        span = high - low
        if span == 1:
            return low
        if not 1 <= span <= 2**32:
            raise ValueError(f"integers needs 1 <= high - low <= 2**32, got {span}")
        m = self._next_uint32() * span
        leftover = m & _U32_MASK
        if leftover < span:
            # reject the low products that would bias the result
            threshold = 2**32 % span
            while leftover < threshold:
                m = self._next_uint32() * span
                leftover = m & _U32_MASK
        return low + (m >> 32)
