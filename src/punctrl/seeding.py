"""Named random substreams derived from a single 64-bit seed.

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
