"""Time one cold set-up of a workload in a fresh process and print it in seconds.

    python3 bench/setup_child.py ROOT train CONFIG SEED
    python3 bench/setup_child.py ROOT baseline CONFIG SEED
    python3 bench/setup_child.py ROOT probe MANIFEST CHECKPOINT

Set-up is importing punctrl from ROOT/src, resolving the config and
building the first simulator and network, or loading the first checkpoint.
"""

import sys
import time

t0 = time.perf_counter()
root, kind, config = sys.argv[1:4]
sys.path.insert(0, f"{root}/src")

from punctrl.config import as_train_config, load_config  # noqa: E402

cfg = load_config(config)
if kind == "probe":
    from punctrl.train import load_checkpoint

    load_checkpoint(sys.argv[4])
else:
    from punctrl.seeding import STREAM_ENV, STREAM_NET_INIT, substream
    from punctrl.sim import PuncturingSim
    from punctrl.train import build_network

    seed = int(sys.argv[4])
    train_cfg = as_train_config(cfg, seed=seed)
    PuncturingSim(train_cfg.sim, substream(seed, STREAM_ENV))
    if kind == "train":
        build_network(train_cfg, substream(seed, STREAM_NET_INIT))
print(time.perf_counter() - t0)
