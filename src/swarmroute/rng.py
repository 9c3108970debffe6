"""Deterministic random-stream derivation.

Every randomized operation in the package draws from its own stream, keyed
by the caller's seed plus a per-operation tag. Reusing one seed across
e.g. topology sampling and bandwidth assignment therefore never replays
the same draws.
"""

import numpy as np

from .errors import InvalidConfig

# Stream tags, one per randomized operation.
TOPOLOGY = 1
BANDWIDTH = 2
PERTURB = 3
PRIORITY = 4
PSO_INIT = 5
PSO_STEP = 6
GA_INIT = 7
GA_SELECT = 8
GA_OPS = 9


def check_seed(seed):
    if seed < 0:
        raise InvalidConfig(f"seed must be non-negative, got {seed}")


def make_rng(seed, *keys):
    """Generator for the stream identified by (seed, *keys).

    Keys must be non-negative integers; a negative seed raises InvalidConfig.
    """
    check_seed(seed)
    return np.random.default_rng([int(seed)] + [int(k) for k in keys])


def derive_seed(*keys):
    """Collapse a key tuple into a single non-negative integer seed."""
    seq = np.random.SeedSequence([int(k) for k in keys])
    return int(seq.generate_state(1)[0])
