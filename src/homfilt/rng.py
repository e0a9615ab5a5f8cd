"""Deterministic random stream derivation.

Every stochastic component receives its own numpy ``Generator`` derived from a
root seed plus a structured key, so no stream is ever shared or reused across
roles, replications or grid nodes.
"""

import numpy as np

# Every stream tag, in one table.  Per-replication roles take the last key
# position, after the epsilon and replication indices: (eps, rep, ROLE_*).
# The other tags take the first position: (ROLE_BOOTSTRAP,), (NODE_STREAM,
# node) and the CLI's (ROLE_SIM_*,) and (ROLE_FILTER_*,).
ROLE_TRUTH = 0
ROLE_OBS = 1
ROLE_FULL_FILTER = 2
ROLE_HOMOG_FILTER = 3
ROLE_BOOTSTRAP = 4      # study: bootstrap slope interval
ROLE_INIT = 5           # study: initial truth states
NODE_STREAM = 7         # averager: one stream per grid node
ROLE_SIM_SIGNAL = 10    # cli simulate
ROLE_SIM_OBS = 11
ROLE_FILTER_FULL = 12   # cli filter
ROLE_FILTER_HOMOG = 13


def stream(root_seed: int, *key: int) -> np.random.Generator:
    """Derive an independent generator from ``root_seed`` and an integer key path."""
    ss = np.random.SeedSequence(entropy=root_seed, spawn_key=tuple(key))
    return np.random.default_rng(ss)


class StreamBatch:
    """The generators of R replications, drawn from as one batch.

    ``standard_normal(size)`` fills row r of a ``size``-shaped array, with
    ``size[0] == R``, from generator r.  Each generator is called exactly
    as a lone run of its replication would call it, so a batched run
    reproduces each replication's own run bit for bit.  Every draw is a
    new array.
    """

    def __init__(self, generators):
        self.generators = list(generators)

    def __getitem__(self, r: int) -> np.random.Generator:
        return self.generators[r]

    def standard_normal(self, size: tuple) -> np.ndarray:
        if size[0] != len(self.generators):
            raise ValueError(f"leading axis {size[0]} != {len(self.generators)} streams")
        out = np.empty(size)
        for gen, row in zip(self.generators, out):
            gen.standard_normal(out=row)
        return out
