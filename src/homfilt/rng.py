"""Deterministic random stream derivation.

Every stochastic component receives its own numpy ``Generator`` derived from a
root seed plus a structured key, so no stream is ever shared or reused across
roles, replications or grid nodes.
"""

import numpy as np

# Role indices used when deriving per-replication streams.
ROLE_TRUTH = 0
ROLE_OBS = 1
ROLE_FULL_FILTER = 2
ROLE_HOMOG_FILTER = 3


def stream(root_seed: int, *key: int) -> np.random.Generator:
    """Derive an independent generator from ``root_seed`` and an integer key path."""
    ss = np.random.SeedSequence(entropy=root_seed, spawn_key=tuple(key))
    return np.random.default_rng(ss)


class StreamBatch:
    """The generators of R replications, drawn from as one batch.

    ``standard_normal(size)`` fills row r of a ``size``-shaped array, with
    ``size[0] == R``, from generator r.  Each generator is called exactly
    as a lone run of its replication would call it, so a batched run
    reproduces each replication's own run bit for bit.  The returned array
    is a buffer that the next draw of the same shape overwrites.
    """

    def __init__(self, generators):
        self.generators = list(generators)
        self._buffers = {}

    def __getitem__(self, r: int) -> np.random.Generator:
        return self.generators[r]

    def standard_normal(self, size: tuple) -> np.ndarray:
        if size[0] != len(self.generators):
            raise ValueError(f"leading axis {size[0]} != {len(self.generators)} streams")
        buf = self._buffers.get(size)
        if buf is None:
            buf = self._buffers[size] = np.empty(size)
        for gen, row in zip(self.generators, buf):
            gen.standard_normal(out=row)
        return buf
