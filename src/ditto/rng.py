"""Deterministic random number generation.

numpy's Generator on the counter-based Philox bit generator.  Equal seeds
give equal draw sequences; named child streams let independent parts of a
run (init, shuffling, target sampling, ...) consume randomness without
perturbing each other.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import ParameterError, is_integer


class Rng(np.random.Generator):
    """Deterministic generator with named, independent substreams.

    >>> a, b = Rng(7), Rng(7)
    >>> bool(np.all(a.uniform(0, 1, (2, 2)) == b.uniform(0, 1, (2, 2))))
    True
    """

    def __init__(self, seed: int, _path: tuple[int, ...] = ()):
        if not is_integer(seed):  # 0.5 and True would draw the streams of 0 and 1
            raise ParameterError(f"seed must be an integer, got {seed!r}")
        if seed < 0:
            raise ParameterError(f"seed must be >= 0, got {seed}")
        self.seed = int(seed)
        self._path = tuple(int(p) for p in _path)
        super().__init__(np.random.Philox(np.random.SeedSequence([self.seed, *self._path])))

    def child(self, tag: str) -> "Rng":
        """Independent substream derived from a string tag.

        The same (seed, tag path) always yields the same stream.
        """
        return Rng(self.seed, (*self._path, zlib.crc32(tag.encode("utf-8"))))
