"""Deterministic random number generation.

A thin wrapper around numpy's counter-based Philox bit generator.  Equal
seeds give equal draw sequences; named child streams let independent parts
of a run (init, shuffling, target sampling, ...) consume randomness without
perturbing each other.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import ParameterError, is_integer


class Rng:
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
        ss = np.random.SeedSequence([self.seed, *self._path])
        self._gen = np.random.Generator(np.random.Philox(ss))

    def child(self, tag: str) -> "Rng":
        """Independent substream derived from a string tag.

        The same (seed, tag path) always yields the same stream.
        """
        return Rng(self.seed, (*self._path, zlib.crc32(tag.encode("utf-8"))))

    # draw methods delegate to the underlying generator

    def uniform(self, low: float, high: float, shape) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape)

    def normal(self, loc: float, scale: float, shape) -> np.ndarray:
        return self._gen.normal(loc, scale, size=shape)

    def random(self) -> float:
        """One double in [0, 1)."""
        return float(self._gen.random())

    def integers(self, low: int, high: int, size: int) -> np.ndarray:
        """`size` ints drawn uniformly from [low, high)."""
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def choice_without_replacement(self, n: int, k: int) -> np.ndarray:
        return self._gen.choice(n, size=k, replace=False)
