"""Deterministic, splittable random streams.

Every stochastic oracle in this package draws from a :class:`RandomStream`,
which is a (seed, path) pair. The path is a sequence of (label, index)
segments, so independent parts of an algorithm (warm start, lower-level
steps, per-sample estimator draws, ...) consume disjoint randomness that is
bit-reproducible across runs and independent of execution order.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["RandomStream"]

_LABEL_CACHE: dict[str, int] = {}


def _label_key(label: str) -> int:
    # CRC32 is stable across processes/platforms, unlike hash().
    key = _LABEL_CACHE.get(label)
    if key is None:
        key = zlib.crc32(label.encode("utf-8"))
        _LABEL_CACHE[label] = key
    return key


class RandomStream:
    """Immutable handle for one deterministic random sub-stream."""

    __slots__ = ("seed", "path", "_entropy")

    def __init__(self, seed: int, path: tuple[tuple[str, int], ...] = (),
                 _entropy: tuple[int, ...] | None = None):
        self.seed = seed
        self.path = path
        if _entropy is None:
            _entropy = (seed & 0xFFFFFFFFFFFFFFFF,)
            for label, index in path:
                _entropy += (_label_key(label), index & 0xFFFFFFFFFFFFFFFF)
        self._entropy = _entropy

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, path={self.path})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, RandomStream)
                and self.seed == other.seed and self.path == other.path)

    def __hash__(self) -> int:
        return hash((self.seed, self.path))

    def child(self, label: str, index: int = 0) -> "RandomStream":
        """Derive the sub-stream identified by (label, index)."""
        return RandomStream(
            self.seed,
            self.path + ((label, index),),
            self._entropy + (_label_key(label), index & 0xFFFFFFFFFFFFFFFF),
        )

    def generator(self) -> np.random.Generator:
        """Fresh PCG64 generator; identical (seed, path) gives identical draws."""
        return np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(self._entropy))
        )

    def normal(self, size: int, scale: float = 1.0) -> np.ndarray:
        return self.generator().normal(0.0, scale, size=size)

    def integers(self, low: int, high: int) -> int:
        """One integer uniform on {low, ..., high-1}."""
        return int(self.generator().integers(low, high))
