"""Deterministic, splittable random streams.

Every stochastic oracle in this package draws from a :class:`RandomStream`,
which is a (seed, path) pair. The path is a sequence of (label, index)
segments, so independent parts of an algorithm (warm start, lower-level
steps, per-sample estimator draws, ...) consume disjoint randomness that is
bit-reproducible across runs and independent of execution order.

A stream's generator is numpy's PCG64 seeded by ``SeedSequence(entropy)``,
where the entropy is the seed followed by (CRC32(label), index) for each
path segment, every integer split into little-endian uint32 words. A loop
over an index asks for its streams as one family, ``stream.children(label,
n)``: element i is ``stream.child(label, i)`` (equal, same hash, same
draws), but the PCG64 seed words of the family are derived for a block of
rows at once, by a numpy uint32 port of ``SeedSequence``'s entropy mixing
and ``generate_state``. The children of a family row form families too, so
("upper", t) -> ("chain", s) -> ("hvp", i) is derived a block of t at a
time. The draws are numpy's own, byte for byte, whichever way a stream is
reached; words are derived only when a row first asks for a generator, and
each family keeps one block, whatever its length.
"""

from __future__ import annotations

import operator
import zlib
from collections.abc import Sequence

import numpy as np

from .constants import ConstraintViolation

__all__ = ["RandomStream"]

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_POOL = 4

# Rows of a family whose seed words are derived in one pass. A family row's
# index is one entropy word, so rows at or above 2**32 take the scalar path.
_BLOCK = 1024
_MAX_ROWS = 2**32

_LABEL_CACHE: dict[str, tuple[int]] = {}


def _label_words(label: str) -> tuple[int]:
    # CRC32 is stable across processes/platforms, unlike hash().
    words = _LABEL_CACHE.get(label)
    if words is None:
        words = (zlib.crc32(label.encode("utf-8")),)
        _LABEL_CACHE[label] = words
    return words


def _int_words(n: int, name: str = "stream index") -> tuple[int, ...]:
    """n as SeedSequence splits it: little-endian uint32 words.

    n must lie in [0, 2**64), the integers SeedSequence reads as at most two
    words; outside it, distinct integers would alias (-1 and 2**64 - 1,
    2**64 and 0)."""
    if not 0 <= n <= _M64:
        raise ConstraintViolation(f"{name} must be in [0, 2**64), got {n!r}")
    return (n & _M32, n >> 32) if n >> 32 else (n,)


def _wrap(v):
    # uint32 arrays wrap by themselves; Python ints are reduced mod 2**32.
    return v & _M32 if type(v) is int else v


def _seed_words(columns: list) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(4, np.uint64)`` for many rows.

    columns[j] is word j of every row's uint32 entropy: a Python int where
    the rows share it, else a uint32 array with one entry per row (at least
    one column must be one). Returns an (n_rows, 4) uint64 array.
    """
    k = _INIT_A

    def hashmix(v):
        nonlocal k
        v = v ^ k
        k = (k * _MULT_A) & _M32
        v = _wrap(v * k)
        return v ^ (v >> _XSHIFT)

    def mix(x, y):
        v = _wrap(_wrap(_MIX_MULT_L * x) - _wrap(_MIX_MULT_R * y))
        return v ^ (v >> _XSHIFT)

    # mix_entropy: fill the pool (zero words past the entropy), mix every
    # pool word into every other, then mix each remaining word into all.
    pool = [hashmix(columns[i] if i < len(columns) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in columns[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))

    # generate_state(4, np.uint64): 8 uint32 words cycled from the pool.
    k, state = _INIT_B, []
    for i in range(2 * _POOL):
        v = pool[i % _POOL] ^ k
        k = (k * _MULT_B) & _M32
        v = _wrap(v * k)
        state.append(v ^ (v >> _XSHIFT))
    return np.stack(state, axis=-1).astype("<u4").view("<u8").astype(np.uint64)


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """Hands PCG64 the state words its SeedSequence would have generated."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, dtype) != (_POOL, np.uint64):
            raise ValueError("only PCG64's generate_state(4, np.uint64) is derived")
        return self.words


class _Family:
    """Rows r of the entropy layout head + (r,) + tail, for r < n.

    Seed words are derived for _BLOCK consecutive rows at a time, and only
    the latest block is kept. kid(label, index) is the family of each row's
    child(label, index), memoised.
    """

    __slots__ = ("head", "tail", "n", "_kids", "_lo", "_words")

    def __init__(self, head: tuple[int, ...], tail: tuple[int, ...], n: int):
        self.head, self.tail, self.n = head, tail, n
        self._kids: dict[tuple[str, int], _Family] = {}
        self._lo = -1
        self._words = None

    def kid(self, label: str, index: int) -> "_Family":
        fam = self._kids.get((label, index))
        if fam is None:
            fam = _Family(self.head, self.tail + _label_words(label) + _int_words(index),
                          self.n)
            self._kids[label, index] = fam
        return fam

    def words(self, r: int) -> np.ndarray:
        lo = r - r % _BLOCK
        if lo != self._lo:
            rows = np.arange(lo, min(lo + _BLOCK, self.n), dtype=np.uint32)
            self._words = _seed_words([*self.head, rows, *self.tail])
            self._lo = lo
        return self._words[r - lo]


class RandomStream:
    """Immutable handle for one deterministic random sub-stream.

    The seed and every path index, whether given to the constructor or to
    ``child``, must lie in [0, 2**64), the integers SeedSequence reads as at
    most two words; outside it, distinct streams would alias (-1 and
    2**64 - 1, 2**64 and 0), so such a value raises ConstraintViolation.
    """

    __slots__ = ("seed", "path", "_entropy", "_family", "_row")

    def __init__(self, seed: int, path: tuple[tuple[str, int], ...] = (),
                 _entropy: tuple[int, ...] | None = None,
                 _family: _Family | None = None, _row: int = 0):
        self.seed = seed
        self.path = path
        if _entropy is None:
            _entropy = _int_words(seed, "seed")
            for label, index in path:
                _entropy += _label_words(label) + _int_words(index)
        self._entropy = _entropy  # SeedSequence's entropy, as uint32 words
        self._family = _family    # None, or the family of which this is row _row
        self._row = _row

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, path={self.path})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, RandomStream)
                and self.seed == other.seed and self.path == other.path)

    def __hash__(self) -> int:
        return hash((self.seed, self.path))

    def child(self, label: str, index: int = 0) -> "RandomStream":
        """Derive the sub-stream identified by (label, index)."""
        family = self._family
        return RandomStream(
            self.seed,
            self.path + ((label, index),),
            self._entropy + _label_words(label) + _int_words(index),
            None if family is None else family.kid(label, index),
            self._row,
        )

    def children(self, label: str, n: int) -> Sequence["RandomStream"]:
        """child(label, i) for i in range(n), as one lazily derived family."""
        return _Children(self, label, n)

    def generator(self) -> np.random.Generator:
        """Fresh PCG64 generator; identical (seed, path) gives identical draws."""
        if self._family is None:
            seq = np.random.SeedSequence(np.array(self._entropy, dtype=np.uint32))
        else:
            seq = _SeedWords(self._family.words(self._row))
        return np.random.Generator(np.random.PCG64(seq))

    def normal(self, size: int, scale: float = 1.0) -> np.ndarray:
        return self.generator().normal(0.0, scale, size=size)

    def integers(self, low: int, high: int) -> int:
        """One integer uniform on {low, ..., high-1}."""
        return int(self.generator().integers(low, high))


class _Children(Sequence):
    """The sequence returned by RandomStream.children."""

    __slots__ = ("_parent", "_label", "_n", "_family")

    def __init__(self, parent: RandomStream, label: str, n: int):
        self._parent, self._label, self._n = parent, label, n
        self._family = _Family(parent._entropy + _label_words(label), (),
                               min(n, _MAX_ROWS))

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int) -> RandomStream:
        i = operator.index(i)
        if i < 0:
            i += self._n
        if not 0 <= i < self._n:
            raise IndexError(f"stream family index {i} out of range")
        p, fam = self._parent, self._family
        if i >= fam.n:
            return p.child(self._label, i)
        return RandomStream(p.seed, p.path + ((self._label, i),), fam.head + (i,), fam, i)
