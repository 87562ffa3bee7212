"""Deterministic random-number management for sequential and parallel GAs.

Every stochastic component in :mod:`repro` draws from a
:class:`numpy.random.Generator`.  Parallel models need *independent*
streams per deme/worker that are nevertheless reproducible from a single
seed; we use NumPy's ``SeedSequence.spawn`` mechanism, which guarantees
statistically independent child streams.

:class:`PCG64Words` reads a block of a ``PCG64`` generator's raw words the
way ``Generator.random`` and ``Generator.integers`` consume them, so a
caller can decode a long run of scalar draws in plain Python and leave
the generator exactly where those draws would have left it.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ensure_rng",
    "spawn_rngs",
    "PCG64Words",
    "coin_threshold",
]


def ensure_rng(seed: int | np.random.Generator | None = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` (fresh nondeterministic generator), an ``int`` seed, or an
        existing generator (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: int | np.random.SeedSequence | None, n: int) -> list[np.random.Generator]:
    """Create ``n`` independent generators derived from one root seed.

    The streams are independent in the cryptographic-hash sense provided by
    :class:`numpy.random.SeedSequence`, so demes seeded this way do not share
    correlated randomness.
    """
    if n < 0:
        raise ValueError(f"cannot spawn {n} generators")
    if isinstance(seed, np.random.SeedSequence):
        root = seed
    else:
        root = np.random.SeedSequence(seed)
    return [np.random.default_rng(s) for s in root.spawn(n)]


_U32 = 0xFFFFFFFF


def coin_threshold(p: float) -> int:
    """The raw word below which ``Generator.random() < p`` holds.

    ``random()`` is ``(w >> 11) * 2**-53`` for the next 64-bit word ``w``;
    scaling ``p`` by a power of two is exact, so the comparison is
    ``w >> 11 < ceil(p * 2**53)``, which is ``w < ceil(p * 2**53) << 11``.
    """
    if p <= 0.0:
        return 0
    return math.ceil(min(p, 1.0) * 2.0**53) << 11


class PCG64Words:
    """The next ``size`` raw words of a ``PCG64`` generator, decoded as
    ``Generator`` draws.

    Construction saves the bit generator's state and takes the block with
    ``random_raw``.  Each 64-bit draw (``random()``, one uniform of
    ``random(n)``) is one word.  A bounded ``integers`` draw takes a 32-bit
    half through PCG64's ``has_uint32``/``uinteger`` buffer: the low half
    of a fresh word first, its high half kept for the next 32-bit draw.
    64-bit draws neither read nor clear that buffer.  :meth:`commit` then
    rewinds the generator to the saved state, with the final buffer, and
    advances it by the words read; :meth:`restore` only rewinds.  Reading
    past the block raises ``IndexError``.
    """

    __slots__ = ("_bitgen", "_state", "raw", "_words", "pos", "_has32", "_u32")

    def __init__(self, rng: np.random.Generator, size: int) -> None:
        bitgen = rng.bit_generator
        if type(bitgen) is not np.random.PCG64:
            raise TypeError(f"PCG64Words needs a PCG64 generator, got {type(bitgen).__name__}")
        self._bitgen = bitgen
        self._state = bitgen.state
        self.raw = bitgen.random_raw(size)
        self._words = memoryview(self.raw)  # indexing it gives Python ints
        self.pos = 0
        self._has32 = self._state["has_uint32"]
        self._u32 = self._state["uinteger"]

    def coin(self, threshold: int) -> bool:
        """``random() < p`` for ``threshold = coin_threshold(p)``."""
        w = self._words[self.pos]
        self.pos += 1
        return w < threshold

    def skip(self, n: int) -> int:
        """Take the ``n`` words of ``random(n)``; return where they start
        (see :meth:`uniforms`)."""
        start = self.pos
        self.pos = start + n
        if self.pos > len(self.raw):
            raise IndexError("PCG64Words block exhausted")
        return start

    def uniforms(self, starts: list[int], n: int) -> np.ndarray:
        """The ``(len(starts), n)`` values of the ``random(n)`` calls that
        :meth:`skip` placed at ``starts``, gathered with one index."""
        raw = self.raw
        # row s of this view is words s .. s + n - 1
        runs = np.ndarray((len(raw) - n + 1, n), raw.dtype, raw, strides=(8, 8))[starts]
        runs >>= 11
        return runs * 2.0**-53

    def integers(self, low: int, high: int) -> int:
        """``Generator.integers(low, high)`` for ``0 < high - low <= 2**32``:
        Lemire's method on 32-bit draws, with its rejection."""
        excl = high - low
        if excl == 1:
            return low  # a range of one value draws nothing
        m = self._next32() * excl
        if m & _U32 < excl:
            threshold = (_U32 + 1 - excl) % excl
            while m & _U32 < threshold:
                m = self._next32() * excl
        return low + (m >> 32)

    def _next32(self) -> int:
        if self._has32:
            self._has32 = 0
            return self._u32
        w = self._words[self.pos]
        self.pos += 1
        self._has32 = 1
        self._u32 = w >> 32
        return w & _U32

    def commit(self) -> None:
        """Leave the generator where the draws read so far leave it."""
        state = self._state
        state["has_uint32"], state["uinteger"] = self._has32, self._u32
        self._bitgen.state = state
        self._bitgen.random_raw(self.pos)

    def restore(self) -> None:
        """Leave the generator as it was before the block was taken."""
        self._bitgen.state = self._state
