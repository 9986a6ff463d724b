"""Seeded random streams, draw for draw those of NumPy's default generator.

``Rng(seed, *key)`` yields exactly the numbers that NumPy's
``default_rng(SeedSequence(seed, spawn_key=key))`` yields, so workloads,
plans and traces stay reproducible across versions without NumPy at run
time.  Each part mirrors one NumPy routine:

- ``_seed_state``: ``SeedSequence`` (``get_assembled_entropy``,
  ``mix_entropy``, then ``generate_state(4, uint64)``);
- ``Rng.__init__``: ``pcg64_set_seed``, i.e. ``pcg_setseq_128_srandom_r``;
- ``Rng.next64``: ``pcg64_random_r``, a 128-bit LCG step followed by the
  XSL-RR output;
- ``Rng.next32``: ``pcg64_next32``, which serves the two halves of one
  64-bit output, low half first;
- ``Rng.random``: ``next_double``; ``Rng.uniform``: ``random_uniform``;
- ``Rng.integers``: ``random_bounded_uint64_fill`` with Lemire rejection;
- ``Rng.permutation``: ``Generator.permutation`` of an int, a Fisher-Yates
  shuffle whose draws come from ``random_interval``.
"""

from __future__ import annotations

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_POOL_SIZE = 4


def _words(n: int) -> list[int]:
    """``n`` as little-endian 32-bit words; 0 is one word."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _M32]
    n >>= 32
    while n:
        words.append(n & _M32)
        n >>= 32
    return words


def _seed_state(seed: int, key: tuple[int, ...]) -> list[int]:
    """The four 64-bit words a PCG64 seeded from ``SeedSequence`` starts on."""
    entropy = _words(seed)
    spawn = [w for k in key for w in _words(k)]
    if spawn:
        entropy += [0] * (_POOL_SIZE - len(entropy))
    entropy += spawn

    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = 0x8B51F9DD
    out = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _M32
        value = value * hash_const & _M32
        out.append(value ^ value >> 16)
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


class Rng:
    """PCG64 stream seeded like ``SeedSequence(seed, spawn_key=key)``."""

    def __init__(self, seed: int, *key: int):
        s0, s1, i0, i1 = _seed_state(seed, key)
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _M128
        state = (self._inc + (s0 << 64 | s1)) & _M128
        self._state = (state * _PCG_MULT + self._inc) & _M128
        self._half: int | None = None

    def next64(self) -> int:
        state = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        value = (state >> 64 ^ state) & _M64
        rot = state >> 122
        return (value >> rot | value << (64 - rot)) & _M64

    def next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        value = self.next64()
        self._half = value >> 32
        return value & _M32

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next64() >> 11) * (1.0 / 9007199254740992.0)

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.random()

    def integers(self, low: int, high: int | None = None) -> int:
        """Uniform int in [low, high), or in [0, low) when ``high`` is None.

        Ranges below 2**32 draw 32 bits, larger ones 64 bits.  With Python's
        unbounded integers, Lemire's method at a range of exactly 2**32 (or
        2**64) returns the draw unchanged: NumPy's special cases for those
        ranges need no branch here.
        """
        if high is None:
            low, high = 0, low
        excl = high - low
        if not 0 < excl <= 1 << 64:
            raise ValueError(f"empty or too wide range [{low}, {high})")
        if excl == 1:
            return low
        draw, bits = (self.next32, 32) if excl <= 1 << 32 else (self.next64, 64)
        mask = (1 << bits) - 1
        threshold = (1 << bits) % excl
        m = draw() * excl
        while (m & mask) < threshold:
            m = draw() * excl
        return low + (m >> bits)

    def permutation(self, n: int) -> list[int]:
        """A random order of ``range(n)``."""
        items = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = self.next32() & mask
            while j > i:
                j = self.next32() & mask
            items[i], items[j] = items[j], items[i]
        return items
