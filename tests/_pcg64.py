"""Reference port of the row orders numpy's ``Generator.permutation`` draws.

``default_rng`` is PCG64: a 128-bit LCG with the XSL-RR output function
(O'Neill, "PCG: A Family of Simple Fast Space-Efficient Statistically Good
Algorithms for Random Number Generation", 2014). numpy hands out each
64-bit output as two 32-bit halves, low half first, and keeps the high half
in ``has_uint32``/``uinteger`` between calls. ``permutation(n)`` shuffles
``arange(n)`` by Fisher-Yates from the top, drawing each index by masked
rejection (``random_interval``), not by the Lemire method
``Generator.integers`` uses. Only the 32-bit branch of ``random_interval``
is ported: row counts stay far below 2**32.
"""

from __future__ import annotations

MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
MASK64 = (1 << 64) - 1
MASK128 = (1 << 128) - 1


class Pcg64:
    """PCG64 started from a numpy ``bit_generator.state`` dict."""

    def __init__(self, state: dict):
        assert state["bit_generator"] == "PCG64", state["bit_generator"]
        self.state = state["state"]["state"]
        self.inc = state["state"]["inc"]
        self.has_uint32 = state["has_uint32"]
        self.uinteger = state["uinteger"]

    def next64(self) -> int:
        self.state = (self.state * MULTIPLIER + self.inc) & MASK128
        value = ((self.state >> 64) ^ self.state) & MASK64
        rot = self.state >> 122
        return ((value >> rot) | (value << (-rot & 63))) & MASK64

    def next32(self) -> int:
        if self.has_uint32:
            self.has_uint32 = 0
            return self.uinteger
        value = self.next64()
        self.has_uint32, self.uinteger = 1, value >> 32
        return value & 0xFFFFFFFF

    def interval(self, top: int) -> int:
        """A value in [0, top], by masked rejection."""
        if top == 0:
            return 0
        if top > 0xFFFFFFFF:
            raise ValueError(f"only the 32-bit branch is ported; got {top}")
        mask = (1 << top.bit_length()) - 1
        while (value := self.next32() & mask) > top:
            pass
        return value

    def permutation(self, n: int) -> list[int]:
        order = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self.interval(i)
            order[i], order[j] = order[j], order[i]
        return order
