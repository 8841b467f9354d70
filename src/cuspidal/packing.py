"""Vectors of small signed integers packed into one Python integer.

Entry i of a vector v is held in the `bits` bits from bit i * bits on: the
vector is the integer sum(v[i] * 2^(i * bits)).  Adding or subtracting two
vectors is one integer operation, and moving every entry up or down by k
places is one shift, all done by the interpreter's big-integer code rather
than one Python step per entry (Kronecker substitution; von zur Gathen and
Gerhard, *Modern Computer Algebra*, 3rd ed., 2013, section 8.4).

The sum is exact whatever the entries, but it decodes back to the entries
only while each lies strictly between -2^(bits - 1) and 2^(bits - 1), so a
caller sizes the packing by a bound on every entry it will produce.
"""

from __future__ import annotations

import sys
from array import array
from itertools import repeat
from operator import add, lshift, sub


class Packing:
    """Vectors of `size` entries, each of absolute value at most `bound`;
    an entry takes the fewest whole 64-bit words that hold it with a sign."""

    def __init__(self, size: int, bound: int):
        self.size = size
        self.words = bound.bit_length() // 64 + 1
        self.bits = 64 * self.words
        self._half = 1 << (self.bits - 1)
        # every entry 2^(bits - 1), or 2^63: added before decoding, so that
        # each entry is read as an unsigned number
        ones = ((1 << self.bits * size) - 1) // ((1 << self.bits) - 1)
        self._bias = self._half * ones
        self._small_bias = (1 << 63) * ones

    def unpack(self, packed: int) -> list[int]:
        """The entries of a packed vector, in order.

        Entries of absolute value below 2^63 are read from one signed word
        each: with 2^63 added to every entry and then its top bit flipped,
        each is one word in two's complement, the words above it 0.
        Otherwise every word is read."""
        words = self._words((packed + self._small_bias) ^ self._small_bias,
                            "q")
        if words is not None:
            upper = words[:]
            del upper[::self.words]
            if not any(upper):
                return words[::self.words].tolist()
        words = self._words(packed + self._bias, "Q")
        entries = words[::self.words].tolist()
        for k in range(1, self.words):
            entries = list(map(add, entries, map(
                lshift, words[k::self.words], repeat(64 * k))))
        return list(map(sub, entries, repeat(self._half)))

    def _words(self, packed: int, typecode: str):
        """The 64-bit words of a nonnegative packed vector, lowest first, in
        an array of the typecode, or None if it is negative."""
        if packed < 0:
            return None
        words = array(typecode)
        words.frombytes(packed.to_bytes(self.bits // 8 * self.size, "little"))
        if sys.byteorder == "big":
            words.byteswap()
        return words

    def shift(self, packed: int, places: int) -> int:
        """The vector with entry i moved to place i + places; the entries
        it moves out of places 0..size - 1 must be zero."""
        if places >= 0:
            return packed << self.bits * places
        return packed >> self.bits * -places

    def unit(self, place: int) -> int:
        """The vector with a 1 at the place and 0 elsewhere; a vector is
        the sum of its entries times these."""
        return 1 << self.bits * place
