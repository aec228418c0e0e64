"""Ultimately periodic subsets of omega with exact set algebra.

A set is stored as a finite prefix of membership bits followed by a
nonempty period word that repeats forever.  Construction canonicalizes
the representation (primitive period, then shortest prefix), so two
``UPSet`` values compare equal exactly when they denote the same subset
of the naturals.  All the usual mod-finite relations (almost inclusion,
almost disjointness, splitting) are decided exactly on this fragment.

The stored bits are two ``bytes`` of 0/1, ``head`` (the prefix) and
``word`` (the period), and every operation reads them directly.  The
``prefix`` and ``period`` tuples of ints are views for callers, built on
first read.  The constructor takes bytes or any iterable of 0/1 ints and
canonicalizes on bytes: the primitive root, then the prefix bits that
the period continues backward, each found by a few bytes or int
operations, not a walk per bit.  ``&``, ``|`` and ``-`` read both
operands over the common window (the longer prefix, then the lcm of the
periods) as one Python int each, apply one int operation and hand the
unpacked bytes straight to the constructor, so no bit is converted one
at a time.  The relations build no set at all: past both prefixes,
offset i of a period p1 and offset j of a period p2 are read together
infinitely often iff the positions they stand for agree mod
gcd(p1, p2) (Chinese remainder theorem).  So each relation folds both
periods into residue classes mod the gcd and costs O(p1 + p2), never
the lcm.
"""

from __future__ import annotations

import itertools
from math import gcd, isqrt
from typing import Iterable


def lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def _primitive_root(word: bytes) -> bytes:
    """Shortest word whose repetition equals ``word`` repeated."""
    n = len(word)
    low = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    for d in low + [n // d for d in reversed(low) if d * d != n]:
        # a word of period d equals itself shifted by d
        if d < n and word[d:] == word[:-d]:
            return word[:d]
    return word


_TO_ASCII = bytes.maketrans(b"\x00\x01", b"01")
_FROM_ASCII = bytes.maketrans(b"01", b"\x00\x01")
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def _pack(bits: bytes) -> int:
    """The int whose binary digits, most significant first, are ``bits``."""
    return int(b"0" + bits.translate(_TO_ASCII), 2)


def _as_bits(bits) -> bytes:
    """Membership bits, given as bytes, a bytearray or an iterable of 0/1
    ints, as bytes; anything else raises ValueError."""
    try:
        out = bytes(bits if isinstance(bits, (bytes, bytearray)) else tuple(bits))
    except (TypeError, ValueError):  # entries that are no small ints
        out = b"\x02"
    if out.translate(None, b"\x00\x01"):
        raise ValueError("membership bits must be 0 or 1")
    return out


_set = object.__setattr__


class UPSet:
    """An ultimately periodic subset of omega, always in canonical form.

    ``head`` and ``word`` hold the canonical prefix and period as bytes
    of 0/1; ``prefix`` and ``period`` are the same bits as tuples of
    ints, built on first read and kept.  Instances are immutable.
    """

    __slots__ = ("head", "word", "_prefix", "_period", "_hash")

    def __init__(self, prefix, period) -> None:
        self.__post_init__(prefix, period)

    def __post_init__(self, prefix, period) -> None:
        word = _as_bits(period)
        if not word:
            raise ValueError("period must be nonempty")
        head = _as_bits(prefix)
        word = _primitive_root(word)
        # Absorb the trailing prefix bits that already match the period
        # run backward over the prefix; this yields the shortest possible
        # prefix for the denoted set.
        if head and head[-1] == word[-1]:
            m, p = len(head), len(word)
            diff = _pack(head) ^ _pack((word * (m // p + 1))[-m:])
            k = (diff & -diff).bit_length() - 1 if diff else m
            r = p - k % p
            head, word = head[: m - k], word[r:] + word[:r]
        _set(self, "head", head)
        _set(self, "word", word)

    @property
    def prefix(self) -> tuple[int, ...]:
        try:
            return self._prefix
        except AttributeError:
            _set(self, "_prefix", tuple(self.head))
            return self._prefix

    @property
    def period(self) -> tuple[int, ...]:
        try:
            return self._period
        except AttributeError:
            _set(self, "_period", tuple(self.word))
            return self._period

    def __setattr__(self, name, value):
        raise AttributeError(f"UPSet is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"UPSet is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return (type(self), (self.head, self.word))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.head == other.head and self.word == other.word
        return NotImplemented

    def __hash__(self) -> int:
        # the hash of the (prefix, period) tuple pair, as when they were
        # the stored fields, so set and dict orders stay as they were
        try:
            return self._hash
        except AttributeError:
            _set(self, "_hash", hash((tuple(self.head), tuple(self.word))))
            return self._hash

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(prefix={self.prefix!r}, period={self.period!r})"

    # -- construction ------------------------------------------------

    @classmethod
    def from_residues(cls, modulus: int, residues: Iterable[int]) -> "UPSet":
        """The set of k with k mod ``modulus`` in ``residues``."""
        if modulus < 1:
            raise ValueError("modulus must be positive")
        bits = bytearray(modulus)
        for r in residues:
            bits[r % modulus] = 1
        return cls(b"", bits)

    @classmethod
    def from_finite(cls, members: Iterable[int]) -> "UPSet":
        ms = sorted(set(members))
        if ms and ms[0] < 0:
            raise ValueError("members must be naturals")
        bits = bytearray(ms[-1] + 1 if ms else 0)
        for m in ms:
            bits[m] = 1
        return cls(bits, b"\x00")

    # -- queries -----------------------------------------------------

    def __contains__(self, k: int) -> bool:
        if k < 0:
            return False
        head = self.head
        if k < len(head):
            return head[k] == 1
        word = self.word
        return word[(k - len(head)) % len(word)] == 1

    @property
    def is_finite(self) -> bool:
        return 1 not in self.word

    @property
    def is_infinite(self) -> bool:
        return 1 in self.word

    @property
    def is_ic(self) -> bool:
        """Infinite and co-infinite."""
        return 1 in self.word and 0 in self.word

    def next_element(self, k: int) -> int:
        """Least member strictly above ``k`` (set must be infinite)."""
        if not self.is_infinite:
            raise ValueError("finite set has no next element eventually")
        head, word = self.head, self.word
        j = max(k + 1, 0)
        if j < len(head):
            found = head.find(1, j)
            if found >= 0:
                return found
            j = len(head)
        # the next 1 of the period at or after offset r, wrapping once
        r = (j - len(head)) % len(word)
        found = word.find(1, r)
        if found < 0:
            found = word.find(1) + len(word)
        return j + found - r

    # -- boolean algebra ----------------------------------------------

    def _window(self, width: int) -> int:
        """Membership bits over [0, width), width past the prefix, packed
        into one int: the packed period doubles until it covers the rest."""
        tail = width - len(self.head)
        word, bits = _pack(self.word), len(self.word)
        while bits < tail:
            word, bits = (word << bits) | word, 2 * bits
        return (_pack(self.head) << tail) | (word >> (bits - tail))

    def _combine(self, other: "UPSet", op) -> "UPSet":
        m = max(len(self.head), len(other.head))
        width = m + lcm(len(self.word), len(other.word))
        z = op(self._window(width), other._window(width))
        bits = format(z, f"0{width}b").encode().translate(_FROM_ASCII)
        return UPSet(bits[:m], bits[m:])

    def __and__(self, other: "UPSet") -> "UPSet":
        return self._combine(other, int.__and__)

    def __or__(self, other: "UPSet") -> "UPSet":
        return self._combine(other, int.__or__)

    def __sub__(self, other: "UPSet") -> "UPSet":
        return self._combine(other, lambda a, b: a & ~b)

    def complement(self) -> "UPSet":
        return UPSet(self.head.translate(_FLIP), self.word.translate(_FLIP))

    # -- literals -----------------------------------------------------

    def literal(self) -> str:
        text = (self.head + b"|" + self.word).translate(_TO_ASCII).decode()
        return text if self.head else "ε" + text

    def __str__(self) -> str:
        return self.literal()


EMPTY = UPSet((), (0,))
FULL = UPSet((), (1,))
EVENS = UPSet.from_residues(2, {0})
ODDS = UPSet.from_residues(2, {1})


def parse_upset(text: str) -> UPSet:
    """Parse a ``prefix|period`` bit-string literal, e.g. ``ε|10``."""
    if "|" not in text:
        raise ValueError(f"not an UPSet literal: {text!r}")
    pre, _, per = text.partition("|")
    if pre in ("ε", ""):
        pre = ""
    if not per or set(pre + per) - {"0", "1"}:
        raise ValueError(f"not an UPSet literal: {text!r}")
    return UPSet(pre.encode().translate(_FROM_ASCII), per.encode().translate(_FROM_ASCII))


def _fold(s: UPSet, g: int, bit: int) -> int:
    """Bit c is set iff s reads ``bit`` at infinitely many k = c mod g,
    for g dividing the period.  The period is packed into one int,
    reversed so that offset r lands on bit r, and its blocks of g bits
    are ORed together by halving their number: no per-bit or per-block
    walk."""
    p = len(s.word)
    x = _pack(s.word[::-1])
    if not bit:
        x ^= (1 << p) - 1
    blocks = p // g
    while blocks > 1:
        low = blocks // 2 * g
        x = (x >> low) | (x & ((1 << low) - 1))
        blocks -= blocks // 2
    shift = len(s.head) % g
    return ((x << shift) | (x >> (g - shift))) & ((1 << g) - 1)


def _recur_together(a: UPSet, abit: int, b: UPSet, bbit: int) -> bool:
    """Are there infinitely many k where a reads ``abit`` and b ``bbit``?"""
    g = gcd(len(a.word), len(b.word))
    return _fold(a, g, abit) & _fold(b, g, bbit) != 0


def almost_subset(a: UPSet, b: UPSet) -> bool:
    """a is contained in b up to finitely many exceptions."""
    return not _recur_together(a, 1, b, 0)


def almost_disjoint(a: UPSet, b: UPSet) -> bool:
    return not _recur_together(a, 1, b, 1)


def splits(c: UPSet, a: UPSet) -> bool:
    """Does the coloring c take both values infinitely often on a?"""
    if not a.is_infinite:
        raise ValueError("splitting is only defined for infinite sets")
    return _recur_together(a, 1, c, 1) and _recur_together(a, 1, c, 0)


def intersection_of(family: Iterable[UPSet]) -> UPSet:
    out = FULL
    for s in family:
        out = out & s
    return out


def is_centered(family: list[UPSet]) -> bool:
    """Every finite subfamily has infinite intersection.

    Intersections only shrink as the subfamily grows, so for a finite
    family it is enough that the full intersection is infinite.
    """
    if not family:
        raise ValueError("empty family")
    return intersection_of(family).is_infinite


def is_linearly_ordered(family: list[UPSet]) -> bool:
    """Totally preordered by almost-inclusion."""
    if not family:
        raise ValueError("empty family")
    return all(
        almost_subset(a, b) or almost_subset(b, a)
        for a, b in itertools.combinations(family, 2)
    )


def is_ad_family(family: list[UPSet]) -> bool:
    """Pairwise almost disjoint, every member infinite.

    A finite list can only ever be a sample of an infinite a.d. family;
    the catalog's ``AD_INFINITE`` property wraps this check and says so
    in its note (see ``tukeykit.catalog.AD_INFINITE``).
    """
    if not family:
        raise ValueError("empty family")
    if not all(s.is_infinite for s in family):
        return False
    return all(almost_disjoint(a, b) for a, b in itertools.combinations(family, 2))


def slice_by_index(b: UPSet, t: int, j: int) -> UPSet:
    """Members of b whose enumeration index is congruent to j mod t.

    For infinite b this carves b into t disjoint infinite pieces whose
    union is b; the result is again ultimately periodic because the
    running count of members cycles mod t along the period.
    """
    if t < 1 or not 0 <= j < t:
        raise ValueError("need t >= 1 and 0 <= j < t")
    n0 = len(b.head)
    # After t periods the position phase and the member count mod t
    # both return, so t periods are always a valid (possibly
    # non-primitive) period for the slice.
    word = b.head + b.word * t
    bits = bytearray(len(word))
    for k in list(itertools.compress(itertools.count(), word))[j::t]:
        bits[k] = 1
    return UPSet(bits[:n0], bits[n0:])


def partition_upset(b: UPSet, parts: int) -> list[UPSet]:
    """Split an infinite set into ``parts`` disjoint infinite pieces."""
    if not b.is_infinite:
        raise ValueError("can only partition an infinite set")
    return [slice_by_index(b, parts, j) for j in range(parts)]


def dyadic_family(count: int) -> list[UPSet]:
    """The sets {k : k = 2^i mod 2^(i+1)} for i below ``count``;
    a standard almost disjoint family that extends to an infinite one."""
    return [UPSet.from_residues(2 ** (i + 1), {2**i}) for i in range(count)]
