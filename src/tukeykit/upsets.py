"""Ultimately periodic subsets of omega with exact set algebra.

A set is stored as a finite prefix of membership bits followed by a
nonempty period word that repeats forever.  Construction canonicalizes
the representation (primitive period, then shortest prefix), so two
``UPSet`` values compare equal exactly when they denote the same subset
of the naturals.  All the usual mod-finite relations (almost inclusion,
almost disjointness, splitting) are decided exactly on this fragment.

The stored bits are two Python ints, least significant bit first:
``head`` has bit k set when k is a member below ``period_start``, and
``word`` has bit r set when offset r of the period (of length
``period_len``) is a member.  Every operation reads the ints directly;
the ``prefix`` and ``period`` tuples are views for callers, built on
first read.  The constructor packs bytes or any iterable of 0/1 ints
once; every result goes through the same int canonicalizer,
``UPSet.__post_init__``: the primitive root is the first divisor d of
the period length at which the word equals itself shifted by d, and
the prefix bits that the period continues backward are the top bits
where the prefix agrees with the period run backward over it, one xor
and one rotation.  ``&``, ``|`` and ``-`` read both operands over the
common window (the longer prefix, then the lcm of the periods) as one
int each and apply one int operation.  The relations build no set at
all: past both prefixes, offset i of a period p1 and offset j of a
period p2 are read together infinitely often iff the positions they
stand for agree mod gcd(p1, p2) (Chinese remainder theorem).  So each
relation folds both period words into residue classes mod the gcd and
costs O(p1 + p2), never the lcm.
"""

from __future__ import annotations

import itertools
from math import gcd, isqrt
from typing import Iterable


def lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def proper_divisors(n: int) -> list[int]:
    """The divisors of n below n, ascending, found up to ``isqrt(n)``."""
    low = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return (low + [n // d for d in reversed(low) if d * d != n])[:-1]


_TO_ASCII = bytes.maketrans(b"\x00\x01", b"01")
_FROM_ASCII = bytes.maketrans(b"01", b"\x00\x01")


def _pack(bits: bytes) -> int:
    """The int whose bit k is ``bits[k]``."""
    return int(b"0" + bits[::-1].translate(_TO_ASCII), 2)


def _digits(x: int, n: int) -> str:
    """Bits 0 to n - 1 of ``x`` as a string of 0/1, bit 0 first."""
    return format(x, f"0{n}b")[::-1] if n else ""


def _bits(x: int, n: int) -> bytes:
    """Bits 0 to n - 1 of ``x`` as bytes of 0/1, bit 0 first."""
    return _digits(x, n).encode().translate(_FROM_ASCII)


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

    ``head`` and ``word`` hold the canonical prefix and period as ints,
    bit k for offset k, with their lengths ``period_start`` and
    ``period_len``; ``prefix`` and ``period`` are the same bits as tuples
    of ints, built on first read and kept.  Instances are immutable.
    """

    __slots__ = ("head", "word", "period_start", "period_len", "_prefix", "_period")

    def __init__(self, prefix, period) -> None:
        head, word = _as_bits(prefix), _as_bits(period)
        if not word:
            raise ValueError("period must be nonempty")
        self.__post_init__(_pack(head + word), len(head), len(word))

    def __post_init__(self, bits: int, m: int, p: int) -> None:
        """Store the canonical form of the set whose bits 0 to m - 1 are
        the prefix and bits m to m + p - 1 one period."""
        head, word = bits & ((1 << m) - 1), bits >> m
        for d in proper_divisors(p):
            # a word of period d equals itself shifted by d
            if word >> d == word & ((1 << (p - d)) - 1):
                word &= (1 << d) - 1
                p = d
                break
        # Absorb the top prefix bits that already match the period run
        # backward over the prefix; this yields the shortest possible
        # prefix for the denoted set.
        if m and head >> (m - 1) == word >> (p - 1):
            back, width = word, p
            while width < m:
                back, width = back | (back << width), 2 * width
            # bit k of back >> (width - m) is offset k - m of the period
            n = (head ^ (back >> (width - m))).bit_length()
            r = (n - m) % p
            head &= (1 << n) - 1
            word = (word >> r) | ((word & ((1 << r) - 1)) << (p - r))
            m = n
        _set(self, "head", head)
        _set(self, "word", word)
        _set(self, "period_start", m)
        _set(self, "period_len", p)

    # The views are cached, not rebuilt per read: a caller that reads
    # both views once per bit (an oracle walking a set bit by bit) would
    # otherwise pay O(period) per bit, quadratic at periods of 2.5 * 10^5.
    @property
    def prefix(self) -> tuple[int, ...]:
        try:
            return self._prefix
        except AttributeError:
            _set(self, "_prefix", tuple(_bits(self.head, self.period_start)))
            return self._prefix

    @property
    def period(self) -> tuple[int, ...]:
        try:
            return self._period
        except AttributeError:
            _set(self, "_period", tuple(_bits(self.word, self.period_len)))
            return self._period

    def __setattr__(self, name, value):
        raise AttributeError(f"UPSet is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"UPSet is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return (
            type(self),
            (_bits(self.head, self.period_start), _bits(self.word, self.period_len)),
        )

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (
                self.period_start == other.period_start
                and self.period_len == other.period_len
                and self.head == other.head
                and self.word == other.word
            )
        return NotImplemented

    def __hash__(self) -> int:
        # the hash of the (prefix, period) tuple pair, as when they were
        # the stored fields, so set and dict orders stay as they were
        return hash((self.prefix, self.period))

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
        m = self.period_start
        if k < m:
            return (self.head >> k) & 1 == 1
        return (self.word >> ((k - m) % self.period_len)) & 1 == 1

    @property
    def is_finite(self) -> bool:
        return not self.word

    @property
    def is_infinite(self) -> bool:
        return self.word != 0

    @property
    def is_ic(self) -> bool:
        """Infinite and co-infinite: a primitive word longer than one bit
        holds both a 0 and a 1."""
        return self.period_len > 1

    # -- boolean algebra ----------------------------------------------

    def _window(self, width: int) -> int:
        """Membership bits over [0, width), width past the prefix, as one
        int: the period word doubles until it covers the rest."""
        m = self.period_start
        tail = width - m
        word, bits = self.word, self.period_len
        while bits < tail:
            word, bits = word | (word << bits), 2 * bits
        return self.head | ((word & ((1 << tail) - 1)) << m)

    def _combine(self, other: "UPSet", op) -> "UPSet":
        m = max(self.period_start, other.period_start)
        p = lcm(self.period_len, other.period_len)
        return _make(op(self._window(m + p), other._window(m + p)), m, p)

    def __and__(self, other: "UPSet") -> "UPSet":
        return self._combine(other, int.__and__)

    def __or__(self, other: "UPSet") -> "UPSet":
        return self._combine(other, int.__or__)

    def __sub__(self, other: "UPSet") -> "UPSet":
        return self._combine(other, lambda a, b: a & ~b)

    def complement(self) -> "UPSet":
        return FULL - self

    # -- literals -----------------------------------------------------

    def literal(self) -> str:
        head = _digits(self.head, self.period_start)
        return (head or "ε") + "|" + _digits(self.word, self.period_len)

    def __str__(self) -> str:
        return self.literal()


def _make(bits: int, m: int, p: int) -> UPSet:
    """The set whose bits 0 to m - 1 are the prefix and bits m to
    m + p - 1 one period, built without packing."""
    s = object.__new__(UPSet)
    s.__post_init__(bits, m, p)
    return s


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
    return _make(int((pre + per)[::-1], 2), len(pre), len(per))


def _fold(s: UPSet, g: int, bit: int) -> int:
    """Bit c is set iff s reads ``bit`` at infinitely many k = c mod g,
    for g dividing the period.  The blocks of g bits of the period word
    are ORed together by halving their number: no per-bit or per-block
    walk."""
    p, x = s.period_len, s.word
    if not bit:
        x ^= (1 << p) - 1
    blocks = p // g
    while blocks > 1:
        low = blocks // 2 * g
        x = (x >> low) | (x & ((1 << low) - 1))
        blocks -= blocks // 2
    shift = s.period_start % g
    return ((x << shift) | (x >> (g - shift))) & ((1 << g) - 1)


def _recur_together(a: UPSet, abit: int, b: UPSet, bbit: int) -> bool:
    """Are there infinitely many k where a reads ``abit`` and b ``bbit``?"""
    g = gcd(a.period_len, b.period_len)
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
    m, p = b.period_start, b.period_len
    head = list(itertools.compress(itertools.count(), _bits(b.head, m)))
    word = list(itertools.compress(itertools.count(), _bits(b.word, p)))
    # After t periods the position phase and the member count mod t
    # both return, so t periods are always a valid (possibly
    # non-primitive) period for the slice.  Copy q of the period starts
    # at member index len(head) + q * len(word).
    bits = bytearray(m + t * p)
    for k in head[j::t]:
        bits[k] = 1
    for q in range(t):
        start = m + q * p
        for k in word[(j - len(head) - q * len(word)) % t :: t]:
            bits[start + k] = 1
    return _make(_pack(bits), m, t * p)


def partition_upset(b: UPSet, parts: int) -> list[UPSet]:
    """Split an infinite set into ``parts`` disjoint infinite pieces."""
    if not b.is_infinite:
        raise ValueError("can only partition an infinite set")
    return [slice_by_index(b, parts, j) for j in range(parts)]


def dyadic_family(count: int) -> list[UPSet]:
    """The sets {k : k = 2^i mod 2^(i+1)} for i below ``count``;
    a standard almost disjoint family that extends to an infinite one."""
    return [UPSet.from_residues(2 ** (i + 1), {2**i}) for i in range(count)]
