"""Ultimately periodic subsets of omega with exact set algebra.

A set is stored as a finite prefix of membership bits followed by a
nonempty period word that repeats forever.  Construction canonicalizes
the representation (primitive period, then shortest prefix), so two
``UPSet`` values compare equal exactly when they denote the same subset
of the naturals.  All the usual mod-finite relations (almost inclusion,
almost disjointness, splitting) are decided exactly on this fragment.

The stored bits are tuples of 0/1 ints, but the constructor takes them
as bytes or as a tuple and canonicalizes on bytes: the primitive root,
then the prefix bits that the period continues backward, each found by
a few bytes or int operations, not a walk per bit.  ``&``, ``|`` and
``-`` read both operands over the common window (the longer prefix,
then the lcm of the periods) as one Python int each, apply one int
operation and hand the unpacked bytes straight to the constructor, so
the only per-bit conversion is the final one into the stored tuples.
The relations build no set at all: past both prefixes, offset i of a
period p1 and offset j of a period p2 are read together infinitely
often iff the positions they stand for agree mod gcd(p1, p2) (Chinese
remainder theorem).  So each relation folds both periods into residue
classes mod the gcd and costs O(p1 + p2), never the lcm.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, isqrt
from typing import Iterable, Iterator

from .errors import CertificateError


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
    """Membership bits, given as bytes or as an iterable of 0/1 ints,
    as bytes; anything else raises ValueError."""
    try:
        out = bits if isinstance(bits, bytes) else bytes(tuple(bits))
    except (TypeError, ValueError):  # entries that are no small ints
        out = b"\x02"
    if out.translate(None, b"\x00\x01"):
        raise ValueError("membership bits must be 0 or 1")
    return out


@dataclass(frozen=True)
class UPSet:
    """An ultimately periodic subset of omega, always in canonical form."""

    prefix: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self) -> None:
        word = _as_bits(self.period)
        if not word:
            raise ValueError("period must be nonempty")
        head = _as_bits(self.prefix)
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
        object.__setattr__(self, "prefix", tuple(head))
        object.__setattr__(self, "period", tuple(word))

    # -- construction ------------------------------------------------

    @classmethod
    def from_residues(cls, modulus: int, residues: Iterable[int]) -> "UPSet":
        """The set of k with k mod ``modulus`` in ``residues``."""
        if modulus < 1:
            raise ValueError("modulus must be positive")
        rs = {r % modulus for r in residues}
        return cls((), tuple(1 if i in rs else 0 for i in range(modulus)))

    @classmethod
    def from_finite(cls, members: Iterable[int]) -> "UPSet":
        ms = sorted(set(members))
        if ms and ms[0] < 0:
            raise ValueError("members must be naturals")
        top = ms[-1] + 1 if ms else 0
        bits = [0] * top
        for m in ms:
            bits[m] = 1
        return cls(tuple(bits), (0,))

    # -- queries -----------------------------------------------------

    def __contains__(self, k: int) -> bool:
        if k < 0:
            return False
        if k < len(self.prefix):
            return self.prefix[k] == 1
        return self.period[(k - len(self.prefix)) % len(self.period)] == 1

    def bit(self, k: int) -> int:
        return 1 if k in self else 0

    @property
    def is_finite(self) -> bool:
        return 1 not in self.period

    @property
    def is_infinite(self) -> bool:
        return 1 in self.period

    @property
    def is_cofinite(self) -> bool:
        return 0 not in self.period

    @property
    def is_ic(self) -> bool:
        """Infinite and co-infinite."""
        return 1 in self.period and 0 in self.period

    def elements(self) -> Iterator[int]:
        for k in itertools.count():
            if k in self:
                yield k
            elif k >= len(self.prefix) and self.is_finite:
                return

    def elements_below(self, n: int) -> list[int]:
        """The members below ``n`` in increasing order: the prefix's, then
        the period's offsets shifted by each repetition."""
        start = len(self.prefix)
        out = [k for k, bit in enumerate(self.prefix[: max(n, 0)]) if bit]
        offsets = [i for i, bit in enumerate(self.period) if bit]
        p = len(self.period)
        full = start + max(n - start, 0) // p * p
        out += [base + i for base in range(start, full, p) for i in offsets]
        out += [full + i for i in offsets if full + i < n]
        return out

    def next_element(self, k: int) -> int:
        """Least member strictly above ``k`` (set must be infinite)."""
        if not self.is_infinite:
            raise ValueError("finite set has no next element eventually")
        stop = max(k + 1, len(self.prefix)) + len(self.period) + 1
        for j in range(k + 1, stop):
            if j in self:
                return j
        raise CertificateError("unreachable for infinite sets")

    # -- boolean algebra ----------------------------------------------

    def _window(self, width: int) -> int:
        """Membership bits over [0, width), width past the prefix, packed
        into one int: the packed period doubles until it covers the rest."""
        tail = width - len(self.prefix)
        word, bits = _pack(bytes(self.period)), len(self.period)
        while bits < tail:
            word, bits = (word << bits) | word, 2 * bits
        return (_pack(bytes(self.prefix)) << tail) | (word >> (bits - tail))

    def _combine(self, other: "UPSet", op) -> "UPSet":
        m = max(len(self.prefix), len(other.prefix))
        width = m + lcm(len(self.period), len(other.period))
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
        return UPSet(
            bytes(self.prefix).translate(_FLIP), bytes(self.period).translate(_FLIP)
        )

    # -- literals -----------------------------------------------------

    def literal(self) -> str:
        pre = "".join(map(str, self.prefix)) or "ε"
        return pre + "|" + "".join(map(str, self.period))

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
    return UPSet(tuple(int(c) for c in pre), tuple(int(c) for c in per))


def upset_algebra(a: UPSet, b: UPSet | None, op: str) -> UPSet:
    """Named boolean combinations; ``complement`` ignores ``b``."""
    if op == "complement":
        return a.complement()
    if b is None:
        raise ValueError(f"operation {op!r} needs two sets")
    if op == "intersect":
        return a & b
    if op == "union":
        return a | b
    if op == "minus":
        return a - b
    raise ValueError(f"unknown operation {op!r}")


def _fold(s: UPSet, g: int, bit: int) -> int:
    """Bit c is set iff s reads ``bit`` at infinitely many k = c mod g,
    for g dividing the period: min(g, period/g) slices, no per-bit walk."""
    word = bytes(s.period) if bit else bytes(s.period).translate(_FLIP)
    p = len(word)
    if g * g <= p:  # few classes: one slice per class of offsets
        mask = sum(1 << r for r in range(g) if 1 in word[r::g])
    else:  # few blocks: OR them, reversed so that offset r lands on bit r
        mask = 0
        word = word[::-1]
        for q in range(0, p, g):
            mask |= _pack(word[q : q + g])
    shift = len(s.prefix) % g
    return ((mask << shift) | (mask >> (g - shift))) & ((1 << g) - 1)


def _recur_together(a: UPSet, abit: int, b: UPSet, bbit: int) -> bool:
    """Are there infinitely many k where a reads ``abit`` and b ``bbit``?"""
    g = gcd(len(a.period), len(b.period))
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
    n0 = len(b.prefix)
    # After t periods the position phase and the member count mod t
    # both return, so t periods are always a valid (possibly
    # non-primitive) period for the slice.
    word = bytes(b.prefix) + bytes(b.period) * t
    bits = bytearray(len(word))
    for k in list(itertools.compress(itertools.count(), word))[j::t]:
        bits[k] = 1
    return UPSet(bytes(bits[:n0]), bytes(bits[n0:]))


def partition_upset(b: UPSet, parts: int) -> list[UPSet]:
    """Split an infinite set into ``parts`` disjoint infinite pieces."""
    if not b.is_infinite:
        raise ValueError("can only partition an infinite set")
    return [slice_by_index(b, parts, j) for j in range(parts)]


def dyadic_family(count: int) -> list[UPSet]:
    """The sets {k : k = 2^i mod 2^(i+1)} for i below ``count``;
    a standard almost disjoint family that extends to an infinite one."""
    return [UPSet.from_residues(2 ** (i + 1), {2**i}) for i in range(count)]
