"""Arithmetically periodic functions omega -> omega.

An ``APFunc`` has finitely many prefix values, then repeats a base block
of length p shifted upward by a constant drift on every pass, so the
value at ``n0 + q*p + i`` is ``base[i] + q*drift``.  Identity is
``APFunc((), (0,), 1)``.  Eventual domination and pointwise maxima are
computed exactly: rational slopes decide the generic case and a finite
window over the lcm of the periods settles ties.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .upsets import UPSet, almost_subset, lcm


@dataclass(frozen=True)
class APFunc:
    """An arithmetically periodic function in canonical form."""

    prefix: tuple[int, ...]
    base: tuple[int, ...]
    drift: int = 0

    def __post_init__(self) -> None:
        prefix = tuple(self.prefix)
        base = tuple(self.base)
        drift = self.drift
        if not base:
            raise ValueError("base block must be nonempty")
        if drift < 0 or any(v < 0 for v in prefix + base):
            raise ValueError("values and drift must be naturals")
        base, drift = _reduce_block(base, drift)
        # Pull prefix values into the block when they continue its
        # arithmetic pattern one step earlier.
        while prefix and base[-1] - drift == prefix[-1]:
            base = (base[-1] - drift,) + base[:-1]
            prefix = prefix[:-1]
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "drift", drift)

    # -- queries -----------------------------------------------------

    def __call__(self, k: int) -> int:
        if k < 0:
            raise ValueError("domain is omega")
        if k < len(self.prefix):
            return self.prefix[k]
        q, i = divmod(k - len(self.prefix), len(self.base))
        return self.base[i] + q * self.drift

    def values(self, n: int) -> list[int]:
        return [self(k) for k in range(n)]

    @property
    def period_start(self) -> int:
        return len(self.prefix)

    @property
    def period_len(self) -> int:
        return len(self.base)

    @property
    def slope(self) -> Fraction:
        return Fraction(self.drift, len(self.base))

    # -- literals -----------------------------------------------------

    def literal(self) -> str:
        return "{};{};{}".format(
            ",".join(map(str, self.prefix)),
            ",".join(map(str, self.base)),
            self.drift,
        )

    def __str__(self) -> str:
        return self.literal()


def _reduce_block(base: tuple[int, ...], drift: int) -> tuple[tuple[int, ...], int]:
    """Reduce the block to the shortest divisor length compatible with
    the affine repetition; minimality propagates backward through the
    whole periodic region, so checking the stored block is exact."""
    p = len(base)
    for d in range(1, p):
        if p % d or (drift * d) % p:
            continue
        step = drift * d // p
        if all(
            base[i + j * d] == base[i] + j * step
            for j in range(p // d)
            for i in range(d)
        ):
            return base[:d], step
    return base, drift


IDENTITY = APFunc((), (0,), 1)
ZERO = APFunc((), (0,), 0)


def constant(v: int) -> APFunc:
    return APFunc((), (v,), 0)


def parse_apfunc(text: str) -> APFunc:
    """Parse a ``prefix;base;drift`` literal such as ``10,9;0;1``."""
    parts = text.split(";")
    if len(parts) != 3:
        raise ValueError(f"not an APFunc literal: {text!r}")
    pre_s, base_s, drift_s = parts
    try:
        prefix = tuple(int(v) for v in pre_s.split(",")) if pre_s else ()
        base = tuple(int(v) for v in base_s.split(","))
        drift = int(drift_s)
    except ValueError as exc:
        raise ValueError(f"not an APFunc literal: {text!r}") from exc
    return APFunc(prefix, base, drift)


def _aligned(f: APFunc, g: APFunc) -> tuple[int, int]:
    """Common start index and common block length for two functions."""
    return max(f.period_start, g.period_start), lcm(f.period_len, g.period_len)


def eventually_dominates(f: APFunc, g: APFunc) -> bool:
    """True when g(k) <= f(k) for all but finitely many k."""
    if g.slope != f.slope:
        return g.slope < f.slope
    start, width = _aligned(f, g)
    return all(g(k) <= f(k) for k in range(start, start + width))


def _crossover(hi: APFunc, lo: APFunc) -> int:
    """First index K with hi(k) >= lo(k) for every k >= K.

    Requires slope(hi) > slope(lo); per residue class of the common
    block the difference grows by a fixed positive step, so the last
    class to turn permanently nonnegative determines K.
    """
    start, width = _aligned(hi, lo)
    step = hi.drift * (width // hi.period_len) - lo.drift * (width // lo.period_len)
    if step <= 0:
        raise ValueError("crossover needs strictly larger slope")
    out = start
    for i in range(width):
        diff = hi(start + i) - lo(start + i)
        t = 0 if diff >= 0 else (-diff + step - 1) // step
        out = max(out, start + i + t * width)
    return out


def pointwise_max(f: APFunc, g: APFunc) -> APFunc:
    """The pointwise maximum, re-expressed as an APFunc."""
    if f.slope == g.slope:
        start, width = _aligned(f, g)
        block = tuple(max(f(start + i), g(start + i)) for i in range(width))
        drift = f.drift * (width // f.period_len)
        return APFunc(tuple(max(f(k), g(k)) for k in range(start)), block, drift)
    hi, lo = (f, g) if f.slope > g.slope else (g, f)
    cross = _crossover(hi, lo)
    # Align the tail with hi's own block so the result is exactly hi
    # from some index onward.
    n = max(cross, hi.period_start)
    n += (-(n - hi.period_start)) % hi.period_len
    prefix = tuple(max(f(k), g(k)) for k in range(n))
    block = tuple(hi(n + i) for i in range(hi.period_len))
    return APFunc(prefix, block, hi.drift)


def first_difference(f: APFunc, g: APFunc) -> int | None:
    """Least k with f(k) != g(k), or None when the functions are equal."""
    if f == g:
        return None
    start, width = _aligned(f, g)
    if f.slope == g.slope:
        bound = start + width
    else:
        hi, lo = (f, g) if f.slope > g.slope else (g, f)
        bound = _crossover(hi, lo) + 2 * width
    for k in range(bound):
        if f(k) != g(k):
            return k
    raise AssertionError("distinct canonical forms must differ within the bound")


def level_set(f: APFunc, v: int) -> UPSet:
    """The set {k : f(k) = v}, always ultimately periodic.

    With zero drift the block repeats verbatim; with positive drift each
    residue class hits v at most once, leaving a finite set.
    """
    hits_prefix = [1 if x == v else 0 for x in f.prefix]
    n0, p = f.period_start, f.period_len
    if f.drift == 0:
        return UPSet(tuple(hits_prefix), tuple(1 if b == v else 0 for b in f.base))
    members = [k for k, bit in enumerate(hits_prefix) if bit]
    for i, b in enumerate(f.base):
        if v >= b and (v - b) % f.drift == 0:
            members.append(n0 + (v - b) // f.drift * p + i)
    return UPSet.from_finite(members)


def value_parity_set(f: APFunc) -> UPSet:
    """The set {k : f(k) is odd}; periodic because parity cycles with
    period at most 2 in the pass count."""
    n0, p = f.period_start, f.period_len
    width = p if f.drift % 2 == 0 else 2 * p
    prefix = tuple(f(k) % 2 for k in range(n0))
    block = tuple(f(n0 + i) % 2 for i in range(width))
    return UPSet(prefix, block)


def bit_coloring(f: APFunc, i: int) -> UPSet:
    """The 2-coloring reading bit i of each value (zero-drift only)."""
    if f.drift != 0:
        raise ValueError("bit colorings need an eventually bounded function")
    prefix = tuple((v >> i) & 1 for v in f.prefix)
    block = tuple((v >> i) & 1 for v in f.base)
    return UPSet(prefix, block)


def is_coloring(f: APFunc, colors: int) -> bool:
    """Does f take values below ``colors`` everywhere?"""
    return f.drift == 0 and all(v < colors for v in f.prefix + f.base)


def almost_constant_on(c: APFunc, b: UPSet) -> bool:
    """Is c constant on b up to finitely many exceptions?"""
    if not b.is_infinite:
        raise ValueError("almost-constancy is judged on infinite sets")
    if c.drift != 0:
        return False
    return any(almost_subset(b, level_set(c, v)) for v in set(c.base))


def next_element_func(a: UPSet) -> APFunc:
    """k -> least member of ``a`` strictly above k, as an APFunc.

    Beyond the prefix the answer shifts with the period, giving drift
    equal to the period length.
    """
    if not a.is_infinite:
        raise ValueError("needs an infinite set")
    n0 = len(a.prefix)
    d = len(a.period)
    prefix = tuple(a.next_element(k) for k in range(n0))
    block = tuple(a.next_element(n0 + i) for i in range(d))
    return APFunc(prefix, block, d)


def gap_func(a: UPSet) -> APFunc:
    """k -> gap between the k-th and (k+1)-th member of ``a``.

    Gaps repeat once the enumeration enters the periodic region, so the
    sequence is eventually periodic with zero drift.
    """
    if not a.is_infinite:
        raise ValueError("needs an infinite set")
    n0 = len(a.prefix)
    d = len(a.period)
    ones = sum(a.period)
    settled = sum(1 for k in range(n0) if k in a)
    # members per period block is ``ones``, so this horizon covers one
    # full gap cycle past the prefix with room to spare
    members = a.elements_below(n0 + (settled + ones + 3) * d + 1)
    gaps = [b - x for x, b in zip(members, members[1:])]
    return APFunc(tuple(gaps[:settled]), tuple(gaps[settled : settled + ones]), 0)
