"""Arithmetically periodic functions omega -> omega.

An ``APFunc`` has finitely many prefix values, then repeats a base block
of length p shifted upward by a constant drift on every pass, so the
value at ``n0 + q*p + i`` is ``base[i] + q*drift``.  Identity is
``APFunc((), (0,), 1)``.  Eventual domination and pointwise maxima are
computed exactly: slopes ``drift/p``, compared by cross-multiplying,
decide the generic case and a finite window over the lcm of the periods
settles ties.  At unequal slopes the maximum is the steeper function
from the least crossover K on, one past the last index where the other
exceeds it.  K is read off one common block past the common start, or,
when the other never exceeds it there, off the values before the start.

Nothing on the hot paths evaluates one index at a time.  ``window``
reads a run of values as the prefix slice followed by whole passes of
the block: a few passes as one comprehension over them, many passes as
one ``range`` per block position, written into its column of the run
by slice assignment; the two-function algorithms read two windows and
combine them with ``map``/``zip``.  The canonical form shortens the
block one prime factor of its length at a time (the lengths that fit
are the multiples of the least one, so the descent is exact and
compares at most e + 1 blocks per prime power q^e of the length),
counts, in one pass from the end, how many prefix values continue the
block backward, then slices the prefix and rotates the block once.
The scans that stop at their first answer read bounded spans; the
algorithms that build a window as long as a crossover refuse, before
allocating, one longer than ``_PREFIX_GUARD``.
"""

from __future__ import annotations

from itertools import compress, count, repeat
from operator import eq, floordiv, gt, le, ne, sub

from .errors import CertificateError, EnumerationBudget
from .records import Record, set_field
from .upsets import UPSet, almost_subset, lcm, prime_factors

# the longest window of values (a pre-canonical prefix included) that
# pointwise_max and _crossover build; a 10^6-value window takes about a
# second and some 100 MB
_PREFIX_GUARD = 2_000_000

# the fewest passes of a drifting block that _run fills column by
# column; below it one comprehension is faster.  Measured on a 2-vCPU
# Xeon VM (best of 15, comprehension -> columns): 16 passes of a 2-value
# block 3.6 -> 1.7 us, of a 100-value block 51 -> 57 us; 20 passes of
# 100 values 62 -> 61 us; 11 passes of 13 values 9.4 -> 12.8 us;
# 47 passes of 53 values 96 -> 69 us
_COLUMN_PASSES = 16


class APFunc(Record):
    """An arithmetically periodic function in canonical form."""

    __slots__ = ("prefix", "base", "drift")

    def __init__(self, prefix: tuple[int, ...], base: tuple[int, ...], drift: int = 0) -> None:
        # the benchmark's tracer counts constructions at __post_init__
        self.__post_init__(prefix, base, drift)

    def __post_init__(self, prefix, base, drift) -> None:
        prefix = tuple(prefix)
        base = tuple(base)
        if not base:
            raise ValueError("base block must be nonempty")
        # exact ints only: a float or a bool would build a function
        # that no literal denotes
        kinds = {type(drift), *map(type, prefix), *map(type, base)}
        if kinds != {int} or drift < 0 or min(prefix, default=0) < 0 or min(base) < 0:
            raise ValueError("values and drift must be naturals")
        base, drift = _reduce_block(base, drift)
        # Pull into the block the prefix values that continue its
        # arithmetic pattern backward: value m-1-j must read
        # base[p-1-j%p] - (j//p+1)*drift.  Count that run from the end,
        # then cut the prefix and rotate the block once.
        if prefix and prefix[-1] == base[-1] - drift:
            back = reversed(_run(base, drift, -len(prefix), 0))
            k = next(compress(count(), map(ne, reversed(prefix), back)), len(prefix))
            prefix = prefix[: len(prefix) - k]
            base = tuple(_run(base, drift, -k, len(base) - k))
        set_field(self, "prefix", prefix)
        set_field(self, "base", base)
        set_field(self, "drift", drift)

    # -- queries -----------------------------------------------------

    def __call__(self, k: int) -> int:
        if k < 0:
            raise ValueError("domain is omega")
        if k < len(self.prefix):
            return self.prefix[k]
        q, i = divmod(k - len(self.prefix), len(self.base))
        return self.base[i] + q * self.drift

    def window(self, start: int, stop: int) -> list[int]:
        """The values f(k) for start <= k < stop: the prefix slice, then
        whole passes of the block."""
        if start < 0:
            raise ValueError("domain is omega")
        if stop <= start:
            return []
        n0 = len(self.prefix)
        out = list(self.prefix[start:stop])
        if stop > n0:
            out += _run(self.base, self.drift, max(start, n0) - n0, stop - n0)
        return out

    def values(self, n: int) -> list[int]:
        return self.window(0, n)

    @property
    def period_start(self) -> int:
        return len(self.prefix)

    @property
    def period_len(self) -> int:
        return len(self.base)

    # -- literals -----------------------------------------------------

    def literal(self) -> str:
        return "{};{};{}".format(
            ",".join(map(str, self.prefix)),
            ",".join(map(str, self.base)),
            self.drift,
        )

    def __str__(self) -> str:
        return self.literal()


def _run(base: tuple[int, ...], drift: int, lo: int, hi: int) -> list[int]:
    """Offsets lo <= t < hi of the block's affine run, where offset
    q*p + i reads base[i] + q*drift; negative offsets run it backward.

    At drift 0 the block is repeated.  A drifting run over at least
    ``_COLUMN_PASSES`` passes fills each block position's column, every
    p-th slot, with one ``range``: a fixed cost per position, then a
    fraction of a comprehension's cost per value.  A shorter run is one
    comprehension, pass by pass, since over few passes the fixed costs
    dominate (one pass of a 2,491-value block is ten times slower by
    columns)."""
    p = len(base)
    q0, i0 = divmod(lo, p)
    q1 = -(-hi // p)
    if not drift:
        passes = list(base) * (q1 - q0)
    elif q1 - q0 < _COLUMN_PASSES:
        passes = [b + q * drift for q in range(q0, q1) for b in base]
    else:
        passes = [0] * ((q1 - q0) * p)
        first, stop = q0 * drift, q1 * drift
        for i, b in enumerate(base):
            passes[i::p] = range(b + first, b + stop, drift)
    return passes[i0 : i0 + hi - lo]


def _reduce_block(base: tuple[int, ...], drift: int) -> tuple[tuple[int, ...], int]:
    """Reduce the block to its shortest length, one prime of p at a time.

    Past the start, f(k) - k*drift/p repeats with period p, and a
    length d dividing p fits, with step drift*d/p, iff that sequence has
    period d and the step is an integer.  The periods of a periodic
    sequence are the multiples of its least one, and the integer steps
    come at the multiples of p/gcd(p, drift), so the lengths that fit
    are the multiples of one least length.  Hence for each prime q of p,
    cutting the block to p/q while that fits (which needs q to divide
    the drift, the step being drift/q) ends exactly at the least length,
    after at most e + 1 block comparisons per prime power q^e of p.
    Minimality propagates backward through the whole periodic region, so
    checking the stored block is exact."""
    p = len(base)
    for q in prime_factors(p):
        while p % q == 0 and drift % q == 0:
            d, step = p // q, drift // q
            # period d with step: each value is the one d earlier plus step
            if not all(map(eq, map(sub, base[d:], base), repeat(step))):
                break
            base, drift, p = base[:d], step, d
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


def _slope_order(f: APFunc, g: APFunc) -> int:
    """The sign of slope(f) - slope(g), by cross-multiplying."""
    a, b = f.drift * g.period_len, g.drift * f.period_len
    return (a > b) - (a < b)


def _guarded(n: int, what: str) -> int:
    if n > _PREFIX_GUARD:
        raise EnumerationBudget(
            f"{what} needs a window of {n} values, above the guard of {_PREFIX_GUARD}"
        )
    return n


def _spans(start: int, stop: int):
    """[start, stop) in spans that double from 64 values up to 65,536,
    so a scan that stops early reads at most about twice what it needed
    and a scan of any length holds one bounded span at a time."""
    size = 64
    while start < stop:
        yield start, min(start + size, stop)
        start, size = start + size, min(2 * size, 1 << 16)


def eventually_dominates(f: APFunc, g: APFunc) -> bool:
    """True when g(k) <= f(k) for all but finitely many k."""
    order = _slope_order(f, g)
    if order:
        return order > 0
    start, width = _aligned(f, g)
    spans = _spans(start, start + width)
    return all(all(map(le, g.window(lo, hi), f.window(lo, hi))) for lo, hi in spans)


def _crossover(hi: APFunc, lo: APFunc) -> int:
    """The least K with hi(k) >= lo(k) for every k >= K: one past the
    last index where lo exceeds hi, or 0 when there is none.

    Requires slope(hi) > slope(lo).  Past the common start each residue
    class of the common block grows its difference by a fixed positive
    step per block, so class i is negative in exactly its first
    t_i = -(diff_i // step) blocks.  The last negative index then lies
    in block t - 1 for the largest t_i = t, at the latest class with it.
    When no class is negative past the start, the last negative index,
    if any, lies below it and is read from the two windows [0, start).
    """
    start, width = _aligned(hi, lo)
    step = hi.drift * (width // hi.period_len) - lo.drift * (width // lo.period_len)
    if step <= 0:
        raise ValueError("crossover needs strictly larger slope")
    stop = _guarded(start + width, "crossover")
    floors = list(
        map(floordiv, map(sub, hi.window(start, stop), lo.window(start, stop)), repeat(step))
    )
    least = min(floors)
    if least < 0:
        # one past the latest class among those negative longest
        return stop - floors[::-1].index(least) - (least + 1) * width
    above = map(gt, reversed(lo.window(0, start)), reversed(hi.window(0, start)))
    return next(compress(count(start, -1), above), 0)


def _maxima(xs: list[int], ys: list[int]) -> list[int]:
    # a comparison per pair runs about four times faster than map(max, ...)
    return [x if x >= y else y for x, y in zip(xs, ys)]


def pointwise_max(f: APFunc, g: APFunc) -> APFunc:
    """The pointwise maximum, re-expressed as an APFunc.

    At unequal slopes the maximum is the steeper function from the least
    crossover K on (see ``_crossover``), so the prefix holds the maxima
    over [0, max(K, hi's period start)) and hi's next block follows."""
    order = _slope_order(f, g)
    if order == 0:
        start, width = _aligned(f, g)
        stop = _guarded(start + width, "pointwise_max")
        both = _maxima(f.window(0, stop), g.window(0, stop))
        drift = f.drift * (width // f.period_len)
        return APFunc(tuple(both[:start]), tuple(both[start:]), drift)
    hi, lo = (f, g) if order > 0 else (g, f)
    # from n on the maximum is hi, so hi's next block continues it
    n = max(_crossover(hi, lo), hi.period_start)
    _guarded(n + hi.period_len, "pointwise_max")
    prefix = tuple(_maxima(f.window(0, n), g.window(0, n)))
    return APFunc(prefix, tuple(hi.window(n, n + hi.period_len)), hi.drift)


def first_difference(f: APFunc, g: APFunc) -> int | None:
    """Least k with f(k) != g(k), or None when the functions are equal.

    Past the common start each residue class of the common block changes
    its difference by one fixed step per block, zero exactly when the
    slopes agree; so distinct functions differ within one block past the
    start at equal slopes and within two otherwise.
    """
    if f == g:
        return None
    start, width = _aligned(f, g)
    blocks = 1 if _slope_order(f, g) == 0 else 2
    for lo, hi in _spans(0, start + blocks * width):
        differ = map(ne, f.window(lo, hi), g.window(lo, hi))
        k = next(compress(count(lo), differ), None)
        if k is not None:
            return k
    raise CertificateError("distinct canonical forms must differ within the bound")


def level_set(f: APFunc, v: int) -> UPSet:
    """The set {k : f(k) = v}, always ultimately periodic.

    With zero drift the block repeats verbatim; with positive drift each
    residue class hits v at most once, leaving a finite set.
    """
    hits_prefix = bytes([x == v for x in f.prefix])
    n0, p = f.period_start, f.period_len
    if f.drift == 0:
        return UPSet(hits_prefix, bytes([b == v for b in f.base]))
    members = [k for k, bit in enumerate(hits_prefix) if bit]
    for i, b in enumerate(f.base):
        if v >= b and (v - b) % f.drift == 0:
            members.append(n0 + (v - b) // f.drift * p + i)
    return UPSet.from_finite(members)


def bit_coloring(f: APFunc, i: int) -> UPSet:
    """The 2-coloring reading bit i of each value (zero-drift only)."""
    if f.drift != 0:
        raise ValueError("bit colorings need an eventually bounded function")
    prefix = bytes([(v >> i) & 1 for v in f.prefix])
    block = bytes([(v >> i) & 1 for v in f.base])
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
    n0, d = a.period_start, a.period_len
    # one backward pass over the prefix and two copies of the period:
    # every k below n0 + d has its next member in that window
    bits = a.prefix + a.period * 2
    above = None
    nexts = []
    for j in range(len(bits) - 1, -1, -1):
        nexts.append(above)
        if bits[j]:
            above = j
    nexts.reverse()
    return APFunc(tuple(nexts[:n0]), tuple(nexts[n0 : n0 + d]), d)
