"""Reference implementations of the ``APFunc`` algorithms: values read
one index at a time, the prefix absorbed into the block one value at a
time, slopes compared as fractions, and maxima, crossovers and first
differences walked position by position.  The differential tests
compare the library's block-evaluated paths against these.

Functions go in as ``APFunc`` values (only their public fields are
read); results come out as canonical ``(prefix, base, drift)`` triples,
and sets as canonical ``(prefix, period)`` bit pairs, built without the
library's constructors."""

from fractions import Fraction
from math import lcm

import reference_upsets

Values = tuple[int, ...]
Triple = tuple[Values, Values, int]


def value(f, k: int) -> int:
    if k < len(f.prefix):
        return f.prefix[k]
    q, i = divmod(k - len(f.prefix), len(f.base))
    return f.base[i] + q * f.drift


def window(f, start: int, stop: int) -> list[int]:
    return [value(f, k) for k in range(start, stop)]


def run(base: Values, drift: int, lo: int, hi: int) -> list[int]:
    """Offsets lo <= t < hi of the block's affine run, negative offsets
    included, one divmod per offset."""
    return [base[t % len(base)] + (t // len(base)) * drift for t in range(lo, hi)]


def slope(f) -> Fraction:
    return Fraction(f.drift, len(f.base))


def reduce_block(base: Values, drift: int) -> tuple[Values, int]:
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


def canonical(prefix: Values, base: Values, drift: int) -> Triple:
    prefix = tuple(prefix)
    base, drift = reduce_block(tuple(base), drift)
    while prefix and base[-1] - drift == prefix[-1]:
        base = (base[-1] - drift,) + base[:-1]
        prefix = prefix[:-1]
    return prefix, base, drift


def aligned(f, g) -> tuple[int, int]:
    return max(len(f.prefix), len(g.prefix)), lcm(len(f.base), len(g.base))


def eventually_dominates(f, g) -> bool:
    if slope(g) != slope(f):
        return slope(g) < slope(f)
    start, width = aligned(f, g)
    return all(value(g, k) <= value(f, k) for k in range(start, start + width))


def first_good(hi, lo) -> int:
    """An index from which hi(k) >= lo(k) on: the common start, or the
    first index past it of the residue class that turns last, if later."""
    start, width = aligned(hi, lo)
    step = hi.drift * (width // len(hi.base)) - lo.drift * (width // len(lo.base))
    out = start
    for i in range(width):
        diff = value(hi, start + i) - value(lo, start + i)
        t = 0 if diff >= 0 else (-diff + step - 1) // step
        out = max(out, start + i + t * width)
    return out


def crossover(hi, lo) -> int:
    """One past the last index where lo exceeds hi, or 0 when none does,
    walked index by index up to ``first_good``."""
    above = [k for k in range(first_good(hi, lo)) if value(lo, k) > value(hi, k)]
    return above[-1] + 1 if above else 0


def pointwise_max(f, g) -> Triple:
    if slope(f) == slope(g):
        start, width = aligned(f, g)
        prefix = tuple(max(value(f, k), value(g, k)) for k in range(start))
        block = tuple(max(value(f, k), value(g, k)) for k in range(start, start + width))
        return canonical(prefix, block, f.drift * (width // len(f.base)))
    hi, lo = (f, g) if slope(f) > slope(g) else (g, f)
    n = max(crossover(hi, lo), len(hi.prefix))
    n += (-(n - len(hi.prefix))) % len(hi.base)
    prefix = tuple(max(value(f, k), value(g, k)) for k in range(n))
    block = tuple(value(hi, n + i) for i in range(len(hi.base)))
    return canonical(prefix, block, hi.drift)


def first_difference(f, g) -> int | None:
    if (f.prefix, f.base, f.drift) == (g.prefix, g.base, g.drift):
        return None
    start, width = aligned(f, g)
    if slope(f) == slope(g):
        bound = start + width
    else:
        hi, lo = (f, g) if slope(f) > slope(g) else (g, f)
        bound = first_good(hi, lo) + 2 * width
    for k in range(bound):
        if value(f, k) != value(g, k):
            return k
    raise AssertionError("distinct canonical forms must differ within the bound")


def level_set(f, v: int) -> tuple[Values, Values]:
    """Bits of {k : f(k) = v}: with positive drift every value past
    ``v + 1`` blocks exceeds v, so the set ends there."""
    n0, p = len(f.prefix), len(f.base)
    if f.drift == 0:
        return reference_upsets.canonical(
            tuple(1 if value(f, k) == v else 0 for k in range(n0)),
            tuple(1 if value(f, n0 + i) == v else 0 for i in range(p)),
        )
    top = n0 + (v + 1) * p
    return reference_upsets.canonical(
        tuple(1 if value(f, k) == v else 0 for k in range(top)), (0,)
    )


def value_parity_set(f) -> tuple[Values, Values]:
    n0, p = len(f.prefix), len(f.base)
    return reference_upsets.canonical(
        tuple(value(f, k) % 2 for k in range(n0)),
        tuple(value(f, n0 + i) % 2 for i in range(2 * p)),
    )
