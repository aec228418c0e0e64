"""Reference implementations of the ``UPSet`` algebra: the per-bit walk
over the lcm window, the primitive root by a scan over every length,
the prefix absorbed one bit at a time, complements flipped bit by bit,
literals joined from the tuples, relations read off materialized
differences, and slices counted by membership tests.  The differential
tests compare the library's packed and folded paths against these.

Results are canonical ``(prefix, period)`` tuple pairs, built without
the library's constructor."""

import itertools
from math import lcm

from tukeykit.upsets import UPSet

Bits = tuple[int, ...]


def primitive_root(word: Bits) -> Bits:
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word == word[:d] * (n // d):
            return word[:d]
    return word


def canonical(prefix: Bits, period: Bits) -> tuple[Bits, Bits]:
    prefix, period = tuple(prefix), primitive_root(tuple(period))
    while prefix and prefix[-1] == period[-1]:
        period = (period[-1],) + period[:-1]
        prefix = prefix[:-1]
    return prefix, period


def combine(a: UPSet, b: UPSet, fn) -> tuple[Bits, Bits]:
    m = max(len(a.prefix), len(b.prefix))
    d = lcm(len(a.period), len(b.period))
    prefix = tuple(fn(int(k in a), int(k in b)) for k in range(m))
    period = tuple(fn(int(k in a), int(k in b)) for k in range(m, m + d))
    return canonical(prefix, period)


def complement(a: UPSet) -> tuple[Bits, Bits]:
    n0, p = len(a.prefix), len(a.period)
    bits = tuple(int(k not in a) for k in range(n0 + p))
    return canonical(bits[:n0], bits[n0:])


def literal(prefix: Bits, period: Bits) -> str:
    return ("".join(map(str, prefix)) or "ε") + "|" + "".join(map(str, period))


OPS = {
    "and": lambda x, y: x & y,
    "or": lambda x, y: x | y,
    "minus": lambda x, y: x & (1 - y),
}


def is_infinite(bits: tuple[Bits, Bits]) -> bool:
    return 1 in bits[1]


def almost_subset(a: UPSet, b: UPSet) -> bool:
    return not is_infinite(combine(a, b, OPS["minus"]))


def almost_disjoint(a: UPSet, b: UPSet) -> bool:
    return not is_infinite(combine(a, b, OPS["and"]))


def splits(c: UPSet, a: UPSet) -> bool:
    return is_infinite(combine(a, c, OPS["and"])) and is_infinite(
        combine(a, c, OPS["minus"])
    )


def is_centered(family: list[UPSet]) -> bool:
    out = canonical((), (1,))
    for s in family:
        out = combine(UPSet(*out), s, OPS["and"])
    return is_infinite(out)


def is_linearly_ordered(family: list[UPSet]) -> bool:
    return all(
        almost_subset(a, b) or almost_subset(b, a)
        for a, b in itertools.combinations(family, 2)
    )


def is_ad_family(family: list[UPSet]) -> bool:
    return all(s.is_infinite for s in family) and all(
        almost_disjoint(a, b) for a, b in itertools.combinations(family, 2)
    )


def slice_by_index(b: UPSet, t: int, j: int) -> tuple[Bits, Bits]:
    n0 = len(b.prefix)
    bits = []
    count = 0
    for k in range(n0 + len(b.period) * t):
        if k in b:
            bits.append(1 if count % t == j else 0)
            count += 1
        else:
            bits.append(0)
    return canonical(tuple(bits[:n0]), tuple(bits[n0:]))
