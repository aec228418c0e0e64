"""Independent oracles for the benchmark's verdict checks.

Each oracle is written against the mathematical definition and reads
only the raw fields of tukeykit values (``prefix``/``period`` of a set,
``prefix``/``base``/``drift`` of a function, ``nodes`` of a tuple), so a
bug in a tukeykit fast path cannot hide behind the same bug here.
"""

from __future__ import annotations

from itertools import combinations, product
from math import gcd, isqrt


def lcm(*ns: int) -> int:
    out = 1
    for n in ns:
        out = out * n // gcd(out, n)
    return out


# -- ultimately periodic sets --------------------------------------------


def bit(s, k: int) -> int:
    pre, per = s.prefix, s.period
    return pre[k] if k < len(pre) else per[(k - len(pre)) % len(per)]


def periodic_window(*sets) -> range:
    """One full common period past every prefix: any mod-finite
    relation between the sets is decided on this window."""
    start = max(len(s.prefix) for s in sets)
    return range(start, start + lcm(*(len(s.period) for s in sets)))


def same_set_on(result, window_end: int, period: int, expected) -> bool:
    """``result`` denotes the set whose k-th bit is ``expected(k)``,
    given that this set is periodic with ``period`` from ``window_end -
    period`` onward."""
    if period % len(result.period) or len(result.prefix) > window_end - period:
        return False
    return all(bit(result, k) == expected(k) for k in range(window_end))


def combine_ok(result, a, b, op) -> bool:
    w = periodic_window(a, b)
    return same_set_on(result, w.stop, len(w), lambda k: op(bit(a, k), bit(b, k)))


def almost_subset(a, b) -> bool:
    return not any(bit(a, k) and not bit(b, k) for k in periodic_window(a, b))


def almost_disjoint(a, b) -> bool:
    return not any(bit(a, k) and bit(b, k) for k in periodic_window(a, b))


def splits(c, a) -> bool:
    w = periodic_window(a, c)
    return any(bit(a, k) and bit(c, k) for k in w) and any(
        bit(a, k) and not bit(c, k) for k in w
    )


def centered(family) -> bool:
    return any(all(bit(s, k) for s in family) for k in periodic_window(*family))


def linearly_ordered(family) -> bool:
    return all(
        almost_subset(a, b) or almost_subset(b, a) for a, b in combinations(family, 2)
    )


def slice_ok(result, b, t: int, j: int) -> bool:
    """Members of b whose enumeration index is j mod t."""
    period = lcm(len(b.period) * t, len(result.period))
    end = max(len(b.prefix), len(result.prefix)) + period
    expected = []
    count = 0
    for k in range(end):
        member = bit(b, k)
        expected.append(1 if member and count % t == j else 0)
        count += member
    return all(bit(result, k) == expected[k] for k in range(end))


# -- arithmetically periodic functions -----------------------------------


def value(f, k: int) -> int:
    pre, base = f.prefix, f.base
    if k < len(pre):
        return pre[k]
    q, i = divmod(k - len(pre), len(base))
    return base[i] + q * f.drift


def _steps(f, g, start: int, width: int):
    """Per residue class of the common block: (f - g) at the class's
    first index and its change per block."""
    for k in range(start, start + width):
        d0 = value(f, k) - value(g, k)
        yield k, d0, value(f, k + width) - value(g, k + width) - d0


def eventually_dominates(f, g) -> bool:
    start = max(len(f.prefix), len(g.prefix))
    width = lcm(len(f.base), len(g.base))
    return all(step > 0 or (step == 0 and d0 >= 0) for _, d0, step in _steps(f, g, start, width))


def pointwise_max_ok(h, f, g) -> bool:
    """h = max(f, g): pointwise up to a common periodic start, then per
    residue class one line dominates the other and equals h's line."""
    start = max(len(h.prefix), len(f.prefix), len(g.prefix))
    width = lcm(len(h.base), len(f.base), len(g.base))
    if any(value(h, k) != max(value(f, k), value(g, k)) for k in range(start)):
        return False
    for k in range(start, start + width):
        h0, hs = value(h, k), value(h, k + width) - value(h, k)
        lines = [(value(u, k), value(u, k + width) - value(u, k)) for u in (f, g)]
        if not any(
            (h0, hs) == (u0, us) and u0 >= v0 and us >= vs
            for (u0, us), (v0, vs) in ((lines[0], lines[1]), (lines[1], lines[0]))
        ):
            return False
    return True


def first_difference_ok(k, f, g) -> bool:
    if k is None:
        return (f.prefix, f.base, f.drift) == (g.prefix, g.base, g.drift)
    return value(f, k) != value(g, k) and all(value(f, i) == value(g, i) for i in range(k))


# -- the glued branch map -------------------------------------------------


def pair(x: int, y: int) -> int:
    return (x + y) * (x + y + 1) // 2 + y


def unpair(z: int) -> tuple[int, int]:
    w = (isqrt(8 * z + 1) - 1) // 2
    y = z - w * (w + 1) // 2
    return w - y, y


def fold_code(rows) -> int:
    entries = [e for row in rows for e in row]
    code = entries[0]
    for e in entries[1:]:
        code = pair(code, e)
    return code


def unfold_code(code: int, n: int) -> list[tuple[int, ...]]:
    entries = []
    z = code
    while z and len(entries) < n * n - 1:
        z, e = unpair(z)
        entries.append(e)
    entries += [0] * (n * n - 1 - len(entries)) + [z]
    entries.reverse()
    return [tuple(entries[i * n : (i + 1) * n]) for i in range(n)]


def level_count(n: int, level: int) -> int:
    return level << (n * (level - n))


def tuple_nodes(n: int, index: int) -> list[tuple[int, ...]]:
    """The index-th admissible column-n tuple in (level, code, tails) order."""
    level = n + 1
    while index >= level_count(n, level):
        index -= level_count(n, level)
        level += 1
    per = level - n
    width = n * per
    rows = unfold_code(index >> width, n)
    tails = format(index & ((1 << width) - 1), f"0{width}b") if width else ""
    return [rows[j] + tuple(int(c) for c in tails[j * per : (j + 1) * per]) for j in range(n)]


def tuple_index_of(nodes) -> int:
    n = len(nodes)
    level = len(nodes[0])
    below = sum(level_count(n, lv) for lv in range(n + 1, level))
    tails = "".join(str(b) for node in nodes for b in node[n:])
    return below + (fold_code([node[:n] for node in nodes]) << (n * (level - n))) + int(tails or "0", 2)


def branch_prefix(f, n: int, level: int) -> tuple[int, ...]:
    """f embedded in T_n (first n values verbatim, then 1^v 0 blocks)."""
    out: list[int] = []
    k = 0
    while len(out) < level:
        v = value(f, k)
        out += [v] if k < n else [1] * v + [0]
        k += 1
    return tuple(out[:level])


def in_image(f, x: int) -> bool:
    col, m = unpair(x)
    if col == 0:
        return False
    nodes = tuple_nodes(col, m)
    return branch_prefix(f, col, len(nodes[0])) in nodes


def image_prefix_ok(elements, f, bound: int) -> bool:
    return list(elements) == [x for x in range(bound) if in_image(f, x)]


def admissible(nodes) -> bool:
    n = len(nodes)
    level = len(nodes[0])
    return (
        level > n
        and all(len(t) == level and set(t[n:]) <= {0, 1} for t in nodes)
        and fold_code([t[:n] for t in nodes]) < level
    )


def witnesses_ok(tuples, fs, count: int) -> bool:
    """``count`` admissible tuples on consecutive levels, each holding
    every function's branch."""
    n = len(tuples[0].nodes) if tuples else 0
    levels = [len(t.nodes[0]) for t in tuples]
    return (
        len(tuples) == count
        and levels == list(range(levels[0], levels[0] + count))
        and all(
            admissible(t.nodes) and all(branch_prefix(f, n, len(t.nodes[0])) in t.nodes for f in fs)
            for t in tuples
        )
    )


def separation_level(fs, n: int, cap: int = 400) -> int:
    def diverge(f, g):
        return next(lv for lv in range(1, cap) if branch_prefix(f, n, lv) != branch_prefix(g, n, lv))

    return max(diverge(f, g) for f, g in combinations(fs, 2))


def exact_intersection_ok(result, fs, n: int) -> bool:
    """Criterion-6 index walk: every column-n tuple below the separation
    level, kept when every branch lies in it."""
    sep = separation_level(fs, n)
    below = sum(level_count(n, lv) for lv in range(n + 1, sep))
    brute = []
    for m in range(below):
        nodes = tuple_nodes(n, m)
        level = len(nodes[0])
        if all(branch_prefix(f, n, level) in nodes for f in fs):
            brute.append(m)
    got = [tuple_index_of(t.nodes) for t in result.tuples]
    return result.separation_level == sep and got == brute


def missing_ok(xs, f, a, count: int) -> bool:
    return (
        len(xs) == count
        and xs == sorted(set(xs))
        and all(bit(a, x) and not in_image(f, x) for x in xs)
    )


def bound_ok(cert, observed) -> bool:
    """Brute force over every selection of one node per observation."""

    def compatible(u, v):
        short, long_ = sorted((u, v), key=len)
        return long_[: len(short)] == short

    unions = {
        max(choice, key=len)
        for choice in product(*(t.nodes for t in observed))
        if all(compatible(u, v) for u, v in combinations(choice, 2))
    }
    if not unions:
        return cert.empty and cert.chains == 0
    dom = min(len(u) for u in unions)
    bound = tuple(max(u[k] for u in unions) for k in range(dom))
    return not cert.empty and cert.bound == bound and cert.chains == len(unions)


# -- desk verdicts ----------------------------------------------------------


def bucket_edge(n: int, m: int, n2: int, m2: int) -> bool:
    """Morphism (n, m) -> (n2, m2) by filling n balls into n2 buckets."""
    buckets = [0] * n2
    for ball in range(n):
        buckets[ball % n2] += 1
    return m >= m2 and sum(buckets[: m2 - 1]) < m


def finite_norm(relation, allowed=None) -> int | None:
    """Least popcount of a dominating plus-side subset, by bitmask."""
    plus = len(relation[0]) if relation else 0
    best = None
    for mask in range(1 << plus):
        size = bin(mask).count("1")
        if best is not None and size >= best:
            continue
        if allowed is not None and not allowed(mask):
            continue
        if all(any(row[j] for j in range(plus) if mask >> j & 1) for row in relation):
            best = size
    return best


def identity_certificate_ok(cert, depth: int) -> bool:
    """Every recorded fact of an identity-machine run puts a 1 at its
    pivot, and the run used 4 * 2^depth - 4 queries."""
    tables = cert.predictor.tables
    return cert.queries_used == 4 * 2**depth - 4 and all(
        (f.history + tables[f.level][f.history])[f.pivot] == "1" for f in cert.facts
    )
