"""Reference implementations of the glued map's codec and image reads:
the full n^2 pairing walk, a ``ColumnTuple`` per read, an entry scan
of two restrictions for divergence, witness streams and exact
intersections that restrict every branch anew at each level (the
latter over every admissible tuple of the level, or through the tuples
carrying the first branch's node, filtered and sorted), and a set's
trace read by scanning every natural below the bound.  The
differential tests compare the library's fast paths against these."""

import itertools
from typing import Sequence

from tukeykit.apfuncs import APFunc, first_difference
from tukeykit.branchmap import (
    Branch,
    ColumnTuple,
    ExactIntersection,
    ImagePrefix,
    bound_from_trace,
    branch_of,
    decode_blocks,
    level_count,
    pair,
    tuple_index,
    unpair,
)
from tukeykit.upsets import UPSet


def tuple_code(matrix: Sequence[Sequence[int]]) -> int:
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    entries = [e for row in matrix for e in row]
    if any(e < 0 for e in entries):
        raise ValueError("entries must be naturals")
    code = entries[0]
    for e in entries[1:]:
        code = pair(code, e)
    return code


def tuple_decode(code: int, n: int) -> tuple[tuple[int, ...], ...]:
    if n < 1 or code < 0:
        raise ValueError("need n >= 1 and a natural code")
    entries: list[int] = []
    z = code
    for _ in range(n * n - 1):
        z, e = unpair(z)
        entries.append(e)
    entries.append(z)
    entries.reverse()
    return tuple(tuple(entries[i * n : (i + 1) * n]) for i in range(n))


def tuple_at(n: int, index: int) -> ColumnTuple:
    if index < 0:
        raise ValueError("index must be a natural")
    level = n + 1
    rest = index
    while rest >= level_count(n, level):
        rest -= level_count(n, level)
        level += 1
    width = n * (level - n)
    code, tails = rest >> width, rest & ((1 << width) - 1)
    matrix = tuple_decode(code, n)
    bits = [(tails >> (width - 1 - i)) & 1 for i in range(width)]
    per = level - n
    nodes = tuple(
        matrix[j] + tuple(bits[j * per : (j + 1) * per]) for j in range(n)
    )
    return ColumnTuple(n, nodes)


def tuple_in_column_image(n: int, branch: Branch, t: ColumnTuple) -> bool:
    if t.n != n:
        raise ValueError("column mismatch")
    return branch.restrict(t.level) in t.nodes


def image_contains(f: APFunc, x: int) -> bool:
    col, m = unpair(x)
    if col == 0:
        return False
    return tuple_in_column_image(col, branch_of(f, col), tuple_at(col, m))


def image_prefix(f: APFunc, bound: int) -> ImagePrefix:
    elements = []
    depth = 0
    for x in range(bound):
        col, m = unpair(x)
        if col == 0:
            continue
        t = tuple_at(col, m)
        b = branch_of(f, col)
        depth = max(depth, b.values_needed(t.level))
        if tuple_in_column_image(col, b, t):
            elements.append(x)
    return ImagePrefix(tuple(elements), bound, depth)


def entry_length_through(b: Branch, k: int) -> int:
    """Entry count produced by the first k+1 function values."""
    if k < b.n:
        return k + 1
    return b.n + sum(b.func(i) + 1 for i in range(b.n, k + 1))


def divergence_level(a: Branch, b: Branch) -> int | None:
    if a.n != b.n:
        raise ValueError("branches live in different trees")
    k = first_difference(a.func, b.func)
    if k is None:
        return None
    ceiling = max(entry_length_through(a, k), entry_length_through(b, k)) + 2
    # a deeper restriction extends every shallower one, so the first
    # differing entry at the ceiling gives the least differing level
    ra, rb = a.restrict(ceiling), b.restrict(ceiling)
    for i, (x, y) in enumerate(zip(ra, rb)):
        if x != y:
            return i + 1
    raise AssertionError("branches must separate below the computed ceiling")


def witness_stream(n: int, branches: Sequence[Branch], count: int) -> list[ColumnTuple]:
    if not 1 <= len(branches) <= n:
        raise ValueError("need between 1 and n branches")
    pad = n - len(branches)
    heads = [b.restrict(n) for b in branches]
    level = max(n, tuple_code(heads + heads[:1] * pad)) + 1
    out = []
    while len(out) < count:
        nodes = [b.restrict(level) for b in branches]
        out.append(ColumnTuple(n, tuple(nodes + nodes[:1] * pad)))
        level += 1
    return out


def exact_intersection(n: int, branches: Sequence[Branch]) -> ExactIntersection:
    if len(branches) != n + 1:
        raise ValueError("exact intersections take n+1 branches")
    levels = [divergence_level(a, b) for a, b in itertools.combinations(branches, 2)]
    if None in levels:
        raise ValueError("branches must be pairwise distinct")
    sep = max(levels)
    found = []
    # codes ascending, then each slot's tail bits first bit first: the
    # product walks a level in tuple_index order
    for level in range(n + 1, sep):
        rs = [b.restrict(level) for b in branches]
        tails = list(itertools.product((0, 1), repeat=level - n))
        for code in range(level):
            pools = [[row + tail for tail in tails] for row in tuple_decode(code, n)]
            for nodes in itertools.product(*pools):
                if all(r in nodes for r in rs):
                    found.append(ColumnTuple(n, nodes))
    return ExactIntersection(n, sep, tuple(found))


def tuples_carrying(n: int, r: tuple[int, ...], level: int):
    """Node tuples of the admissible column-n tuples at ``level`` that
    have the node ``r`` among their components: per code, each nonempty
    set of the slots whose prefix row is r's head holds r, and the other
    slots range over every other node under their prefix row, so each
    tuple arises exactly once."""
    head = r[:n]
    tails = [tuple(t) for t in itertools.product((0, 1), repeat=level - n)]
    for code in range(level):
        matrix = tuple_decode(code, n)
        carriers = [j for j in range(n) if matrix[j] == head]
        for size in range(1, len(carriers) + 1):
            for chosen in itertools.combinations(carriers, size):
                pools = [
                    [r] if j in chosen else [matrix[j] + t for t in tails if matrix[j] + t != r]
                    for j in range(n)
                ]
                yield from itertools.product(*pools)


def exact_intersection_by_carriers(n: int, branches: Sequence[Branch]) -> ExactIntersection:
    """Exact intersections through ``tuples_carrying``: the tuples at
    each level below the separation that carry the first branch's node,
    kept when they carry every other node, then sorted by
    ``tuple_index``."""
    if len(branches) != n + 1:
        raise ValueError("exact intersections take n+1 branches")
    levels = [divergence_level(a, b) for a, b in itertools.combinations(branches, 2)]
    if None in levels:
        raise ValueError("branches must be pairwise distinct")
    sep = max(levels)
    found = []
    for level in range(n + 1, sep):
        first, *rest = (b.restrict(level) for b in branches)
        for nodes in tuples_carrying(n, first, level):
            if all(r in nodes for r in rest):
                found.append(ColumnTuple(n, nodes))
    return ExactIntersection(n, sep, tuple(sorted(found, key=tuple_index)))


def trace_bound_func(a: UPSet) -> APFunc:
    claims: list[list[int]] = []
    members = [x for x in range(4000) if x in a]
    for col in range(1, 5):
        observed = []
        for x in members:
            c, m = unpair(x)
            if c == col:
                observed.append(tuple_at(col, m))
                if len(observed) >= 12:
                    break
        if not observed:
            continue
        cert = bound_from_trace(col, observed)
        if cert.empty:
            continue
        values = decode_blocks(col, cert.bound)
        if values:
            claims.append(values)
    if not claims:
        return APFunc((), (0,), 1)
    dom = max(len(v) for v in claims)
    combined = [
        max((v[k] for v in claims if k < len(v)), default=0) for k in range(dom)
    ]
    return APFunc(tuple(combined), (combined[-1] + 1,), 1)
