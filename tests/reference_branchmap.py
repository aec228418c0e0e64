"""Reference implementations of the glued map's codec and image reads:
the full n^2 pairing walk, a ``ColumnTuple`` per read, and a level scan
for divergence.  The differential tests compare the library's fast
paths against these."""

from typing import Sequence

from tukeykit.apfuncs import APFunc, first_difference
from tukeykit.branchmap import (
    Branch,
    ColumnTuple,
    ImagePrefix,
    InsufficientDepth,
    branch_of,
    level_count,
    pair,
    unpair,
)


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


def divergence_level(a: Branch, b: Branch) -> int | None:
    if a.n != b.n:
        raise ValueError("branches live in different trees")
    if a.func is not None and b.func is not None:
        k = first_difference(a.func, b.func)
        if k is None:
            return None
        ceiling = max(a.entry_length_through(k), b.entry_length_through(k)) + 2
    elif a.entries is not None and b.entries is not None:
        if a.entries == b.entries:
            raise InsufficientDepth(
                len(a.entries) + 1, "entry-backed branches agree on their whole description"
            )
        ceiling = min(len(a.entries), len(b.entries)) + 1
    else:
        raise ValueError("mixed branch descriptions cannot be compared")
    for level in range(1, ceiling + 1):
        if a.restrict(level) != b.restrict(level):
            return level
    raise AssertionError("branches must separate below the computed ceiling")
