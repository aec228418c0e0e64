"""A continuous branch-to-set map with a centered image and exactly
computable finite intersections.

Construction, column by column.  Column n uses the tree T_n that
branches over all of omega for its first n levels and binary afterward.
An admissible n-tuple at level l consists of n level-l nodes whose
level-n prefixes, coded as a single natural, stay below l.  The column
map sends a branch f to the set of admissible tuples having f's
restriction among their components.  Tuples are enumerated per column
in (level, code, tails) order, and column n lands on the n-th column of
a Cantor pairing, giving one subset of omega per branch.

Key exact facts made executable here:
  * any k <= n branches share admissible tuples at every sufficiently
    deep level (witness streams, hence a centered image),
  * n+1 branches with distinct level-n prefixes share nothing at all
    (pigeonhole; ``exact_intersection`` finds the empty set),
  * n+1 distinct branches share only tuples below their separation
    level, a finite set this module enumerates completely,
  * a finite trace of observed tuples forces per-coordinate bounds on
    every branch consistent with it (constraint propagation).

Coding cost.  0 and 1 are fixed points of the first pairing component
(``unpair(0) == (0, 0)``, ``unpair(1) == (1, 0)``), so an admissible
code, which stays below its level, decodes in a few steps followed by
zeros; the codec stops there instead of walking all n^2 entries.  Image
reads (``image_contains``, ``image_prefix``) decide membership straight
from a tuple's (level, code, tails) and build neither a ``ColumnTuple``
nor the n x n prefix matrix: only the code's nonzero entries are kept,
and a branch's head matches a touched row or, when it is all zero, the
untouched rows.  The fold is increasing in every entry and
pair(x, e) >= x, so a matrix having a head as a row codes at least as
high as the head folded alone, its *least code*: a code below it holds
no node with that head.  ``image_contains`` rules such a code out
before restricting anything, reading only the head values the fold
decides on: it reads f's head in windows whose ends double from 8 and
stops once past the code, so a ruled-out read costs a few values, not
``col``; a read left open has read the whole head, once, and restricts
from it on.  ``exact_intersection`` starts each level's codes at its
nodes' largest least code.  The fold skips leading zeros and stops
once past the code it is compared with, so the rule costs a few
``pair`` steps.  A tuple's offset counts the tuples below its level
in closed form, and a tails int is packed from its bits in one pass
in C, so deep offsets cost time linear in their bits.
``image_prefix`` walks each column's rows in (level, code, tails)
order, so a restriction is computed once per column, at the deepest
level the walk reaches, and sliced per level; that call also gives the
column's ``depth_used``.  The matching slots are found once per code,
and a code whose rows miss the head is skipped whole; a prefix of the
image below N costs close to O(N).  Each column reads its own values,
and ``image_prefix`` does not apply the least-code rule yet: with a
value window shared by all columns it would raise the benchmark's
answer rate, and the benchmark's peak RSS grows with the answers kept,
so both wait until it stops growing with them.

Separation and witnesses.  ``divergence_level`` restricts no branch:
the separation level comes from the first differing value, either as an
identity entry or inside that value's block.  A restriction costs
O(level) whatever the values: it reads at most about twice the values
whose blocks reach the level (some sqrt(2 level) for the identity) and
cuts the last block there.  Restrictions are prefix-stable,
``b.restrict(deep)[:level] == b.restrict(level)`` for every
``level <= deep``, so ``witness_stream`` and ``exact_intersection``
restrict each branch once, at the deepest level they read, and slice
that restriction per level.  The witness tuples
are admissible by construction, since they start above the shared
prefix code and their components are those very restrictions.  An
exact intersection is read as rows as well: per (level, code), the
tails ints of the shared tuples, sorted, are in ``tuple_index`` order.
"""

from __future__ import annotations

import itertools
from math import isqrt
from operator import not_
from typing import Sequence

from .apfuncs import APFunc, first_difference
from .errors import CertificateError, EnumerationBudget
from .records import Record, set_field
from .upsets import UPSet


# -- pairing and tuple coding ------------------------------------------


def pair(x: int, y: int) -> int:
    """Cantor pairing (x+y)(x+y+1)/2 + y."""
    return (x + y) * (x + y + 1) // 2 + y


def unpair(z: int) -> tuple[int, int]:
    w = (isqrt(8 * z + 1) - 1) // 2
    y = z - w * (w + 1) // 2
    return w - y, y


def tuple_code(matrix: Sequence[Sequence[int]]) -> int:
    """Code an n x n matrix of naturals by folding the pairing over the
    entries in row-major order; the 1 x 1 case is the identity.  Folding
    a 0 into a code of 0 or 1 leaves it unchanged, so those steps are
    skipped."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    entries = [e for row in matrix for e in row]
    if any(e < 0 for e in entries):
        raise ValueError("entries must be naturals")
    code = entries[0]
    for e in entries[1:]:
        if code > 1 or e:
            code = pair(code, e)
    return code


def tuple_decode(code: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Inverse of ``tuple_code`` for a given dimension.

    Entries come off the end of the fold one ``unpair`` at a time.  Once
    the remaining code is 0 or 1 it is a fixed point of the first
    component (``unpair(z) == (z, 0)``), so every entry left except the
    first is 0 and the decode stops: its cost follows the size of the
    code, not n^2.
    """
    if n < 1 or code < 0:
        raise ValueError("need n >= 1 and a natural code")
    entries = [0] * (n * n)
    for row, cols in _nonzero_rows(code, n).items():
        for col, e in cols.items():
            entries[row * n + col] = e
    # n references to one iterator: zip cuts n consecutive entries per row
    rows = [iter(entries)] * n
    return tuple(zip(*rows))


def _nonzero_rows(code: int, n: int) -> dict[int, dict[int, int]]:
    """The nonzero entries of ``tuple_decode(code, n)``, as row ->
    column -> entry, rows in descending order."""
    touched: dict[int, dict[int, int]] = {}
    z = code
    i = n * n - 1
    while i > 0 and z > 1:
        z, e = unpair(z)
        if e:
            row, col = divmod(i, n)
            touched.setdefault(row, {})[col] = e
        i -= 1
    if z:
        touched.setdefault(0, {})[0] = z
    return touched


# -- branches of the column trees ---------------------------------------


def encode_blocks(n: int, values: Sequence[int]) -> tuple[int, ...]:
    """Embed a value sequence into T_n: the first n values verbatim,
    every later value m as the block 1^m 0."""
    out = list(values[:n])
    for v in values[n:]:
        out.extend([1] * v)
        out.append(0)
    return tuple(out)


def decode_blocks(n: int, entries: Sequence[int]) -> list[int]:
    """Values recoverable from a node's complete blocks."""
    values = list(entries[:n])
    run = 0
    for b in entries[n:]:
        if b == 1:
            run += 1
        else:
            values.append(run)
            run = 0
    return values


class Branch(Record):
    """A branch of T_n: the ``encode_blocks`` image of a function's
    values, so it has entries to any depth; a restriction builds none
    past its level."""

    __slots__ = ("n", "func")

    def __init__(self, n: int, func: APFunc) -> None:
        if n < 1:
            raise ValueError("column index must be at least 1")
        set_field(self, "n", n)
        set_field(self, "func", func)

    def restrict(self, level: int, head: Sequence[int] = ()) -> tuple[int, ...]:
        """The first ``level`` entries; ``head`` holds the function's
        first values when the caller has read them already."""
        return _restriction(self.n, self.func, level, head)[0]


def _restriction(
    n: int, f: APFunc, level: int, head: Sequence[int] = ()
) -> tuple[tuple[int, ...], int]:
    """The first ``level`` entries of f's branch of T_n, and how many of
    f's values determine them.  Past the n identity entries value v fills
    v + 1 entries; the values are read in doubling spans until they cover
    the level, and the last one is capped at the entries left.  ``head``
    holds f's first values when the caller has read them already."""
    if level <= n:
        return encode_blocks(n, f.values(level)), level
    values = f.window(len(head), min(level, n + 64))
    values[:0] = head
    room = level - n  # the entries left for the values from u on
    u = n
    while room > 0:
        if u == len(values):
            values += f.window(u, min(2 * u - n, level))
        room -= values[u] + 1
        u += 1
    del values[u:]
    if room < 0:
        values[-1] += room + 1  # cut the last block at the level
    return encode_blocks(n, values)[:level], u


def branch_of(f: APFunc, n: int) -> Branch:
    return Branch(n, func=f)


def divergence_level(a: Branch, b: Branch) -> int | None:
    """Least level where the two branch restrictions differ, or None
    when the branches are equal.

    Read off the first differing value k.  Below n, values are entries.
    Past n, both branches share the blocks of values n..k-1, and value k
    is coded as 1^v 0, so the shorter block's 0 is the first differing
    entry.
    """
    if a.n != b.n:
        raise ValueError("branches live in different trees")
    k = first_difference(a.func, b.func)
    if k is None:
        return None
    if k < a.n:
        return k + 1
    # value k's block starts after n identity entries and one block of
    # f(i) + 1 entries per value n <= i < k
    start = k + sum(a.func.window(a.n, k))
    return start + min(a.func(k), b.func(k)) + 1


# -- admissible tuples ---------------------------------------------------


class ColumnTuple(Record):
    """An admissible tuple of a column: n equal-level nodes whose
    level-n prefix matrix codes below the level."""

    __slots__ = ("n", "nodes")

    def __init__(self, n: int, nodes: tuple[tuple[int, ...], ...]) -> None:
        # the benchmark's tracer counts constructions at __post_init__
        self.__post_init__(n, nodes)

    def __post_init__(self, n, nodes) -> None:
        nodes = tuple(tuple(t) for t in nodes)
        set_field(self, "n", n)
        set_field(self, "nodes", nodes)
        if len(nodes) != self.n:
            raise ValueError("tuple arity must equal the column index")
        levels = {len(t) for t in nodes}
        if len(levels) != 1:
            raise ValueError("components must share one level")
        level = levels.pop()
        if level <= self.n:
            raise ValueError("tuples live strictly below level n")
        if not {b for t in nodes for b in t[n:]} <= {0, 1}:
            raise ValueError("components must be binary past the identity region")
        if self.code >= level:
            raise ValueError("prefix code must stay below the level")

    @property
    def level(self) -> int:
        return len(self.nodes[0])

    @property
    def code(self) -> int:
        return tuple_code([t[: self.n] for t in self.nodes])

    def to_json(self) -> dict:
        return {"level": self.level, "nodes": [list(t) for t in self.nodes]}


def level_count(n: int, level: int) -> int:
    """Number of admissible column-n tuples at one level: one matrix
    per code below the level, binary tails free."""
    return level << (n * (level - n))


def _count_below(n: int, level: int) -> int:
    """Number of admissible column-n tuples below ``level``: with
    r = 2^n and J = level - n - 1, the sum of (n + j) r^j over
    1 <= j <= J, in closed form.  With P = r^J, that sum times (r - 1)^2
    is r ((r - 1)(n (P - 1) + J P) - (P - 1)), so one exact division
    gives it, in time linear in its bits."""
    j = level - n - 1
    if j <= 0:
        return 0
    r1 = (1 << n) - 1
    p1 = (1 << (n * j)) - 1
    return ((r1 * (n * p1 + j * (p1 + 1)) - p1) << n) // (r1 * r1)


def tuple_index(t: ColumnTuple) -> int:
    """Position of a tuple in its column's (level, code, tails) order:
    the tuples below its level, counted in closed form (``_count_below``),
    then its code, then its nodes' tails, each packed by
    ``_head_and_tail``."""
    per = t.level - t.n
    tails = 0
    for node in t.nodes:
        tails = tails << per | _head_and_tail(t.n, node)[1]
    return _count_below(t.n, t.level) + (t.code << t.n * per) + tails


# levels that ``_locate`` walks before it turns to the closed form: a
# walk of a few levels is cheaper, and every index the benchmark's image
# reads stays within it
_WALKED_LEVELS = 8


def _locate(n: int, index: int) -> tuple[int, int, int]:
    """(level, code, tails) of the column-n tuple at ``index``.

    The first ``_WALKED_LEVELS`` levels are walked, subtracting each
    level's count.  Past them the level is estimated from the index's
    bit length, since the count below level n + 1 + J has about
    n J + log2(n + J) bits; the closed-form count below the estimate
    (``_count_below``) is then corrected a level or two either way."""
    level = n + 1
    rest = index
    while rest >= (count := level_count(n, level)):
        if level - n == _WALKED_LEVELS:
            level, rest = _level_of(n, index, level + 1)
            break
        rest -= count
        level += 1
    width = n * (level - n)
    return level, rest >> width, rest & ((1 << width) - 1)


def _level_of(n: int, index: int, least: int) -> tuple[int, int]:
    """The level of the column-n tuple at ``index``, known to be at
    least ``least``, and the index's offset inside that level."""
    b = index.bit_length()
    level = max(least, n + 1 + (b - (n + b // n).bit_length()) // n)
    below = _count_below(n, level)
    while below > index:
        level -= 1
        below -= level_count(n, level)
    while index - below >= (count := level_count(n, level)):
        below += count
        level += 1
    return level, index - below


def tuple_at(n: int, index: int) -> ColumnTuple:
    """Inverse of ``tuple_index``."""
    if index < 0:
        raise ValueError("index must be a natural")
    level, code, tails = _locate(n, index)
    return _row_tuples(n, level, code, (tails,))[0]


# bytes 0 and 1 as the digits "0" and "1", and back
_BIT_DIGITS = bytes.maketrans(b"\0\1", b"01")
_DIGIT_BITS = bytes.maketrans(b"01", b"\0\1")


def _row_tuples(n: int, level: int, code: int, rows) -> list[ColumnTuple]:
    """The column-n tuple (level, code, tails) for each tails int of
    ``rows``, decoding the code once; a tails int is unpacked by one
    pass in C, through its binary digits."""
    matrix = tuple_decode(code, n)
    per = level - n
    out = []
    for tails in rows:
        bits = tuple(format(tails, f"0{n * per}b").encode().translate(_DIGIT_BITS))
        out.append(ColumnTuple(n, tuple(matrix[j] + bits[j * per : (j + 1) * per] for j in range(n))))
    return out


def _head_and_tail(n: int, node: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """A node's first n entries, and its bits past n read as a binary
    word (first bit most significant, as in the tails of ``tuple_index``).
    The tail is packed by one pass in C, as the digits of a binary
    literal, so a deep node costs time linear in its level."""
    return node[:n], int(bytes(node[n:]).translate(_BIT_DIGITS), 2)


def _slots_holding(code: int, n: int, head: tuple[int, ...]) -> list[int]:
    """Slots whose row of ``tuple_decode(code, n)`` equals ``head``,
    read from the code's nonzero entries alone: a nonzero head can equal
    only a touched row, and an all-zero head equals exactly the
    untouched rows, so no n x n matrix is built.
    """
    touched = _nonzero_rows(code, n)
    # rows hold nonzero entries only, so a row equals the head when it
    # has as many entries as the head has nonzero values and each agrees
    nonzero = n - head.count(0)
    if nonzero:
        return sorted(
            j
            for j, row in touched.items()
            if len(row) == nonzero and all(head[k] == v for k, v in row.items())
        )
    return [j for j in range(n) if j not in touched]


def _least_code(head: Sequence[int], bound: int) -> int:
    """The code of ``head`` folded alone, which no prefix matrix having
    ``head`` as a row codes below; the fold stops once it exceeds
    ``bound``.

    The fold is increasing in every entry and pair(x, e) >= x, so the
    rows before and after ``head`` only raise it.  A zero leaves a fold
    of 0 or 1 unchanged, so leading zeros are dropped in C; past 1 each
    step takes x to at least x(x+1)/2, so few steps pass any bound.
    """
    rest = iter(head)
    code = next(rest)
    if code <= 1:
        rest = itertools.dropwhile(not_, rest)
    for e in rest:
        if code > bound:
            break
        code = pair(code, e)
    return code


def _slot_carries(
    n: int, level: int, code: int, tails: int, head: tuple[int, ...], tail: int
) -> bool:
    """Does a slot of the tuple (level, code, tails) hold the node split
    as (head, tail)?  Only the slots whose prefix row equals the head
    (``_slots_holding``) are candidates; slot j's bits are the j-th
    (level - n)-bit word of ``tails``."""
    per = level - n
    mask = (1 << per) - 1
    return any(
        (tails >> (per * (n - 1 - j))) & mask == tail
        for j in _slots_holding(code, n, head)
    )


# -- the glued map --------------------------------------------------------


class ImagePrefix(Record):
    """The glued image of a function intersected with an initial
    segment, together with the input depth that determined it."""

    __slots__ = ("elements", "bound", "depth_used")


# values in the first window of a head that ``image_contains`` reads;
# past 1 each pair step takes the fold x to at least x(x+1)/2, so a few
# values pass any code
_HEAD_WINDOW = 8


def image_contains(f: APFunc, x: int) -> bool:
    """Is x in the glued image of f?  Column 0 carries nothing.  The
    least code of f's first ``col`` values rules out a code below it
    before any restriction; the fold reads the head lazily and stops
    once past the code, so a ruled-out read costs the values it decides
    on, not ``col``.  A read left open has read the whole head, and
    restricts from it on."""
    if x < 0:
        raise ValueError("x must be a natural")
    return _column_contains(f, *unpair(x))


def _column_contains(f: APFunc, col: int, m: int) -> bool:
    """Is row m of column col in the glued image of f?  The body of
    ``image_contains``, for callers that built the element from its
    column and row."""
    if col == 0:
        return False
    level, code, tails = _locate(col, m)
    # each window's end doubles; the fold starts over on the longer head,
    # which costs a C pass over its leading zeros and a few pair steps
    # (conditional expressions, not min(): a member read at a small
    # column pays for every call)
    stop = _HEAD_WINDOW if col > _HEAD_WINDOW else col
    head = f.values(stop)
    while _least_code(head, code) <= code:
        if stop == col:
            break  # the whole head is read and leaves the code open
        stop = 2 * stop if 2 * stop < col else col
        head += f.window(len(head), stop)
    else:
        return False
    node = branch_of(f, col).restrict(level, head)
    return _slot_carries(col, level, code, tails, *_head_and_tail(col, node))


def image_prefix(f: APFunc, bound: int) -> ImagePrefix:
    """The image's elements below ``bound``, computed column by column.

    Each column's rows m with ``pair(col, m) < bound`` are walked in
    (level, code, tails) order.  The branch is restricted once per
    column, to the deepest level its rows reach, and each level's split
    comes from a slice of that restriction; the slots whose prefix row
    equals the head are found once per (level, code), and a code with
    no such slot is skipped whole; each remaining row then costs one
    shift and mask per candidate slot.
    """
    if bound < 0:
        raise ValueError("bound must be a natural")
    elements = []
    depth = 0
    # the last element below the bound sits on diagonal ``last`` at
    # column ``c``: column col reaches rows m < last - col, plus the row
    # on that diagonal when col >= c
    c, r = unpair(max(bound, 1) - 1)
    last = c + r
    for col in range(1, last + 1):
        reach = last - col + (col >= c)
        deepest = _locate(col, reach - 1)[0]
        # the values read grow with the level, so the deepest level decides
        full, used = _restriction(col, f, deepest)
        depth = max(depth, used)
        start = 0
        level = col + 1
        while start < reach:
            per = level - col
            width = col * per
            mask = (1 << per) - 1
            head, tail = _head_and_tail(col, full[:level])
            for code in range(level):
                if start >= reach:
                    break
                slots = _slots_holding(code, col, head)
                if slots:
                    shifts = [per * (col - 1 - j) for j in slots]
                    for tails in range(min(1 << width, reach - start)):
                        if any((tails >> s) & mask == tail for s in shifts):
                            elements.append(pair(col, start + tails))
                start += 1 << width
            level += 1
    elements.sort()
    return ImagePrefix(tuple(elements), bound, depth)


_CODE_GUARD = 10**6


def witness_stream(
    n: int, branches: Sequence[Branch], count: int
) -> list[ColumnTuple]:
    """Admissible tuples common to every branch's column image, one per
    admissible level; works for up to n branches by padding with the
    first.

    Admissible levels start above the code of the shared prefix matrix.
    The fixed fold coding makes that code explode unless the branches'
    identity-region entries are small, so desk-scale inputs should keep
    their first n values near zero; the guard turns would-be astronomic
    materializations into an explicit error.  Past the heads, each
    branch is restricted once, to the last witness's level, and every
    witness takes slices of those restrictions.
    """
    if not 1 <= len(branches) <= n:
        raise ValueError("need between 1 and n branches")
    if any(b.n != n for b in branches):
        raise ValueError("branches must live in column n's tree")
    if count < 0:
        raise ValueError("count must be a natural")
    pad = n - len(branches)
    heads = [b.restrict(n) for b in branches]
    code = tuple_code(heads + heads[:1] * pad)
    if code > _CODE_GUARD:
        raise EnumerationBudget(
            f"shared tuples start only above level {code}; "
            "use branches with smaller identity-region entries"
        )
    if count < 1:
        return []
    start = max(n, code) + 1
    deep = [b.restrict(start + count - 1) for b in branches]
    out = []
    for level in range(start, start + count):
        nodes = [r[:level] for r in deep]
        out.append(ColumnTuple(n, tuple(nodes + nodes[:1] * pad)))
    return out


class CommonWitnesses(Record):
    __slots__ = ("column", "tuples", "elements")


def common_witnesses(fs: Sequence[APFunc], count: int) -> CommonWitnesses:
    """Members of the intersection of the glued images of ``fs``.

    Distinct functions route to the column matching their number, where
    a shared tuple exists at every deep enough level.
    """
    if not fs:
        raise ValueError("need at least one function")
    unique: list[APFunc] = []
    for f in fs:
        if f not in unique:
            unique.append(f)
    n = len(unique)
    tuples = witness_stream(n, [branch_of(f, n) for f in unique], count)
    rows = [tuple_index(t) for t in tuples]
    elements = tuple(pair(n, m) for m in rows)
    # each element is re-checked from the row it was built from: unpair
    # would only give (n, m) back, at a cost quadratic in its bits
    for x, m in zip(elements, rows):
        for f in fs:
            if not _column_contains(f, n, m):
                raise CertificateError(f"witness {x} is not in the image of {f.literal()}")
    return CommonWitnesses(n, tuple(tuples), elements)


# -- exact finite intersections -------------------------------------------


class ExactIntersection(Record):
    __slots__ = ("column", "separation_level", "tuples")

    @property
    def size(self) -> int:
        return len(self.tuples)


# most tail bits, n * (level - n), that one level's enumeration may walk
_SIZE_GUARD = 24


def _level_intersection(n: int, level: int, nodes) -> list[ColumnTuple]:
    """The admissible column-n tuples at ``level`` carrying every node
    of ``nodes``, in ``tuple_index`` order.

    The codes start at the largest least code of the nodes' heads, since
    no code below it has every head as a row.  Per code, the distinct
    nodes are placed depth first into distinct slots whose prefix row
    equals their head (a code where one node has no such slot is
    skipped), and the slots left over range over all words.  A node may
    fill several slots, so the tails go into a set.
    """
    per = level - n
    if n * per > _SIZE_GUARD:
        raise EnumerationBudget(
            f"level {level} of column {n} exceeds 2^{_SIZE_GUARD} tails"
        )
    split = [_head_and_tail(n, r) for r in set(nodes)]
    shifts = [per * (n - 1 - j) for j in range(n)]
    out = []
    for code in range(max(_least_code(head, level) for head, _ in split), level):
        slots = []
        for head, _ in split:
            slots.append(_slots_holding(code, n, head))
            if not slots[-1]:
                break
        else:
            found = set()
            stack = [(0, 0, 0)]  # nodes placed, bitmask of slots taken, tails so far
            while stack:
                i, taken, fixed = stack.pop()
                if i < len(split):
                    tail = split[i][1]
                    stack += [(i + 1, taken | 1 << j, fixed | tail << shifts[j])
                              for j in slots[i] if not taken >> j & 1]
                    continue
                rows = [fixed]
                for j in range(n):
                    if not taken >> j & 1:
                        rows = [t | w << shifts[j] for t in rows for w in range(1 << per)]
                found.update(rows)
            if found:
                out.extend(_row_tuples(n, level, code, sorted(found)))
    return out


def exact_intersection(n: int, branches: Sequence[Branch]) -> ExactIntersection:
    """The complete intersection of the column images of n+1 pairwise
    distinct branches, in ``tuple_index`` order.

    Once all restrictions are pairwise distinct, n slots cannot match
    n+1 of them, so every shared tuple lies below the separation level.
    Each of those levels is searched exhaustively by placing the
    restrictions into slots; ``EnumerationBudget`` is raised past 2^24
    tails per level.  Each branch is restricted once, to the last level
    the scan can read: the level before the separation, or the first
    level past that budget, whichever comes first.
    """
    if len(branches) != n + 1:
        raise ValueError("exact intersections take n+1 branches")
    if any(b.n != n for b in branches):
        raise ValueError("branches must live in column n's tree")
    sep = 0
    for a, b in itertools.combinations(branches, 2):
        lvl = divergence_level(a, b)
        if lvl is None:
            raise ValueError("branches must be pairwise distinct")
        sep = max(sep, lvl)
    last = min(sep - 1, n + _SIZE_GUARD // n + 1)
    deep = [b.restrict(last) for b in branches]
    found = []
    for level in range(n + 1, sep):
        found.extend(_level_intersection(n, level, [r[:level] for r in deep]))
    return ExactIntersection(n, sep, tuple(found))


# -- bounds from finite traces ---------------------------------------------


class BoundCertificate(Record):
    """Per-coordinate bounds forced on any branch consistent with the
    observed tuples of one column; ``empty`` means no branch fits."""

    __slots__ = ("column", "constraints", "empty", "bound", "chains")


def bound_from_trace(
    n: int, observed: Sequence[ColumnTuple]
) -> BoundCertificate:
    """Propagate "the branch extends one component of each observation"
    through every consistent selection and take coordinatewise maxima.

    A chain is the longest component of a selection whose components
    extend one another; one loop steps the set of chains through the
    observations, so equal chains merge and a long trace needs no call
    stack.  The returned bound's domain is the part of the tree every
    consistent selection pins down; any branch matching all the
    observations obeys the bound there.
    """
    if not observed:
        raise ValueError("need at least one observation")
    if any(t.n != n for t in observed):
        raise ValueError("observations must come from column n")
    chains: set[tuple[int, ...]] = {()}
    for t in observed:
        # a chain and a node are compatible when the shorter is a prefix
        # of the longer, and the longer one goes on
        chains = {
            node if len(node) >= len(chain) else chain
            for chain in chains
            for node in t.nodes
            if chain[: len(node)] == node[: len(chain)]
        }
    if not chains:
        return BoundCertificate(n, tuple(observed), True, (), 0)
    dom = min(len(c) for c in chains)
    bound = tuple(max(c[k] for c in chains) for k in range(dom))
    return BoundCertificate(n, tuple(observed), False, bound, len(chains))


# the columns read, the bound on the codes read and the observations kept
# per column when a set's trace is turned into a bound
_TRACE_COLUMNS = 4
_TRACE_SCAN = 4000
_TRACE_OBSERVATIONS = 12


def trace_bound_func(a: UPSet) -> APFunc:
    """A concrete function bound extracted from a set's trace through
    the glued map's columns.

    For each low column, the set's first few elements there, found by
    walking the column's codes upward, are decoded to observed tuples;
    the chain bounds they force are translated back through the block
    coding into value bounds, combined coordinatewise, and finished with
    a strictly growing tail.
    """
    claims: list[list[int]] = []
    for col in range(1, _TRACE_COLUMNS + 1):
        observed = []
        # x = pair(col, m) grows with m, so the members come in the order
        # a scan of the set below the bound would meet them
        x, m = pair(col, 0), 0
        while x < _TRACE_SCAN:
            if x in a:
                observed.append(tuple_at(col, m))
                if len(observed) >= _TRACE_OBSERVATIONS:
                    break
            m += 1
            x += col + m + 1  # pair(col, m) - pair(col, m - 1)
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
