import functools
import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import reference_branchmap as ref
import tukeykit
from tukeykit import branchmap
from tukeykit.apfuncs import APFunc, IDENTITY, ZERO, constant
from tukeykit.branchmap import (
    ColumnTuple,
    EnumerationBudget,
    ImagePrefix,
    bound_from_trace,
    branch_of,
    common_witnesses,
    divergence_level,
    encode_blocks,
    exact_intersection,
    image_contains,
    image_prefix,
    level_count,
    pair,
    trace_bound_func,
    tuple_at,
    tuple_code,
    tuple_decode,
    tuple_index,
    unpair,
    witness_stream,
)
from tukeykit.catalog import GluedImage
from tukeykit.upsets import UPSet

from helpers import naive_level_tuples, zero_headed_apfunc
from reference_branchmap import tuple_in_column_image


def small_apfunc(rng: random.Random) -> APFunc:
    prefix = tuple(rng.randrange(3) for _ in range(rng.randrange(3)))
    base = tuple(rng.randrange(3) for _ in range(rng.randrange(1, 3)))
    return APFunc(prefix, base, rng.randrange(3))


def zero_headed(n: int, top: int = 2, lead: int = 0):
    """Functions whose first n values vanish, except the first, which
    ranges to ``lead``; then up to three values and a drifting block,
    each at most ``top``."""
    return st.builds(
        lambda v, after, base, drift: APFunc((v,) + (0,) * (n - 1) + tuple(after), (base,), drift),
        st.integers(0, lead),
        st.lists(st.integers(0, top), max_size=3),
        st.integers(0, top),
        st.integers(0, 1),
    )


def recording_restrict(monkeypatch) -> list[tuple[branchmap.Branch, int]]:
    """Patch ``Branch.restrict`` to log each (branch, level) it is asked for."""
    calls = []
    restrict = branchmap.Branch.restrict

    def recording(self, level):
        calls.append((self, level))
        return restrict(self, level)

    monkeypatch.setattr(branchmap.Branch, "restrict", recording)
    return calls


class TestCoding:
    def test_pair_unpair(self):
        for z in range(2000):
            x, y = unpair(z)
            assert pair(x, y) == z

    def test_single_entry_code_is_identity(self):
        assert tuple_code([(0,)]) == 0
        assert tuple_code([(2,)]) == 2

    def test_code_decode_round_trip(self):
        for n in (1, 2, 3):
            for code in range(1000):
                assert tuple_code(tuple_decode(code, n)) == code

    def test_decode_code_round_trip(self):
        rng = random.Random(7)
        for n in (1, 2, 3):
            for _ in range(50):
                matrix = tuple(
                    tuple(rng.randrange(4) for _ in range(n)) for _ in range(n)
                )
                assert tuple_decode(tuple_code(matrix), n) == matrix

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            tuple_code([(1, 2), (3,)])

    @given(st.integers(1, 12), st.integers(0, 10**40))
    # chains that settle at 1 (1, 4, 10) and at 0 (3, 6)
    @example(1, 1)
    @example(5, 3)
    @example(12, 4)
    @example(7, 6)
    @example(12, pair(1, 0))
    @example(12, pair(pair(1, 1), 0))
    @example(9, pair(pair(1, 0), 7))
    def test_decode_matches_full_walk(self, n, code):
        matrix = tuple_decode(code, n)
        assert matrix == ref.tuple_decode(code, n)
        assert tuple_code(matrix) == code == ref.tuple_code(matrix)

    @given(
        st.integers(1, 12),
        st.integers(0, 1),
        st.lists(st.integers(0, 5), max_size=4),
    )
    def test_code_matches_full_fold(self, n, first, tail):
        # a 0 or 1 up front, then zeros, then a few small entries: the
        # codes of denser matrices have astronomically many digits
        tail = tail[: n * n - 1]
        entries = [first] + [0] * (n * n - 1 - len(tail)) + tail
        matrix = tuple(tuple(entries[i * n : (i + 1) * n]) for i in range(n))
        code = tuple_code(matrix)
        assert code == ref.tuple_code(matrix)
        assert tuple_decode(code, n) == matrix


class TestBranches:
    def test_identity_region(self):
        b = branch_of(APFunc((5, 7), (0,), 0), 2)
        assert b.restrict(2) == (5, 7)

    def test_block_coding(self):
        b = branch_of(APFunc((3, 2), (0,), 0), 1)
        # value 2 becomes the block 110
        assert b.restrict(4) == (3, 1, 1, 0)
        assert encode_blocks(1, (3, 2)) == (3, 1, 1, 0)

    def test_prefix_monotone(self):
        rng = random.Random(1)
        for _ in range(100):
            n = rng.randrange(1, 4)
            f = small_apfunc(rng)
            b = branch_of(f, n)
            l1 = rng.randrange(1, 8)
            l2 = rng.randrange(l1, 10)
            assert b.restrict(l2)[:l1] == b.restrict(l1)

    @given(
        st.integers(1, 4),
        st.lists(st.integers(0, 3), max_size=6),
        st.lists(st.integers(0, 3), min_size=1, max_size=3),
        st.integers(0, 2),
        st.integers(0, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_restriction_is_prefix_stable(self, n, prefix, base, drift, deep):
        # the reads slice one deep restriction; every level, those at or
        # below n included, must see the restriction made for it alone
        b = branch_of(APFunc(tuple(prefix), tuple(base), drift), n)
        full = b.restrict(deep)
        assert len(full) == deep
        for level in range(deep + 1):
            assert full[:level] == b.restrict(level)

    @given(
        st.integers(1, 6),
        st.lists(st.integers(0, 10**3), max_size=8),
        st.lists(st.integers(0, 10**3), min_size=1, max_size=4),
        st.integers(0, 3),
        st.integers(0, 5000),
    )
    @settings(max_examples=80, deadline=None)
    # levels below and at n, one past it, inside a value's block and at
    # its last entry; small values that take several spans to cover
    @example(3, [5, 6, 7], [1], 0, 2)
    @example(3, [5, 6, 7], [1], 0, 3)
    @example(1, [0], [4], 0, 2)
    @example(1, [0, 3], [0], 0, 4)
    @example(1, [0, 3], [0], 0, 5)
    @example(1, [], [10**3], 3, 5000)
    @example(1, [], [0], 0, 5000)
    @example(2, [], [0, 1], 1, 5000)
    def test_restriction_matches_whole_blocks(self, n, prefix, base, drift, level):
        b = branch_of(APFunc(tuple(prefix), tuple(base), drift), n)
        expected = (ref.restrict(b, level), ref.values_needed(b, level))
        assert branchmap._restriction(n, b.func, level) == expected

    def test_deep_restriction_reads_about_the_values_it_needs(self, monkeypatch):
        # the identity needs about sqrt(2 * level) values, not level
        read = []
        window = APFunc.window

        def counting(self, start, stop):
            out = window(self, start, stop)
            read.append(len(out))
            return out

        monkeypatch.setattr(APFunc, "window", counting)
        b = branch_of(IDENTITY, 1)
        level = 10**5
        entries = b.restrict(level)
        monkeypatch.undo()
        needed = ref.values_needed(b, level)
        assert entries == ref.restrict(b, level)
        assert needed <= sum(read) <= 2 * needed

    def test_restriction_cost_follows_the_level(self):
        # one value of 10^7 would be a block of 10^7 + 1 entries; only the
        # level's three are built
        b = branch_of(constant(10**7), 1)
        tracemalloc.start()
        try:
            entries = b.restrict(3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert entries == (10**7, 1, 1)
        assert peak < 2**20

    def test_divergence_level(self):
        rng = random.Random(2)
        for _ in range(60):
            n = rng.randrange(1, 4)
            f, g = small_apfunc(rng), small_apfunc(rng)
            bf, bg = branch_of(f, n), branch_of(g, n)
            lvl = divergence_level(bf, bg)
            if lvl is None:
                assert f == g
            else:
                assert bf.restrict(lvl) != bg.restrict(lvl)
                assert bf.restrict(lvl - 1) == bg.restrict(lvl - 1)

    def test_divergence_level_matches_level_scan(self):
        rng = random.Random(12)
        pairs = [(small_apfunc(rng), small_apfunc(rng)) for _ in range(300)]
        # long agreements: a shared prefix of 200 to 2,000 values, then a
        # first difference in the prefix or in the periodic part
        for _ in range(40):
            common = tuple(rng.randrange(4) for _ in range(rng.randrange(200, 2001)))
            f, g = small_apfunc(rng), small_apfunc(rng)
            pairs.append(
                (APFunc(common + f.prefix, f.base, f.drift),
                 APFunc(common + g.prefix, g.base, g.drift))
            )
        for f, g in pairs:
            n = rng.randrange(1, 5)
            bf, bg = branch_of(f, n), branch_of(g, n)
            assert divergence_level(bf, bg) == ref.divergence_level(bf, bg)

    def test_divergence_level_builds_no_restriction(self, monkeypatch):
        def refuse(self, level):
            raise RuntimeError("divergence_level restricted a branch")

        monkeypatch.setattr(branchmap.Branch, "restrict", refuse)
        common = (0, 2, 1) * 1000
        cases = [
            (ZERO, ZERO, 2, None),
            # first difference at value 1, an identity entry
            (APFunc((0, 1), (0,), 0), ZERO, 2, 2),
            # values 0 and 1 fill 2 entries and values 2..2,999 fill
            # 2,998 + 2,998, so value 3,000's blocks, 10 and 0, start at
            # entry 5,998 and differ there
            (APFunc(common, (1,), 0), APFunc(common, (0,), 0), 2, 5999),
        ]
        for f, g, n, level in cases:
            assert divergence_level(branch_of(f, n), branch_of(g, n)) == level


class TestTupleEnumeration:
    def test_level_count_matches_naive(self):
        for n in (1, 2):
            for level in range(n + 1, n + 4):
                assert len(naive_level_tuples(n, level)) == level_count(n, level)

    def test_index_round_trip(self):
        for n in (1, 2):
            for m in range(400):
                assert tuple_index(tuple_at(n, m)) == m

    def test_count_below_matches_the_sum(self):
        for n in range(1, 6):
            for level in range(n + 1, n + 41):
                total = sum(level_count(n, l) for l in range(n + 1, level))
                assert branchmap._count_below(n, level) == total

    @given(st.integers(1, 5), st.one_of(st.integers(0, 2999), st.integers(0, 2**2000)))
    @settings(max_examples=300, deadline=None)
    @example(1, 2**2000)
    @example(5, 0)
    def test_offsets_match_the_level_walk(self, n, index):
        assert branchmap._locate(n, index) == ref.locate(n, index)
        assert tuple_index(ref.tuple_at(n, index)) == index

    def test_offsets_at_every_level_edge(self):
        # the first index of each level, and the last of the one before
        for n in range(1, 6):
            for level in range(n + 2, n + 60):
                first = sum(level_count(n, l) for l in range(n + 1, level))
                for index in (first - 1, first):
                    assert branchmap._locate(n, index) == ref.locate(n, index)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_deep_index_counts_few_levels(self, monkeypatch, n):
        index = random.Random(n).getrandbits(200_000) | 1 << 199_999
        counted = []
        real = branchmap.level_count
        monkeypatch.setattr(branchmap, "level_count", lambda n, l: counted.append(l) or real(n, l))
        level, code, tails = branchmap._locate(n, index)
        # the walked levels, then a correction of a level or two
        assert len(counted) <= branchmap._WALKED_LEVELS + 4
        monkeypatch.undo()
        below = branchmap._count_below(n, level)
        assert below <= index < below + level_count(n, level)
        assert index - below == (code << n * (level - n)) + tails and code < level

    @pytest.mark.parametrize("n", [1, 3])
    def test_deep_index_round_trip(self, n):
        # a level near 200,000 / n: offsets and tail bits in time linear
        # in the index's bits, where a walk or a shift per bit took seconds
        index = random.Random(n).getrandbits(200_000) | 1 << 199_999
        assert tuple_index(tuple_at(n, index)) == index

    def test_enumeration_order_is_index_order(self):
        for n in (1, 2):
            ts = naive_level_tuples(n, n + 1) + naive_level_tuples(n, n + 2)
            indices = sorted(tuple_index(t) for t in ts)
            assert indices == list(range(len(ts)))

    @pytest.mark.parametrize(
        "n, nodes, message",
        [
            (2, ((0, 0, 1),), "arity"),
            (2, ((0, 0, 1), (0, 0)), "one level"),
            (2, ((0, 0), (0, 0)), "strictly below"),
            (1, ((0, 1, 2),), "binary"),
            (2, ((0, 0, 1), (0, 0, -1)), "binary"),
            (1, ((5, 0),), "prefix code"),
        ],
    )
    def test_inadmissible_tuples_rejected(self, n, nodes, message):
        with pytest.raises(ValueError, match=message):
            ColumnTuple(n, nodes)


def column_level_set(n, branch, level):
    """The admissible tuples at one level carrying the branch's
    restriction, in ``tuple_index`` order."""
    return branchmap._level_intersection(n, level, [branch.restrict(level)])


class TestColumnLevelSets:
    def test_single_column_single_element(self):
        b = branch_of(ZERO, 1)
        found = column_level_set(1, b, 2)
        assert len(found) == 1
        assert found[0].nodes == ((0, 0),)

    def test_large_first_value_empty(self):
        b = branch_of(constant(9), 1)
        assert column_level_set(1, b, 3) == []

    def test_matches_naive_filter(self):
        rng = random.Random(3)
        for n, level in ((1, 3), (1, 5), (2, 4), (2, 5)):
            for _ in range(4):
                f = small_apfunc(rng)
                b = branch_of(f, n)
                mine = column_level_set(n, b, level)
                r = b.restrict(level)
                naive = [t for t in naive_level_tuples(n, level) if r in t.nodes]
                assert mine == sorted(naive, key=tuple_index)

    def test_cross_column_common_tuples(self):
        f1 = APFunc((0, 0), (1,), 0)
        f2 = APFunc((0, 0), (2,), 0)
        b1, b2 = branch_of(f1, 2), branch_of(f2, 2)
        for level in (3, 4):
            s1 = {t.nodes for t in column_level_set(2, b1, level)}
            s2 = {t.nodes for t in column_level_set(2, b2, level)}
            naive_common = {
                t.nodes
                for t in naive_level_tuples(2, level)
                if b1.restrict(level) in t.nodes and b2.restrict(level) in t.nodes
            }
            assert s1 & s2 == naive_common


class TestImage:
    def test_prefix_monotone_in_bound(self):
        f = APFunc((), (0, 1), 0)
        small = image_prefix(f, 60)
        large = image_prefix(f, 120)
        assert set(small.elements) == {x for x in large.elements if x < 60}

    def test_continuity_depth_report(self):
        f = APFunc((), (1,), 0)
        result = image_prefix(f, 80)
        # mutating the function beyond the reported depth cannot change
        # the computed prefix
        mutated = APFunc(
            tuple(f(k) for k in range(result.depth_used)) + (f(result.depth_used) + 9,),
            (0,),
            1,
        )
        assert image_prefix(mutated, 80).elements == result.elements

    def test_column_one_growth_linear(self):
        # one admissible tuple per level in the first column
        b = branch_of(ZERO, 1)
        counts = [len(column_level_set(1, b, level)) for level in range(2, 12)]
        assert counts == [1] * 10

    def test_membership_agrees_with_prefix(self):
        f = APFunc((1,), (0, 2), 1)
        result = image_prefix(f, 90)
        for x in range(90):
            assert (x in set(result.elements)) == image_contains(f, x)

    @pytest.mark.parametrize("seed", [None, 1, 2, 3])
    def test_reads_match_tuple_walk(self, seed):
        # IDENTITY, then seeded small functions
        rng = random.Random(seed)
        f = IDENTITY if seed is None else small_apfunc(rng)
        bound = 1500 if seed is None else rng.randrange(200, 1500)
        expected = ref.image_prefix(f, bound)
        assert image_prefix(f, bound) == expected
        members = set(expected.elements)
        for x in range(bound):
            assert image_contains(f, x) == (x in members)
        # sparse reads up to about 10^5 (columns up to about 440)
        for x in [10**5, pair(440, 6)] + [rng.randrange(10**5) for _ in range(6)]:
            assert image_contains(f, x) == ref.image_contains(f, x)

    @given(st.integers(0, 2**20), st.integers(0, 400))
    @settings(max_examples=40, deadline=None)
    def test_prefix_matches_tuple_walk(self, seed, bound):
        f = small_apfunc(random.Random(seed))
        assert image_prefix(f, bound) == ref.image_prefix(f, bound)

    @pytest.mark.parametrize("zeros", [1, 2, 3, 5])
    def test_prefix_at_every_bound(self, zeros):
        # a column's last row can open a new level, whose restriction is
        # the deepest one read; a 1 after a run of zero values puts the
        # only nonzero tail bit of that level at its last entry
        f = APFunc((0,) * zeros, (1,), 0)
        top = 700
        members = ref.image_prefix(f, top).elements
        depth = 0
        for bound in range(top + 1):
            expected = tuple(x for x in members if x < bound)
            assert image_prefix(f, bound) == ImagePrefix(expected, bound, depth)
            col, m = unpair(bound)
            if col:
                depth = max(depth, ref.values_needed(branch_of(f, col), ref.tuple_at(col, m).level))


def branch_head_func(head, after, base, drift) -> APFunc:
    """A function whose first len(head) values are ``head``."""
    return APFunc(tuple(head) + tuple(after), (base,), drift)


class TestSparseReads:
    @given(
        st.integers(1, 40),
        st.integers(0, 10**12),
        st.sampled_from(["row", "zero", "other"]),
        st.integers(0, 39),
        st.lists(st.integers(0, 3), min_size=40, max_size=40),
    )
    @settings(max_examples=80, deadline=None)
    # codes below and at the level n + 1, codes that settle at 1 and at 0
    @example(3, 4, "zero", 0, [0] * 40)
    @example(40, 41, "row", 39, [0] * 40)
    @example(12, pair(1, 0), "row", 0, [0] * 40)
    @example(7, 6, "zero", 0, [0] * 40)
    @example(1, 10**12, "row", 0, [0] * 40)
    def test_slots_match_decoded_rows(self, n, code, kind, row, other):
        rows = ref.tuple_decode(code, n)
        head = {
            "row": rows[row % n],
            "zero": (0,) * n,
            "other": tuple(other[:n]),
        }[kind]
        expected = [j for j, r in enumerate(rows) if r == head]
        assert branchmap._slots_holding(code, n, head) == expected

    @given(
        st.integers(1, 8),
        st.lists(st.integers(0, 3), min_size=1, max_size=3),
        st.integers(0, 3),
        st.integers(0, 2),
        st.integers(0, 3000),
    )
    @settings(max_examples=12, deadline=None)
    @example(3, [1], 0, 0, 3000)
    @example(1, [0, 2], 1, 1, 2999)
    def test_prefix_matches_tuple_walk_zero_headed(self, k, after, base, drift, bound):
        # columns up to k read an all-zero head, which the untouched
        # rows of every code carry
        f = branch_head_func((0,) * k, after, base, drift)
        assert image_prefix(f, bound) == ref.image_prefix(f, bound)

    @given(
        st.integers(300, 450),
        st.data(),
        st.sampled_from(["row", "zero", "other"]),
        st.lists(st.integers(0, 2), min_size=1, max_size=2),
        st.integers(0, 2),
    )
    @settings(max_examples=10, deadline=None)
    def test_contains_matches_tuple_walk_at_high_columns(self, col, data, kind, after, drift):
        # a tuple at level col + 1: a code up to the level, free tails
        code = data.draw(st.integers(0, col))
        tails = data.draw(st.integers(0, (1 << col) - 1))
        x = pair(col, (code << col) | tails)
        rows = ref.tuple_decode(code, col)
        if kind == "row":
            head = rows[data.draw(st.integers(0, col - 1))]
        elif kind == "zero":
            head = (0,) * col
        else:
            head = tuple(range(col))
        f = branch_head_func(head, after, 1, drift)
        assert image_contains(f, x) == ref.image_contains(f, x)

    def test_reads_build_no_dense_matrix(self, monkeypatch):
        def dense(code, n):
            raise AssertionError("image reads must not decode a whole tuple")

        restricted = []
        restriction = branchmap._restriction

        def counting(n, f, level, *head):
            restricted.append((n, level))
            return restriction(n, f, level, *head)

        monkeypatch.setattr(branchmap, "tuple_decode", dense)
        monkeypatch.setattr(branchmap, "_restriction", counting)
        bound = 16000
        result = image_prefix(IDENTITY, bound)
        assert result.bound == bound and result.elements
        # one restriction per column reached, at its deepest reached level
        deepest = {}
        for col, m in map(unpair, range(bound)):
            if col:
                deepest[col] = max(deepest.get(col, 0), branchmap._locate(col, m)[0])
        assert sorted(restricted) == sorted(deepest.items())
        assert image_contains(IDENTITY, pair(447, 0)) is False
        assert image_contains(ZERO, pair(447, 0)) is True


@pytest.fixture
def windows(monkeypatch) -> list[tuple[int, int]]:
    """The (start, stop) of each window ``APFunc.window`` is asked for."""
    read = []
    window = APFunc.window
    monkeypatch.setattr(APFunc, "window", lambda f, a, b: read.append((a, b)) or window(f, a, b))
    return read


def fold_reaches(entries, target) -> bool:
    """Does the pairing fold of ``entries`` reach ``target``?  A step
    never lowers the fold, pair(x, e) >= x, so it stops there: a dense
    5 x 5 code has millions of digits."""
    code = entries[0]
    for e in entries[1:]:
        if code >= target:
            break
        code = pair(code, e)
    return code >= target


def least_code_heads(data, col: int, kind: str) -> tuple[int, ...]:
    """An all-zero head, a head with one nonzero entry (near its end
    half the time, where the least code stays small), or a growing one."""
    if kind == "zero":
        return (0,) * col
    if kind == "one":
        back = data.draw(st.one_of(st.integers(0, min(4, col - 1)), st.integers(0, col - 1)))
        head = [0] * col
        head[col - 1 - back] = data.draw(st.integers(1, 3))
        return tuple(head)
    start, step = data.draw(st.integers(0, 3)), data.draw(st.integers(1, 3))
    return tuple(start + step * i for i in range(col))


def check_read_around_least_code(data, col, head, after, drift) -> None:
    """``image_contains`` agrees with the tuple walk on a read of the
    function with ``head`` at a level just past the column, at a code one
    below, at or one above the head's least code, or anywhere below the
    level; half the reads whose code has the head as a row carry f's own
    word in a slot."""
    level = col + 1 + data.draw(st.integers(0, 2))
    least = branchmap._least_code(head, level)
    code = data.draw(st.sampled_from(
        sorted({max(0, min(level - 1, c)) for c in (least - 1, least, least + 1)})
        + [data.draw(st.integers(0, level - 1))]
    ))
    f = branch_head_func(head, after, 1, drift)
    per = level - col
    tails = data.draw(st.integers(0, (1 << col * per) - 1))
    slots = [j for j, row in enumerate(ref.tuple_decode(code, col)) if row == head]
    if slots and data.draw(st.booleans()):
        # put f's own word in the last slot holding its head
        word = int("".join(map(str, ref.restrict(branch_of(f, col), level)[col:])), 2)
        shift = per * (col - 1 - slots[-1])
        tails = tails & ~(((1 << per) - 1) << shift) | word << shift
    m = sum(level_count(col, l) for l in range(col + 1, level)) + (code << col * per) + tails
    x = pair(col, m)
    assert image_contains(f, x) == ref.image_contains(f, x)


class TestLeastCode:
    @given(
        st.integers(1, 5),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounds_every_matrix_holding_the_head(self, n, data):
        entries = st.integers(0, 3)
        head = tuple(data.draw(st.lists(entries, min_size=n, max_size=n)))
        matrix = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
        least = functools.reduce(pair, head)
        assert branchmap._least_code(head, least) == least
        if least:
            assert branchmap._least_code(head, least - 1) > least - 1
        for j in range(n):
            rows = [list(r) for r in matrix]
            rows[j] = list(head)
            assert fold_reaches([e for r in rows for e in r], least)
        if n <= 3:
            # small enough for whole codes
            assert all(
                ref.tuple_code(matrix[:j] + [list(head)] + matrix[j + 1 :]) >= least
                for j in range(n)
            )

    @given(
        st.integers(1, 450),
        st.sampled_from(["zero", "one", "growing"]),
        st.data(),
        st.lists(st.integers(0, 2), max_size=2),
        st.integers(0, 2),
    )
    @settings(max_examples=60, deadline=None)
    def test_contains_matches_tuple_walk_around_the_least_code(self, col, kind, data, after, drift):
        check_read_around_least_code(data, col, least_code_heads(data, col, kind), after, drift)

    @given(
        st.integers(1, 450),
        st.data(),
        st.lists(st.integers(0, 2), max_size=2),
        st.integers(0, 2),
    )
    @settings(max_examples=60, deadline=None)
    def test_lazy_fold_matches_tuple_walk(self, col, data, after, drift):
        # a run of leading zeros crosses the first windows of the lazy
        # fold; near the head's end a nonzero value keeps the least code
        # small, so the read can be a member
        zeros = data.draw(st.one_of(st.integers(0, min(40, col)), st.integers(max(0, col - 4), col)))
        head = [0] * col
        if zeros < col:
            head[zeros] = data.draw(st.integers(1, 3))
            for _ in range(data.draw(st.integers(0, 2))):
                head[data.draw(st.integers(zeros, col - 1))] = data.draw(st.integers(0, 3))
        check_read_around_least_code(data, col, tuple(head), after, drift)

    def test_rules_out_before_any_restriction(self, monkeypatch):
        calls, pairs, windows = [], [], []
        for name in ("_restriction", "encode_blocks"):
            real = getattr(branchmap, name)
            monkeypatch.setattr(
                branchmap, name, lambda *a, real=real, name=name: calls.append(name) or real(*a)
            )
        monkeypatch.setattr(branchmap, "pair", lambda x, y: pairs.append((x, y)) or pair(x, y))
        window = APFunc.window
        monkeypatch.setattr(APFunc, "window", lambda f, a, b: windows.append((a, b)) or window(f, a, b))
        x = pair(447, 0)  # level 448, code 0
        assert image_contains(IDENTITY, x) is False
        # pair(0, 1) = 2 already exceeds the code
        assert calls == [] and pairs == [(0, 1)]
        pairs.clear()
        f = APFunc((0,) * 446 + (1,), (0,), 0)
        assert image_contains(f, x) is False
        assert calls == [] and pairs == [(0, 1)]
        # its least code 2 is not ruled out: code 2 holds the head as its
        # last row, whose tail bit, f(447) = 0's block, is 0
        assert image_contains(f, pair(447, 2 << 447)) is True
        calls.clear()
        windows.clear()
        assert image_contains(ZERO, x) is True
        assert calls == ["_restriction", "encode_blocks"]
        # the fold reads the head's 447 values in windows whose ends
        # double from 8; the restriction goes on from them
        assert windows == [(0, 8), (8, 16), (16, 32), (32, 64), (64, 128), (128, 256), (256, 447), (447, 448)]

    def test_ruled_out_read_makes_one_small_window(self, windows):
        # IDENTITY's head folds past code 0 at its second value
        assert image_contains(IDENTITY, pair(447, 0)) is False
        assert len(windows) == 1 and windows[0][0] == 0 and windows[0][1] <= 8

    @pytest.mark.parametrize(
        "f, x",
        [
            (ZERO, pair(447, 0)),
            (ZERO, pair(40, 3)),
            # least code 2, at the code; the head's last row holds it
            (APFunc((0,) * 446 + (1,), (0,), 0), pair(447, 2 << 447)),
        ],
    )
    def test_member_reads_each_value_once(self, windows, f, x):
        assert image_contains(f, x) is True
        # contiguous windows from 0: the fold's, then the restriction's
        starts, stops = zip(*windows)
        assert starts[0] == 0 and starts[1:] == stops[:-1]
        assert len(windows) > 2

    def test_negative_element_is_named(self):
        with pytest.raises(ValueError, match="x must be a natural"):
            image_contains(ZERO, -1)
        with pytest.raises(ValueError, match="x must be a natural"):
            -1 in GluedImage(ZERO)


class TestWitnesses:
    def test_single_branch_counts(self):
        ws = witness_stream(1, [branch_of(ZERO, 1)], 10)
        assert len(ws) == 10
        levels = [t.level for t in ws]
        assert levels == sorted(set(levels))

    def test_three_branches(self):
        # zero identity regions keep the shared prefix code at 0, so
        # witnesses exist from level 4 on
        fs = [
            APFunc((0, 0, 0), (1,), 0),
            APFunc((0, 0, 0), (2,), 0),
            APFunc((0, 0, 0, 5), (0,), 1),
        ]
        branches = [branch_of(f, 3) for f in fs]
        ws = witness_stream(3, branches, 8)
        assert len(ws) == 8
        for t in ws:
            for b in branches:
                assert tuple_in_column_image(3, b, t)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_stream_matches_per_level_reference(self, data):
        n = data.draw(st.integers(1, 4))
        k = data.draw(st.integers(1, n))
        # column 1's shared prefix code is its one identity entry
        lead = 40 if n == 1 else 0
        fs = data.draw(st.lists(zero_headed(n, lead=lead), min_size=k, max_size=k))
        count = data.draw(st.integers(0, 30))
        branches = [branch_of(f, n) for f in fs]
        assert witness_stream(n, branches, count) == ref.witness_stream(n, branches, count)

    def test_stream_restricts_each_branch_twice(self, monkeypatch):
        # once for the heads, once to the last witness's level
        fs = [APFunc((0, 0, 0), (1,), 0), APFunc((0, 0, 0, 5), (0,), 1)]
        branches = [branch_of(f, 3) for f in fs]
        calls = recording_restrict(monkeypatch)
        ws = witness_stream(3, branches, 8)
        assert [t.level for t in ws] == list(range(4, 12))
        assert sorted((fs.index(b.func), level) for b, level in calls) == [
            (0, 3), (0, 11), (1, 3), (1, 11)
        ]

    def test_deep_shared_level_counts_few_levels(self, monkeypatch):
        # code 227,483 passes the guard; the offsets of the level-227,484
        # tuples used to walk every level below, for some 30 s
        counted = []
        real = branchmap.level_count
        monkeypatch.setattr(branchmap, "level_count", lambda n, l: counted.append(l) or real(n, l))
        fs = [APFunc((8, 0), (0,), 1), APFunc((0, 8), (1,), 1)]
        found = common_witnesses(fs, 2)
        assert [t.level for t in found.tuples] == [227_484, 227_485]
        # each element's index is located once per function, past the
        # walked levels by a correction of a level or two
        assert len(counted) <= 2 * len(fs) * (branchmap._WALKED_LEVELS + 4)
        # the re-check reads (column, row) as built; the ~910,000-bit
        # element still decodes to them
        assert unpair(found.elements[0]) == (2, tuple_index(found.tuples[0]))

    def test_astronomic_code_guarded(self):
        branches = [branch_of(constant(1), 3)] * 3
        with pytest.raises(EnumerationBudget):
            witness_stream(3, branches, 1)

    def test_common_witnesses_verified(self):
        found = common_witnesses([ZERO, constant(2)], 10)
        assert found.column == 2
        assert len(found.elements) == 10
        for x in found.elements:
            assert image_contains(ZERO, x)
            assert image_contains(constant(2), x)

    def test_duplicates_deduplicated(self):
        found = common_witnesses([ZERO, ZERO], 5)
        assert found.column == 1

    @pytest.mark.parametrize("check", ["_column_contains"])
    def test_membership_checks_survive_optimize(self, check):
        # a broken image read must trip common_witnesses' own re-check,
        # which reads each element's column and row as built
        script = (
            "import sys\n"
            "import tukeykit.branchmap as bm\n"
            "from tukeykit.apfuncs import ZERO, constant\n"
            "from tukeykit.errors import CertificateError\n"
            "if __debug__:\n"
            "    sys.exit('assertions are enabled')\n"
            f"bm.{check} = lambda *args: False\n"
            "try:\n"
            "    bm.common_witnesses([ZERO, constant(2)], 3)\n"
            "except CertificateError as exc:\n"
            "    print(exc)\n"
            "    sys.exit(0)\n"
            "sys.exit('membership failure went unnoticed')\n"
        )
        src = str(Path(tukeykit.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "witness" in proc.stdout


class TestExactIntersection:
    def test_distinct_at_zero_empty(self):
        fs = [ZERO, constant(1)]
        result = exact_intersection(1, [branch_of(f, 1) for f in fs])
        assert result.tuples == ()

    def test_shared_prefix_counts(self):
        # branches equal to depth 4, separating at entry 4: the fifth
        # value 2 is coded as the block 110
        a = branch_of(ZERO, 1)
        b = branch_of(APFunc((0, 0, 0, 0), (2,), 0), 1)
        result = exact_intersection(1, [a, b])
        assert result.separation_level == 5
        # shared tuples can live at levels 2, 3, 4 only
        assert {t.level for t in result.tuples} <= {2, 3, 4}
        assert result.size == 3

    def test_size_guard(self):
        # the branches agree to depth 20, so column 2's scan reaches
        # level 15, the first whose tails exceed 2^24
        zeros = (0,) * 20
        fs = [ZERO, APFunc(zeros, (1,), 0), APFunc(zeros, (2,), 0)]
        with pytest.raises(EnumerationBudget, match="level 15 of column 2"):
            exact_intersection(2, [branch_of(f, 2) for f in fs])

    def test_long_agreement_stops_at_the_size_guard(self, monkeypatch):
        # a 3,000-value agreement separates past level 6,000, but column
        # 1's scan stops at level 26, the first whose tails exceed 2^24
        levels = []
        restrict = branchmap.Branch.restrict

        def recording(self, level):
            levels.append(level)
            return restrict(self, level)

        monkeypatch.setattr(branchmap.Branch, "restrict", recording)
        common = (0, 2, 1) * 1000
        fs = [APFunc(common, (1,), 0), APFunc(common, (0,), 0)]
        with pytest.raises(EnumerationBudget, match="level 26 of column 1"):
            exact_intersection(1, [branch_of(f, 1) for f in fs])
        assert max(levels) == 26

    def test_restricts_each_branch_once(self, monkeypatch):
        # separating at level 5, the scan reads levels 2 to 4
        branches = [branch_of(ZERO, 1), branch_of(APFunc((0, 0, 0, 0), (2,), 0), 1)]
        calls = recording_restrict(monkeypatch)
        assert exact_intersection(1, branches).size == 3
        assert calls == [(b, 4) for b in branches]

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_level_scan_reference(self, data):
        n = data.draw(st.integers(1, 4))
        fs = data.draw(st.lists(zero_headed(n, top=4), min_size=n + 1, max_size=n + 1))
        branches = [branch_of(f, n) for f in fs]
        levels = [divergence_level(a, b) for a, b in itertools.combinations(branches, 2)]
        assume(None not in levels)
        # the reference walks every admissible tuple: keep it to 2^12 tails
        assume(n * (max(levels) - 1 - n) <= 12)
        assert exact_intersection(n, branches) == ref.exact_intersection(n, branches)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_level_scan_reference_with_nonzero_heads(self, data):
        # each branch takes one of two heads, so the heads' least codes,
        # not only the separation, bound the codes a level can hold
        n = data.draw(st.integers(1, 3))
        heads = data.draw(st.lists(
            st.lists(st.integers(0, 2), min_size=n, max_size=n), min_size=1, max_size=2
        ))
        assume(any(map(any, heads)))
        fs = [
            branch_head_func(
                data.draw(st.sampled_from(heads)),
                data.draw(st.lists(st.integers(0, 2), max_size=3)),
                data.draw(st.integers(0, 2)),
                data.draw(st.integers(0, 1)),
            )
            for _ in range(n + 1)
        ]
        branches = [branch_of(f, n) for f in fs]
        levels = [divergence_level(a, b) for a, b in itertools.combinations(branches, 2)]
        assume(None not in levels)
        assume(n * (max(levels) - 1 - n) <= 12)
        assert exact_intersection(n, branches) == ref.exact_intersection(n, branches)

    def test_codes_start_at_the_least_code(self, monkeypatch):
        # both heads are (2), whose least code is 2: level 2 holds codes
        # 0 and 1 only, so no code of it is asked about
        fs = [APFunc((2, 0, 0, 0), (1,), 0), APFunc((2, 0, 0, 0), (0,), 0)]
        branches = [branch_of(f, 1) for f in fs]
        asked = []
        slots = branchmap._slots_holding
        monkeypatch.setattr(
            branchmap, "_slots_holding", lambda code, n, head: asked.append(code) or slots(code, n, head)
        )
        result = exact_intersection(1, branches)
        assert result.separation_level == 5
        assert [t.level for t in result.tuples] == [3, 4]
        assert result == ref.exact_intersection(1, branches)
        assert asked == [2, 2, 3]

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_carrier_reference_past_the_level_scan(self, data):
        # the scan's deepest level walks 2^13 to 2^16 tails, past what
        # the level-scan reference can: two of the n+1 branches part at
        # the last bit of their words, so the separation comes one level
        # after the deepest level read
        n = data.draw(st.integers(1, 4))
        deepest = data.draw(st.sampled_from(
            [level for level in range(n + 1, 20) if 13 <= n * (level - n) <= 16]
        ))
        width = deepest - n + 1
        twin = data.draw(st.integers(0, 2 ** (width - 1) - 1)) << 1
        words = data.draw(st.lists(
            st.integers(0, 2**width - 1).filter(lambda w: w >> 1 != twin >> 1),
            min_size=n - 1, max_size=n - 1, unique=True,
        ))
        branches = [branch_of(word_function(n, w, width), n) for w in [twin, twin | 1, *words]]
        result = exact_intersection(n, branches)
        assert result.separation_level == deepest + 1
        assert result == ref.exact_intersection_by_carriers(n, branches)

    def test_equal_branches_rejected(self):
        with pytest.raises(ValueError):
            exact_intersection(1, [branch_of(ZERO, 1), branch_of(ZERO, 1)])

    def test_matches_brute_force(self):
        rng = random.Random(11)
        done = 0
        while done < 60:
            n = rng.randrange(1, 4)
            fs = []
            while len(fs) < n + 1:
                # zero heads keep the shared prefix code low, so columns 2
                # and 3 also meet nonempty intersections
                f = small_apfunc(rng) if rng.randrange(2) else zero_headed_apfunc(rng, n)
                if f not in fs:
                    fs.append(f)
            branches = [branch_of(f, n) for f in fs]
            sep = max(
                divergence_level(x, y)
                for x, y in itertools.combinations(branches, 2)
            )
            if sep > 6:
                continue
            result = exact_intersection(n, branches)
            assert result.separation_level == sep
            brute = []
            for level in range(n + 1, result.separation_level):
                rs = [b.restrict(level) for b in branches]
                for t in naive_level_tuples(n, level):
                    if all(r in t.nodes for r in rs):
                        brute.append(t)
            assert list(result.tuples) == sorted(brute, key=tuple_index)
            done += 1


def word_function(n, word, width):
    """A zero-headed function whose column-n branch starts, past its
    head, with the ``width`` bits of ``word``, first bit most
    significant: each run of ones ended by a zero is a value, and the
    trailing run is the next one."""
    values, run = [], 0
    for i in range(width - 1, -1, -1):
        if word >> i & 1:
            run += 1
        else:
            values.append(run)
            run = 0
    return APFunc((0,) * n + tuple(values), (run,), 0)


def sample_observations(rng, n, branch, levels):
    """Observations drawn from the branch's column image: the branch
    restriction in one slot, arbitrary compatible nodes elsewhere."""
    out = []
    for level in levels:
        r = branch.restrict(level)
        pos = rng.randrange(n)
        nodes = []
        for j in range(n):
            if j == pos:
                nodes.append(r)
            else:
                prefix = tuple(rng.randrange(level) for _ in range(n))
                tail = tuple(rng.randrange(2) for _ in range(level - n))
                nodes.append(prefix + tail)
        code = tuple_code([t[:n] for t in nodes])
        if code >= level:
            continue
        out.append(ColumnTuple(n, tuple(nodes)))
    return out


class TestBoundFromTrace:
    def test_single_observation(self):
        t = ColumnTuple(1, ((0, 1, 0),))
        cert = bound_from_trace(1, [t])
        assert not cert.empty
        assert cert.bound == (0, 1, 0)

    def test_incompatible_singletons(self):
        t1 = ColumnTuple(1, ((0, 0),))
        t2 = ColumnTuple(1, ((1, 0),))
        cert = bound_from_trace(1, [t1, t2])
        assert cert.empty

    def test_matches_exhaustive_choice_oracle(self):
        rng = random.Random(5)
        for _ in range(30):
            n = 2
            f = small_apfunc(rng)
            branch = branch_of(f, n)
            obs = sample_observations(rng, n, branch, [3, 4, 5])
            if not obs:
                continue
            cert = bound_from_trace(n, obs)
            # oracle: every choice vector, chain check by pairwise prefix test
            unions = []
            for choice in itertools.product(range(n), repeat=len(obs)):
                chosen = [obs[i].nodes[c] for i, c in enumerate(choice)]
                ok = all(
                    a[: min(len(a), len(b))] == b[: min(len(a), len(b))]
                    for a, b in itertools.combinations(chosen, 2)
                )
                if ok:
                    unions.append(max(chosen, key=len))
            if not unions:
                assert cert.empty
                continue
            dom = min(len(u) for u in unions)
            expected = tuple(max(u[k] for u in unions) for k in range(dom))
            assert cert.bound == expected

    def test_soundness_randomized(self):
        rng = random.Random(9)
        trials = 0
        while trials < 200:
            n = rng.randrange(1, 3)
            f = small_apfunc(rng)
            branch = branch_of(f, n)
            obs = sample_observations(rng, n, branch, [n + 2, n + 3])
            if not obs:
                continue
            cert = bound_from_trace(n, obs)
            assert not cert.empty  # the generating branch is consistent
            entries = branch.restrict(len(cert.bound))
            for k, bound_k in enumerate(cert.bound):
                assert entries[k] <= bound_k
            trials += 1


@st.composite
def trace_sets(draw) -> UPSet:
    """Sets for the trace walk: periodic ones, ones whose prefix reaches
    past the scan bound of 4,000, and finite ones living on a few
    columns only, so that other columns have no members."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(("periodic", "long prefix", "columns")))
    density = rng.random()
    if kind == "columns":
        cols = draw(st.sets(st.integers(0, 6), max_size=3))
        return UPSet.from_finite(
            pair(c, m)
            for c in cols
            for m in range(120)
            if rng.random() < density
        )
    length = rng.randrange(60) if kind == "periodic" else rng.randrange(3950, 4150)
    prefix = tuple(int(rng.random() < density) for _ in range(length))
    period = tuple(int(rng.random() < density) for _ in range(rng.randrange(1, 40)))
    return UPSet(prefix, period)


class TestTraceBound:
    @given(trace_sets())
    @settings(max_examples=120, deadline=None)
    def test_column_walk_matches_the_scan(self, a):
        assert trace_bound_func(a) == ref.trace_bound_func(a)

    @pytest.mark.parametrize(
        "a",
        [
            UPSet.from_finite(range(4000, 4100)),
            UPSet.from_finite([pair(0, m) for m in range(80)]),
            UPSet.from_finite([pair(2, m) for m in range(0, 80, 3)]),
            UPSet((0,) * 3999, (1,)),
            UPSet.from_residues(7, {2, 5}),
        ],
        ids=["above-bound", "column-0-only", "one-column", "from-3999", "residues"],
    )
    def test_column_walk_edge_cases(self, a):
        assert trace_bound_func(a) == ref.trace_bound_func(a)

    def test_returns_growing_function(self):
        f = trace_bound_func(UPSet.from_residues(3, {0}))
        assert f.drift >= 1

    def test_bounds_generating_function_on_observed_columns(self):
        g = APFunc((), (1,), 0)
        img = image_prefix(g, 400)
        a = UPSet.from_finite(img.elements)
        bound = trace_bound_func(a)
        # on the identity region of column 1 the claims are g-values
        assert bound(0) >= g(0)
