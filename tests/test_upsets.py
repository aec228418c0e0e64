import bisect
import copy
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

import reference_upsets as ref
from tukeykit import upsets as upsets_module
from tukeykit.apfuncs import next_element_func
from tukeykit.upsets import (
    EMPTY,
    EVENS,
    FULL,
    ODDS,
    UPSet,
    almost_disjoint,
    almost_subset,
    dyadic_family,
    intersection_of,
    is_ad_family,
    is_centered,
    is_linearly_ordered,
    lcm,
    parse_upset,
    partition_upset,
    slice_by_index,
    splits,
)

bits = st.lists(st.integers(0, 1), min_size=0, max_size=6).map(tuple)
periods = st.lists(st.integers(0, 1), min_size=1, max_size=6).map(tuple)
upsets = st.builds(UPSet, bits, periods)


def member_table(s: UPSet, n: int) -> tuple[bool, ...]:
    return tuple(k in s for k in range(n))


def oracle_window(a: UPSet, b: UPSet) -> int:
    return max(len(a.prefix), len(b.prefix)) + 2 * lcm(len(a.period), len(b.period))


class TestCanonical:
    @given(bits, periods)
    def test_canonicalization_idempotent(self, prefix, period):
        s = UPSet(prefix, period)
        assert UPSet(s.prefix, s.period) == s

    @given(bits, periods)
    def test_canonical_preserves_membership(self, prefix, period):
        s = UPSet(prefix, period)
        horizon = len(prefix) + 2 * len(period) + len(s.prefix) + 2 * len(s.period)
        for k in range(horizon):
            raw = (
                prefix[k] == 1
                if k < len(prefix)
                else period[(k - len(prefix)) % len(period)] == 1
            )
            assert (k in s) == raw

    @given(upsets, upsets)
    def test_equality_complete(self, a, b):
        horizon = oracle_window(a, b)
        same = member_table(a, horizon) == member_table(b, horizon)
        assert same == (a == b)

    def test_known_canonical_forms(self):
        assert UPSet((1,), (0, 1)) == EVENS
        assert UPSet((1, 0), (1, 0)) == EVENS
        assert UPSet((1,), (1, 1)) == FULL
        assert UPSet((), (0, 1, 0, 1)).period == (0, 1)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            UPSet((), ())
        with pytest.raises(ValueError):
            UPSet((2,), (1,))
        for bad in ((1.0,), ([1],), (-1,), ("1",)):
            with pytest.raises(ValueError):
                UPSet((), bad)


class TestLiterals:
    def test_evens_literal(self):
        assert str(EVENS) == "ε|10"
        assert parse_upset("ε|10") == EVENS
        assert parse_upset("|10") == EVENS

    @given(upsets)
    def test_round_trip(self, s):
        assert parse_upset(s.literal()) == s

    def test_bad_literals(self):
        for text in ("", "10", "1|", "2|1", "1|x"):
            with pytest.raises(ValueError):
                parse_upset(text)


class TestAlgebra:
    def test_disjoint_residues(self):
        assert (EVENS & ODDS) == EMPTY

    def test_complement_symmetry(self):
        assert EVENS.complement() == ODDS
        assert ODDS.complement() == EVENS

    def test_membership_table_example(self):
        # derived via the exhaustive membership oracle over lcm(3,2)=6
        u = (UPSet.from_residues(3, {0}) | UPSet.from_residues(3, {1})) & ODDS
        expected = {k for k in range(6) if k % 3 in (0, 1) and k % 2 == 1}
        assert expected == {1, 3}
        assert u == UPSet.from_residues(6, expected)

    @given(upsets, upsets)
    def test_pointwise_oracle(self, a, b):
        horizon = oracle_window(a, b)
        for k in range(horizon):
            assert (k in (a & b)) == ((k in a) and (k in b))
            assert (k in (a | b)) == ((k in a) or (k in b))
            assert (k in (a - b)) == ((k in a) and not (k in b))
        assert (k in a.complement()) == (k not in a)

    def test_complement_of_ic_is_ic(self):
        s = UPSet.from_residues(4, {1, 2})
        assert s.is_ic and s.complement().is_ic


class TestRelations:
    def test_almost_subset_examples(self):
        evens_plus = EVENS | UPSet.from_finite({1})
        assert almost_subset(EVENS, evens_plus)
        assert not almost_subset(EVENS, ODDS)
        assert almost_subset(UPSet.from_residues(4, {0}), EVENS)

    @given(upsets, upsets, upsets)
    def test_almost_subset_preorder(self, a, b, c):
        assert almost_subset(a, a)
        if almost_subset(a, b) and almost_subset(b, c):
            assert almost_subset(a, c)

    def test_splits_examples(self):
        assert splits(EVENS, FULL)
        assert not splits(FULL, EVENS)
        assert not splits(EVENS, EVENS)
        with pytest.raises(ValueError):
            splits(EVENS, UPSet.from_finite({1, 2}))

    @given(upsets, upsets)
    def test_splits_complement_symmetric(self, c, a):
        if not a.is_infinite:
            return
        assert splits(c, a) == splits(c.complement(), a)

    def test_almost_disjoint_examples(self):
        assert almost_disjoint(EVENS, ODDS)
        assert not almost_disjoint(EVENS, UPSet.from_residues(4, {0}))
        a = UPSet.from_residues(4, {1})
        b = UPSet.from_residues(4, {3}) | UPSet.from_finite({0, 1, 2})
        assert (a & b) == UPSet.from_finite({1})
        assert almost_disjoint(a, b)


class TestFamilies:
    def test_centered_examples(self):
        assert is_centered([EVENS, UPSet.from_residues(4, {0})])
        assert not is_centered([EVENS, ODDS])

    def test_centered_matches_all_subsets(self):
        fams = [
            [EVENS, UPSet.from_residues(4, {0}), UPSet.from_residues(8, {0})],
            [EVENS, ODDS, FULL],
            [UPSet.from_residues(3, {0, 1}), UPSet.from_residues(3, {1, 2})],
        ]
        for fam in fams:
            all_subsets = all(
                intersection_of(list(sub)).is_infinite
                for size in range(1, len(fam) + 1)
                for sub in itertools.combinations(fam, size)
            )
            assert is_centered(fam) == all_subsets

    def test_dyadic_family(self):
        fam = dyadic_family(4)
        assert is_ad_family(fam)
        assert is_centered([s.complement() for s in fam])

    def test_linearly_ordered(self):
        chain = [UPSet.from_residues(8, {0}), UPSet.from_residues(4, {0}), EVENS]
        assert is_linearly_ordered(chain)
        assert not is_linearly_ordered([EVENS, UPSet.from_residues(3, {0})])

    def test_empty_family_rejected(self):
        for prop in (is_centered, is_linearly_ordered, is_ad_family):
            with pytest.raises(ValueError):
                prop([])


class TestSlices:
    @given(upsets, st.integers(1, 4))
    @settings(max_examples=60)
    def test_slice_matches_enumeration(self, s, t):
        if not s.is_infinite:
            return
        horizon = len(s.prefix) + (t + 3) * len(s.period) * t + 20
        members = [k for k in range(horizon) if k in s]
        for j in range(t):
            expected = set(members[j::t])
            piece = slice_by_index(s, t, j)
            for k in range(members[-1] + 1 if members else 1):
                assert (k in piece) == (k in expected)

    def test_partition_disjoint_cover(self):
        pieces = partition_upset(EVENS, 3)
        assert all(p.is_infinite for p in pieces)
        union = pieces[0] | pieces[1] | pieces[2]
        assert union == EVENS
        for a, b in itertools.combinations(pieces, 2):
            assert (a & b) == EMPTY


# Periods up to 40 whose lengths share factors (6/10, 12/18, 24/36), so
# the gcd folds meet every case between coprime and equal periods;
# constant words give finite and cofinite sets, repeated words
# non-primitive periods.
PERIOD_LENGTHS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 18, 24, 36, 40)


@st.composite
def raw_words(draw):
    prefix = tuple(draw(st.lists(st.integers(0, 1), max_size=9)))
    length = draw(st.sampled_from(PERIOD_LENGTHS))
    shape = draw(st.sampled_from(("random", "constant", "repeated")))
    if shape == "constant":
        period = (draw(st.integers(0, 1)),) * length
    else:
        word = tuple(draw(st.lists(st.integers(0, 1), min_size=length, max_size=length)))
        period = word * (draw(st.integers(2, 3)) if shape == "repeated" else 1)
    return prefix, period


wide_upsets = raw_words().map(lambda w: UPSet(*w))


def fields(s: UPSet) -> tuple:
    return s.prefix, s.period


class TestAgainstReference:
    """The packed algebra and the gcd-folded relations against the
    per-bit walk in ``reference_upsets``."""

    @given(raw_words())
    @settings(max_examples=150)
    def test_canonical_form(self, word):
        assert fields(UPSet(*word)) == ref.canonical(*word)

    @given(wide_upsets, wide_upsets)
    @settings(max_examples=200)
    def test_operations(self, a, b):
        for name, op in (("and", a.__and__), ("or", a.__or__), ("minus", a.__sub__)):
            out = op(b)
            assert fields(out) == ref.combine(a, b, ref.OPS[name])
            assert all(type(bit) is int for bit in out.prefix + out.period)

    @given(wide_upsets, wide_upsets)
    @settings(max_examples=200)
    def test_relations(self, a, b):
        assert almost_subset(a, b) == ref.almost_subset(a, b)
        assert almost_disjoint(a, b) == ref.almost_disjoint(a, b)
        if b.is_infinite:
            assert splits(a, b) == ref.splits(a, b)

    @given(st.lists(wide_upsets, min_size=1, max_size=4), st.booleans())
    @settings(max_examples=100)
    def test_families(self, family, chain):
        if chain:
            # each member inside the one before: a linearly ordered family
            family = list(itertools.accumulate(family, lambda x, y: x & y))
        assert is_linearly_ordered(family) == ref.is_linearly_ordered(family)
        assert is_ad_family(family) == ref.is_ad_family(family)
        assert is_centered(family) == ref.is_centered(family)

    @given(wide_upsets, st.integers(1, 5), st.data())
    @settings(max_examples=100)
    def test_slice_by_index(self, b, t, data):
        j = data.draw(st.integers(0, t - 1))
        assert fields(slice_by_index(b, t, j)) == ref.slice_by_index(b, t, j)

    @given(st.sampled_from(((101, 103), (127, 131), (89, 113), (300, 196))), st.data())
    @settings(max_examples=12, deadline=None)
    def test_operations_at_large_lcm(self, periods, data):
        # lcm 10,057 to 16,637, where the window walk hands its result
        # int straight to the canonicalizer
        seed = data.draw(st.integers(0, 2**32))
        rng = random.Random(seed)
        a, b = (
            UPSet(
                tuple(rng.randrange(2) for _ in range(rng.randrange(12))),
                tuple(rng.randrange(2) for _ in range(period)),
            )
            for period in periods
        )
        assert lcm(len(a.period), len(b.period)) >= 10**4
        for name, op in (("and", a.__and__), ("or", a.__or__), ("minus", a.__sub__)):
            assert fields(op(b)) == ref.combine(a, b, ref.OPS[name])

    def test_slice_by_index_at_large_period(self):
        rng = random.Random(7)
        b = UPSet((1, 0, 1), tuple(rng.randrange(2) for _ in range(499)))
        for t, j in ((41, 0), (41, 40), (13, 5), (1, 0)):
            assert fields(slice_by_index(b, t, j)) == ref.slice_by_index(b, t, j)


class TestBytesConstructor:
    """Bits given as bytes take the same constructor path as tuples."""

    @given(raw_words())
    @settings(max_examples=150)
    def test_bytes_equal_tuples(self, word):
        prefix, period = word
        from_bytes, from_tuples = UPSet(bytes(prefix), bytes(period)), UPSet(prefix, period)
        assert from_bytes == from_tuples
        assert hash(from_bytes) == hash(from_tuples)
        assert fields(from_bytes) == fields(from_tuples)
        assert all(type(bit) is int for bit in from_bytes.prefix + from_bytes.period)

    def test_mixed_inputs(self):
        assert UPSet(b"\x01", (0, 1)) == UPSet((1,), b"\x00\x01") == EVENS

    def test_rejects_bytes_that_are_not_bits(self):
        for prefix, period in (
            (b"", b"01"),
            (b"1", b"\x01"),
            (b"", b"\x00\x02"),
            (b"\xff", b"\x00"),
            (b"", b""),
        ):
            with pytest.raises(ValueError):
                UPSet(prefix, period)


class TestRepresentation:
    """The int-stored set against a tuple-stored reference: what a
    caller sees (repr, hash, equality, the tuple views, literals) is
    what the canonical tuple pair gives."""

    @given(raw_words())
    @settings(max_examples=200)
    def test_views_match_the_tuple_reference(self, word):
        prefix, period = ref.canonical(*word)
        expected_repr = f"UPSet(prefix={prefix!r}, period={period!r})"
        for s in (UPSet(*word), UPSet(bytes(word[0]), bytes(word[1]))):
            assert type(s.prefix) is tuple and type(s.period) is tuple
            assert all(type(bit) is int for bit in s.prefix + s.period)
            assert (s.prefix, s.period) == (prefix, period)
            assert repr(s) == expected_repr
            assert hash(s) == hash((prefix, period))
            assert s == UPSet(prefix, period) and not s != UPSet(prefix, period)
            assert s != (prefix, period)
            assert s.literal() == str(s) == ref.literal(prefix, period)
            assert pickle.loads(pickle.dumps(s)) == s
            assert copy.copy(s) == s and copy.deepcopy(s) == s

    def test_immutable(self):
        s = UPSet((1, 0), (0, 1, 1))
        for name in ("prefix", "period", "head", "word", "extra"):
            with pytest.raises(AttributeError):
                setattr(s, name, (1,))
            with pytest.raises(AttributeError):
                delattr(s, name)
        assert s == UPSet((1, 0), (0, 1, 1))

    @given(st.sets(st.integers(0, 60), max_size=12), st.integers(1, 12), st.data())
    @settings(max_examples=100)
    def test_residue_and_finite_constructors(self, members, modulus, data):
        residues = data.draw(st.sets(st.integers(-30, 30), max_size=6))
        top = max(members, default=-1) + 1
        assert fields(UPSet.from_finite(members)) == ref.canonical(
            tuple(int(k in members) for k in range(top)), (0,)
        )
        rs = {r % modulus for r in residues}
        assert fields(UPSet.from_residues(modulus, residues)) == ref.canonical(
            (), tuple(int(i in rs) for i in range(modulus))
        )

    @given(wide_upsets, st.integers(0, 120))
    @settings(max_examples=200)
    def test_next_element(self, s, k):
        if not s.is_infinite:
            with pytest.raises(ValueError):
                next_element_func(s)
            return
        assert next_element_func(s)(k) == next(j for j in itertools.count(k + 1) if j in s)

    def test_next_element_at_an_lcm_period(self):
        # a prefix before a period of lcm(211, 199) = 41,989 bits: every
        # value over the prefix and two periods against membership
        rng = random.Random(3)
        a, b = (
            UPSet([rng.randint(0, 1) for _ in range(7)], [rng.randint(0, 1) for _ in range(p)])
            for p in (211, 199)
        )
        s = a & b
        m, p = s.period_start, s.period_len
        assert m > 0 and p == 41_989
        members = [k for k in range(m + 3 * p) if k in s]
        f = next_element_func(s)
        for k in range(m + 2 * p):
            assert f(k) == members[bisect.bisect_right(members, k)]


# Pairwise coprime periods, so that results carry lcm periods up to a
# few thousand; the third operand's period shares factors with them.
CHAIN_PERIODS = (7, 9, 11, 13, 37, 40)
THIRD_PERIODS = (4, 5, 6, 21, 26)


class TestChainedOperations:
    """Results of results: sets that the canonicalizer only ever saw as
    ints from another operation, against the per-bit reference."""

    @given(
        st.sampled_from(list(itertools.combinations(CHAIN_PERIODS, 2))),
        st.sampled_from(THIRD_PERIODS),
        st.integers(0, 2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_chains(self, periods, third, seed):
        rng = random.Random(seed)

        def draw(period):
            return UPSet(
                tuple(rng.randrange(2) for _ in range(rng.randrange(8))),
                tuple(rng.randrange(2) for _ in range(period)),
            )

        a, b = (draw(p) for p in periods)
        c = draw(third)
        union = a | b
        assert fields(union) == ref.combine(a, b, ref.OPS["or"])
        combined = union - c
        assert fields(combined) == ref.combine(
            UPSet(*fields(union)), c, ref.OPS["minus"]
        )
        meet = (a & c) | (b - c)
        assert fields(meet) == ref.combine(
            UPSet(*ref.combine(a, c, ref.OPS["and"])),
            UPSet(*ref.combine(b, c, ref.OPS["minus"])),
            ref.OPS["or"],
        )
        flipped = combined.complement()
        assert fields(flipped) == ref.complement(combined)
        assert fields(flipped.complement()) == fields(combined)
        for x, y in ((union, combined), (combined, union), (meet, flipped), (union, meet)):
            assert almost_subset(x, y) == ref.almost_subset(x, y)
            assert almost_disjoint(x, y) == ref.almost_disjoint(x, y)
            if y.is_infinite:
                assert splits(x, y) == ref.splits(x, y)
        for s in (union, combined, meet):
            t = rng.randrange(1, 4)
            j = rng.randrange(t)
            assert fields(slice_by_index(s, t, j)) == ref.slice_by_index(s, t, j)


@st.composite
def repeated_roots(draw):
    """A period word ``root * q`` whose length is lcm-like: a product of
    two or three small factors, the root's length among them."""
    root_len = draw(st.sampled_from((1, 2, 3, 4, 5, 6, 7)))
    q = draw(st.sampled_from((1, 2, 3, 5, 6, 7, 10, 11, 13)))
    root = tuple(draw(st.lists(st.integers(0, 1), min_size=root_len, max_size=root_len)))
    return root, q


class TestIntCanonicalForm:
    """The canonical form computed on ints against the per-bit reference,
    at the edges of the shift-and-mask arithmetic."""

    @given(repeated_roots(), st.lists(st.integers(0, 1), max_size=9).map(tuple))
    @settings(max_examples=150)
    def test_repeated_roots(self, word, prefix):
        root, q = word
        s = UPSet(prefix, root * q)
        assert fields(s) == ref.canonical(prefix, root * q)
        assert s.period_len == len(s.period) == len(ref.primitive_root(root))

    @given(raw_words(), st.integers(1, 4))
    @settings(max_examples=150)
    def test_head_absorbed_by_whole_periods(self, word, copies):
        # the head ends in whole periods after a bit the period cannot
        # continue, so the absorbed bits are a multiple of the period
        # and the word stays unrotated
        prefix, period = ref.canonical(*word)
        bit = 1 - period[-1]
        s = UPSet(prefix + (bit,) + period * copies, period)
        assert fields(s) == ref.canonical(prefix + (bit,) + period * copies, period)
        assert s.prefix == prefix + (bit,) and s.period == period

    @given(raw_words(), st.integers(0, 50))
    @settings(max_examples=150)
    def test_head_absorbed_whole(self, word, length):
        # a head that is the period run backward is absorbed entirely
        _, period = word
        run = period * (length // len(period) + 1)
        head = run[len(run) - length:]
        s = UPSet(head, period)
        assert s.period_start == 0 and s.prefix == ()
        assert fields(s) == ref.canonical(head, period)

    @given(wide_upsets, st.integers(0, 3))
    @settings(max_examples=150)
    def test_next_element_wraps_past_the_last_offset(self, s, copies):
        if not s.is_infinite:
            return
        m, p = s.period_start, s.period_len
        f = next_element_func(s)
        for k in (m + copies * p + p - 2, m + copies * p + p - 1):
            if k >= 0:
                assert f(k) == next(j for j in itertools.count(k + 1) if j in s)

    @given(wide_upsets, st.integers(0, 3))
    @settings(max_examples=150)
    def test_membership_at_the_last_offset_and_below_zero(self, s, copies):
        m, p = s.period_start, s.period_len
        k = m + copies * p + p - 1
        assert (k in s) == (s.period[-1] == 1)
        if m:
            assert (m - 1 in s) == (s.prefix[-1] == 1)
        assert -1 not in s and -(p + 1) not in s

    @given(wide_upsets)
    @settings(max_examples=150)
    def test_double_complement(self, s):
        assert s.complement().complement() == s
        assert fields(s.complement()) == ref.complement(s)


class TestNoConversions:
    """Results are built by the one int canonicalizer, and operations on
    existing sets pack no bits."""

    def test_one_canonicalization_per_set_returned(self, monkeypatch):
        a, b = UPSet((1, 0), (0, 1, 1)), UPSet.from_residues(5, {0, 2})
        calls = []
        post_init = UPSet.__post_init__

        def counting(self, *args):
            calls.append(args)
            post_init(self, *args)

        monkeypatch.setattr(UPSet, "__post_init__", counting)
        for build in (
            lambda: a & b,
            lambda: a | b,
            lambda: a - b,
            lambda: a.complement(),
            lambda: slice_by_index(b, 3, 1),
            lambda: parse_upset("10|011"),
            lambda: UPSet((1,), (0, 1)),
            lambda: UPSet.from_residues(4, {1}),
            lambda: UPSet.from_finite({2, 5}),
            lambda: pickle.loads(pickle.dumps(a)),
        ):
            calls.clear()
            build()
            assert len(calls) == 1

    def test_relations_and_algebra_pack_nothing(self, monkeypatch):
        rng = random.Random(3)
        a, b, c = (
            UPSet((1, 0, 1), tuple(rng.randrange(2) for _ in range(p))) for p in (13, 11, 13)
        )
        chain = [a, a & b, (a & b) & c]
        family = dyadic_family(4)
        packed = []
        pack = upsets_module._pack

        def counting(bits):
            packed.append(bits)
            return pack(bits)

        monkeypatch.setattr(upsets_module, "_pack", counting)
        almost_subset(a, b), almost_disjoint(a, b), splits(c, a)
        is_linearly_ordered(chain), is_ad_family(family), is_centered([a, b, c])
        a & b, a | b, a - b, a.complement()
        assert packed == []
