import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import reference_apfuncs as ref
from tukeykit.apfuncs import (
    APFunc,
    EnumerationBudget,
    IDENTITY,
    _COLUMN_PASSES,
    _PREFIX_GUARD,
    _crossover,
    _reduce_block,
    _run,
    almost_constant_on,
    bit_coloring,
    constant,
    eventually_dominates,
    first_difference,
    is_coloring,
    level_set,
    next_element_func,
    parse_apfunc,
    pointwise_max,
)
from tukeykit.upsets import EVENS, UPSet, lcm

from helpers import gap_func, value_parity_set

naturals = st.integers(0, 9)
apfuncs = st.builds(
    APFunc,
    st.lists(naturals, max_size=4).map(tuple),
    st.lists(naturals, min_size=1, max_size=4).map(tuple),
    st.integers(0, 5),
)


def equal_window(f: APFunc, g: APFunc) -> int:
    return max(f.period_start, g.period_start) + lcm(f.period_len, g.period_len)


class TestCanonical:
    @given(apfuncs)
    def test_idempotent(self, f):
        assert APFunc(f.prefix, f.base, f.drift) == f

    @given(
        st.lists(naturals, max_size=4).map(tuple),
        st.lists(naturals, min_size=1, max_size=4).map(tuple),
        st.integers(0, 5),
    )
    def test_canonical_preserves_values(self, prefix, base, drift):
        f = APFunc(prefix, base, drift)
        horizon = len(prefix) + 3 * len(base) + f.period_start + 3 * f.period_len
        for k in range(horizon):
            if k < len(prefix):
                raw = prefix[k]
            else:
                q, i = divmod(k - len(prefix), len(base))
                raw = base[i] + q * drift
            assert f(k) == raw

    @given(apfuncs, apfuncs)
    def test_equality_complete(self, f, g):
        window = equal_window(f, g)
        if ref.slope(f) != ref.slope(g):
            assert f != g
            return
        same = f.values(window) == g.values(window)
        assert same == (f == g)

    def test_reduction(self):
        assert APFunc((), (0, 1, 0, 1), 0) == APFunc((), (0, 1), 0)
        assert APFunc((), (0, 1, 1, 2), 2) == APFunc((), (0, 1), 1)
        assert APFunc((0,), (1,), 1).prefix == ()

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            APFunc((), (), 0)
        with pytest.raises(ValueError):
            APFunc((), (0,), -1)


class TestLiterals:
    @given(apfuncs)
    def test_round_trip(self, f):
        assert parse_apfunc(f.literal()) == f

    def test_identity_literal(self):
        assert IDENTITY.literal() == ";0;1"
        assert parse_apfunc(";0;1") == IDENTITY

    def test_bad_literals(self):
        for text in ("", "1;2", "a;0;1", "0;;1"):
            with pytest.raises(ValueError):
                parse_apfunc(text)

    @given(
        st.lists(st.integers(0, 10**12), max_size=6).map(tuple),
        st.lists(st.integers(0, 10**12), min_size=1, max_size=6).map(tuple),
        st.integers(0, 10**12),
    )
    def test_round_trip_of_any_naturals(self, prefix, base, drift):
        f = APFunc(prefix, base, drift)
        assert parse_apfunc(f.literal()) == f

    @pytest.mark.parametrize(
        "args, text",
        [
            (((), (1.5,), 0), ";1.5;0"),
            (((), (True,), 0), ";True;0"),
            (((False,), (1,), 0), "False;1;0"),
            (((), (1,), 1.0), ";1;1.0"),
            (((), (1,), True), ";1;True"),
        ],
        ids=["float-value", "bool-value", "bool-prefix", "float-drift", "bool-drift"],
    )
    def test_only_ints_build(self, args, text):
        # exactly the inputs whose literal parse_apfunc rejects
        with pytest.raises(ValueError, match="naturals"):
            APFunc(*args)
        with pytest.raises(ValueError):
            parse_apfunc(text)


class TestDomination:
    def test_slope_decides(self):
        assert eventually_dominates(IDENTITY, constant(5))
        assert not eventually_dominates(constant(5), IDENTITY)

    @given(apfuncs)
    def test_reflexive(self, f):
        assert eventually_dominates(f, f)

    def test_equal_slope_offsets(self):
        two_k = APFunc((), (0,), 2)
        two_k_plus = APFunc((), (1,), 2)
        assert not eventually_dominates(two_k, two_k_plus)
        assert eventually_dominates(two_k_plus, two_k)

    @given(apfuncs, apfuncs)
    @settings(max_examples=120)
    def test_matches_brute_force_on_equal_slopes(self, f, g):
        if ref.slope(f) != ref.slope(g):
            return
        horizon = max(f.period_start, g.period_start) + 10 * lcm(
            f.period_len, g.period_len
        )
        settled = max(f.period_start, g.period_start)
        brute = all(g(k) <= f(k) for k in range(settled, horizon))
        assert eventually_dominates(f, g) == brute


class TestPointwiseMax:
    def test_constants(self):
        assert pointwise_max(constant(0), constant(7)) == constant(7)

    @given(apfuncs)
    def test_idempotent(self, f):
        assert pointwise_max(f, f) == f

    def test_crossover_example(self):
        trunc = APFunc(tuple(range(10, 0, -1)), (0,), 0)
        m = pointwise_max(IDENTITY, trunc)
        assert m.values(12) == [10, 9, 8, 7, 6, 5, 6, 7, 8, 9, 10, 11]

    @given(apfuncs, apfuncs)
    @settings(max_examples=120)
    def test_pointwise_oracle(self, f, g):
        m = pointwise_max(f, g)
        horizon = (
            max(m.period_start, f.period_start, g.period_start)
            + 2 * lcm(m.period_len, lcm(f.period_len, g.period_len))
        )
        for k in range(horizon):
            assert m(k) == max(f(k), g(k))

    @given(apfuncs, apfuncs)
    def test_dominates_both(self, f, g):
        m = pointwise_max(f, g)
        assert eventually_dominates(m, f)
        assert eventually_dominates(m, g)


class TestFirstDifference:
    @given(apfuncs, apfuncs)
    def test_finds_least_difference(self, f, g):
        k = first_difference(f, g)
        if k is None:
            assert f == g
        else:
            assert f(k) != g(k)
            assert all(f(j) == g(j) for j in range(k))


class TestDerivedSets:
    def test_level_set_zero_drift(self):
        c = APFunc((), (0, 1, 2), 0)
        assert level_set(c, 1) == UPSet.from_residues(3, {1})

    def test_level_set_positive_drift(self):
        assert level_set(IDENTITY, 4) == UPSet.from_finite({4})

    @given(apfuncs, st.integers(0, 6))
    @settings(max_examples=80)
    def test_level_set_oracle(self, f, v):
        s = level_set(f, v)
        horizon = f.period_start + 3 * f.period_len + len(s.prefix) + 3 * len(s.period) + v * f.period_len + 5
        for k in range(horizon):
            assert (k in s) == (f(k) == v)

    @given(apfuncs)
    def test_parity_set_oracle(self, f):
        s = value_parity_set(f)
        horizon = f.period_start + 4 * f.period_len + len(s.prefix) + 2 * len(s.period)
        for k in range(horizon):
            assert (k in s) == (f(k) % 2 == 1)

    def test_bit_coloring(self):
        c = APFunc((), (0, 1, 2, 3), 0)
        assert bit_coloring(c, 0) == UPSet.from_residues(4, {1, 3})
        assert bit_coloring(c, 1) == UPSet.from_residues(4, {2, 3})
        with pytest.raises(ValueError):
            bit_coloring(IDENTITY, 0)

    def test_is_coloring(self):
        assert is_coloring(APFunc((), (0, 1), 0), 2)
        assert not is_coloring(APFunc((), (0, 2), 0), 2)
        assert not is_coloring(IDENTITY, 2)


class TestAlmostConstant:
    def test_constant_coloring(self):
        assert almost_constant_on(constant(1), EVENS)

    def test_alternating_not_constant_on_full(self):
        c = APFunc((), (0, 1), 0)
        assert not almost_constant_on(c, UPSet((), (1,)))
        assert almost_constant_on(c, EVENS)

    def test_positive_drift_never(self):
        assert not almost_constant_on(IDENTITY, EVENS)


class TestEnumeratorFunctions:
    @given(st.lists(st.integers(0, 1), max_size=5).map(tuple),
           st.lists(st.integers(0, 1), min_size=1, max_size=5).map(tuple))
    @settings(max_examples=80)
    def test_next_element(self, prefix, period):
        a = UPSet(prefix, period)
        if not a.is_infinite:
            return
        f = next_element_func(a)
        for k in range(len(a.prefix) + 4 * len(a.period) + 8):
            nxt = f(k)
            assert nxt > k and nxt in a
            assert all(j not in a for j in range(k + 1, nxt))

    def test_gap_func(self):
        g = gap_func(EVENS)
        assert g == constant(2)
        mixed = UPSet((1, 1, 1), (0, 0, 1))
        gaps = gap_func(mixed)
        members = [k for k in range(40) if k in mixed]
        for i in range(len(members) - 1):
            assert gaps(i) == members[i + 1] - members[i]

    @given(st.lists(st.integers(0, 1), max_size=5).map(tuple),
           st.lists(st.integers(0, 1), min_size=1, max_size=5).map(tuple))
    @settings(max_examples=80)
    def test_gap_func_matches_enumeration(self, prefix, period):
        a = UPSet(prefix, period)
        if not a.is_infinite:
            return
        gaps = gap_func(a)
        members = [k for k in range(len(a.prefix) + 12 * len(a.period) + 12) if k in a]
        for i in range(len(members) - 1):
            assert gaps(i) == members[i + 1] - members[i]


def fields(f: APFunc) -> tuple:
    return f.prefix, f.base, f.drift


prefixes = st.lists(naturals, max_size=4).map(tuple)
blocks = st.lists(st.integers(0, 30), min_size=1, max_size=5).map(tuple)


@st.composite
def backward_runs(draw):
    """A (prefix, base, drift) whose prefix ends with a run, up to 60
    values long, that continues the block backward."""
    base, drift = draw(blocks), draw(st.integers(0, 5))
    length = draw(st.integers(0, 60))
    run = ref.run(base, drift, -length, 0)
    # keep the longest tail of naturals
    negative = [i for i, v in enumerate(run) if v < 0]
    run = run[negative[-1] + 1 :] if negative else run
    return draw(prefixes) + tuple(run), base, drift


@st.composite
def function_pairs(draw, same_slope: bool):
    """Two functions, at one slope or (after a filter) at two."""
    s = draw(st.integers(0, 3))
    out = []
    for _ in range(2):
        base = draw(st.lists(naturals, min_size=1, max_size=4).map(tuple))
        drift = len(base) * s if same_slope else draw(st.integers(0, 6))
        out.append(APFunc(draw(prefixes), base, drift))
    return out


def periodic_pair(seed: int) -> tuple[APFunc, APFunc]:
    """Two functions of the shape the ``periodic`` benchmark workload
    maximizes: three prefix values below 10, then blocks of 53 and 47
    values below 20 at slopes 2 and 1."""
    rng = random.Random(seed)

    def func(length: int, slope: int) -> APFunc:
        return APFunc(tuple(rng.randrange(10) for _ in range(3)),
                      tuple(rng.randrange(20) for _ in range(length)), length * slope)

    return func(53, 2), func(47, 1)


def steep_pair(p: int) -> tuple[APFunc, APFunc]:
    """Base lengths p and p - 1 at drift 3, blocks falling by 3: the
    maximum's crossover sits near p * (p - 1) * p."""
    def block(n):
        return APFunc((), tuple(3 * i for i in range(n))[::-1], 3)

    return block(p), block(p - 1)


@st.composite
def block_runs(draw):
    """A block of 1 to 80 values, a drift (zero about half the time) and
    a span of offsets over at most 100 passes of the block, starting
    below zero about half the time, as the backward run does."""
    p = draw(st.integers(1, 80))
    base = tuple(draw(st.lists(st.integers(0, 50), min_size=p, max_size=p)))
    drift = draw(st.one_of(st.just(0), st.integers(1, 40)))
    lo = draw(st.integers(-60 * p, 60 * p))
    return base, drift, lo, lo + draw(st.integers(0, 100 * p - lo % p))


def pass_span(base: tuple[int, ...], lo: int, passes: int) -> int:
    """The hi at which _run's window from ``lo`` spans ``passes`` passes."""
    return (lo // len(base) + passes) * len(base)


@st.composite
def repeated_blocks(draw):
    """A block of length 49, 360, 2,491 = 47 * 53, the prime 2,503, or a
    composite or prime-power length up to 96, built as a short block
    repeated with a step, sometimes with one value changed.  The drift
    continues the step when the short length divides the block's, or
    is a multiple of one prime of the block's length (so that the
    reduction by that prime's cuts meets a step that is no integer), or
    is drawn at random."""
    p = draw(st.sampled_from([8, 12, 16, 18, 24, 27, 32, 36, 48, 49, 64, 72, 96,
                              360, 2491, 2503]))
    s = draw(st.one_of(st.sampled_from([d for d in range(1, p + 1) if p % d == 0]),
                       st.integers(1, 12)))
    rng = draw(st.randoms(use_true_random=False))
    short = [rng.randrange(6) for _ in range(s)]
    step = draw(st.integers(0, 3))
    base = [short[t % s] + (t // s) * step for t in range(p)]
    if draw(st.booleans()):
        base[rng.randrange(p)] += 1
    q = draw(st.sampled_from([q for q in (2, 3, 5, 7, 47, 53, 2503) if p % q == 0]))
    continued = [step * (p // s)] if p % s == 0 else []
    drift = draw(st.sampled_from(continued + [q * rng.randrange(1, 5), rng.randrange(6)]))
    return tuple(base), drift


class TestCrossover:
    """The least crossover of two functions at unequal slopes, checked
    on its definition."""

    @given(function_pairs(False))
    @example([IDENTITY, APFunc(tuple(range(10, 0, -1)), (0,), 0)])
    @example(list(periodic_pair(0)))
    def test_least_crossover(self, pair):
        # K is the least index from which the steeper function is the
        # maximum: hi >= lo over two common blocks past K, lo > hi at K - 1
        f, g = pair
        order = f.drift * g.period_len - g.drift * f.period_len
        assume(order)
        hi, lo = (f, g) if order > 0 else (g, f)
        k = _crossover(hi, lo)
        assert all(hi(j) >= lo(j) for j in range(k, k + 2 * lcm(f.period_len, g.period_len)))
        if k:
            assert lo(k - 1) > hi(k - 1)


class TestAgainstReference:
    """The block-evaluated paths against the per-index walk in
    ``reference_apfuncs``."""

    @given(backward_runs())
    @settings(max_examples=150)
    def test_canonical_form(self, raw):
        assert fields(APFunc(*raw)) == ref.canonical(*raw)

    @given(prefixes, blocks, st.integers(0, 5))
    @settings(max_examples=150)
    def test_canonical_form_of_plain_input(self, prefix, base, drift):
        assert fields(APFunc(prefix, base, drift)) == ref.canonical(prefix, base, drift)

    def test_long_backward_prefix_is_linear(self, monkeypatch):
        # the block (40000,) at drift 1 continues backward through the
        # whole prefix 0..39999; absorbed one value at a time this copied
        # the prefix once per value.  The canonical form reads the
        # backward run once and the rotated block once.
        built = []

        def counted(*args):
            out = _run(*args)
            built.append(len(out))
            return out

        monkeypatch.setattr("tukeykit.apfuncs._run", counted)
        f = APFunc(tuple(range(40000)), (40000,), 1)
        assert f == IDENTITY
        assert built == [40000, 1]
        g = APFunc((7,) + tuple(range(1, 30000)), (30000,), 1)
        assert fields(g) == ((7,), (1,), 1)

    @given(block_runs())
    @example(((3, 1, 4), 2, 0, 3 * (_COLUMN_PASSES - 1)))
    @example(((3, 1, 4), 2, 0, 3 * _COLUMN_PASSES))
    @example(((3, 1, 4), 2, 0, 3 * (_COLUMN_PASSES + 1)))
    @example(((5, 9), 7, -31, pass_span((5, 9), -31, _COLUMN_PASSES - 1)))
    @example(((5, 9), 7, -31, pass_span((5, 9), -31, _COLUMN_PASSES)))
    @example(((5, 9), 7, -31, pass_span((5, 9), -31, _COLUMN_PASSES + 1)))
    @settings(max_examples=300)
    def test_run(self, raw):
        assert _run(*raw) == ref.run(*raw)

    @given(repeated_blocks())
    @settings(max_examples=150, deadline=None)
    def test_reduce_block(self, raw):
        assert _reduce_block(*raw) == ref.reduce_block(*raw)

    @given(apfuncs, st.integers(0, 40), st.integers(-3, 80))
    @settings(max_examples=150)
    def test_window(self, f, start, stop):
        assert f.window(start, stop) == ref.window(f, start, stop)
        assert f.values(stop) == ref.window(f, 0, stop)

    @given(st.booleans(), st.data())
    @settings(max_examples=200)
    def test_two_function_algorithms(self, same_slope, data):
        f, g = data.draw(function_pairs(same_slope))
        assume((ref.slope(f) == ref.slope(g)) == same_slope)
        assert eventually_dominates(f, g) == ref.eventually_dominates(f, g)
        assert eventually_dominates(g, f) == ref.eventually_dominates(g, f)
        assert fields(pointwise_max(f, g)) == ref.pointwise_max(f, g)
        assert first_difference(f, g) == ref.first_difference(f, g)
        if not same_slope:
            hi, lo = (f, g) if ref.slope(f) > ref.slope(g) else (g, f)
            assert _crossover(hi, lo) == ref.crossover(hi, lo)

    def test_scans_past_their_first_span(self):
        # the scans read doubling spans from 64 values; a violation or a
        # difference at any one index must be seen
        g = APFunc((), (5, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5), 11)
        lifted = [v + 1 for v in g.window(0, 143)]
        for j in range(143):
            f = APFunc((), tuple(lifted[:j] + [lifted[j] - 2] + lifted[j + 1 :]), 143)
            assert not eventually_dominates(f, g)
            assert first_difference(f, APFunc((), tuple(lifted), 143)) == j
        for agree in range(300):
            h = APFunc(tuple(g.window(0, agree)), (0,), 0)
            assert first_difference(g, h) == ref.first_difference(g, h)

    @given(apfuncs, st.integers(0, 12))
    @settings(max_examples=150)
    def test_level_set(self, f, v):
        s = level_set(f, v)
        assert (s.prefix, s.period) == ref.level_set(f, v)

    @given(apfuncs)
    @settings(max_examples=150)
    def test_value_parity_set(self, f):
        s = value_parity_set(f)
        assert (s.prefix, s.period) == ref.value_parity_set(f)


@pytest.fixture
def windows(monkeypatch):
    """The lengths of the windows ``APFunc.window`` is asked for."""
    read = []
    window = APFunc.window

    def counted(self, start, stop):
        read.append(stop - start)
        return window(self, start, stop)

    monkeypatch.setattr(APFunc, "window", counted)
    return read


class TestMaximumWindows:
    def test_prefix_stops_at_least_crossover(self, windows):
        # the crossover reads one common block of each function, then the
        # maximum reads both prefixes up to K = 109 and hi's next block,
        # not up to 2,599, the first good index of the class that turns last
        f, g = periodic_pair(0)
        m = pointwise_max(f, g)
        assert windows == [53 * 47] * 2 + [109] * 2 + [53]
        assert len(m.prefix) == 109
        assert ref.first_good(f, g) == 2599

    def test_crossover_below_the_common_start(self, windows):
        # no class is negative past the common start 10, so K = 5 is read
        # from the two windows [0, 10)
        trunc = APFunc(tuple(range(10, 0, -1)), (0,), 0)
        pointwise_max(IDENTITY, trunc)
        assert windows == [1] * 2 + [10] * 2 + [5] * 2 + [1]


class TestPrefixGuard:
    def test_steep_maximum_raises_before_building(self, windows):
        # a window of about 3.4 * 10^6 values; the guard must refuse it
        # before allocating: the only windows read are the crossover's
        # one common block of 151 * 150 values
        f, g = steep_pair(151)
        with pytest.raises(EnumerationBudget, match="above the guard of"):
            pointwise_max(f, g)
        assert windows == [151 * 150] * 2

    def test_scans_stop_before_the_guard(self, windows):
        # the common block of lengths 1500 and 1501 is 2,251,500 long,
        # past the guard, but the scans stop at their first answer;
        # pointwise_max, at equal and at unequal slopes, refuses it
        # before reading a window
        f = APFunc((), (1,) * 1499 + (0,), 0)
        g = APFunc((), (0,) * 1500 + (1,), 0)
        assert first_difference(f, g) == 0
        assert not eventually_dominates(g, f)
        read = len(windows)
        steeper = APFunc((), (1,) * 1499 + (0,), 1500)
        for h in (f, steeper):
            with pytest.raises(EnumerationBudget, match="above the guard of"):
                pointwise_max(h, g)
        assert len(windows) == read

    def test_scans_answer_past_the_guard(self, windows):
        # f is 1 except at residue 7 mod 1500, g is 0 except at residue
        # 11 mod 1501; the two meet, and g rises above f, only at the
        # index k below, past the guard.  Each scan holds one span of at
        # most 65,536 values and reads the whole common block.
        k = next(k for k in range(7, 1500 * 1501, 1500) if k % 1501 == 11)
        assert k > _PREFIX_GUARD
        f = APFunc((), tuple(0 if i == 7 else 1 for i in range(1500)), 0)
        g = APFunc((), tuple(1 if j == 11 else 0 for j in range(1501)), 0)
        raised = APFunc((), (2,) + (1,) * 1499, 0)
        assert not eventually_dominates(f, g)
        assert max(windows) == 1 << 16
        assert k < sum(windows) // 2 <= k + (1 << 16)
        windows.clear()
        assert eventually_dominates(raised, g)
        assert max(windows) == 1 << 16
        assert sum(windows) // 2 == 1500 * 1501

    def test_first_difference_past_the_guard(self):
        # a common start past the guard: the prefixes agree on their
        # first 2,000,000 values
        zeros = (0,) * _PREFIX_GUARD
        f = APFunc(zeros + (1,), (0,) * 1499 + (1,), 0)
        g = APFunc(zeros + (2,), (0,) * 1500 + (1,), 0)
        assert first_difference(f, g) == _PREFIX_GUARD
        assert first_difference(g, f) == _PREFIX_GUARD

    def test_smaller_steep_maximum_is_exact(self):
        # the crossover of lengths 31 and 30 is past 27,000 values
        f, g = steep_pair(31)
        m = pointwise_max(f, g)
        assert len(m.prefix) > 27000
        assert fields(m) == ref.pointwise_max(f, g)
