"""Shared oracles and scripted candidates used by the unit and
acceptance suites."""

import itertools
import random

from tukeykit.apfuncs import (
    APFunc,
    IDENTITY,
    ZERO,
    constant,
    level_set,
    next_element_func,
    pointwise_max,
)
from tukeykit.branchmap import ColumnTuple, tuple_code, tuple_decode
from tukeykit.triples import FiniteTriple, MorphismCandidate
from tukeykit.upsets import EVENS, FULL, ODDS, UPSet, slice_by_index


def value_parity_set(f: APFunc) -> UPSet:
    """The set {k : f(k) is odd}; periodic because parity cycles with
    period at most 2 in the pass count."""
    n0, p = f.period_start, f.period_len
    width = p if f.drift % 2 == 0 else 2 * p
    bits = [v & 1 for v in f.window(0, n0 + width)]
    return UPSet(bits[:n0], bits[n0:])


def gap_func(a: UPSet) -> APFunc:
    """k -> gap between the k-th and (k+1)-th member of ``a``.

    Gaps repeat once the enumeration enters the periodic region, so the
    sequence is eventually periodic with zero drift.
    """
    if not a.is_infinite:
        raise ValueError("needs an infinite set")
    n0, d = len(a.prefix), len(a.period)
    ones = a.period.count(1)
    settled = a.prefix.count(1)
    # each period block past the prefix holds ``ones`` members, so two
    # blocks give the ones + 1 members that close one full gap cycle
    members = [k for k in range(n0 + 2 * d) if k in a]
    gaps = [b - x for x, b in zip(members, members[1:])]
    return APFunc(tuple(gaps[:settled]), tuple(gaps[settled : settled + ones]), 0)


def coloring_boundaries(g: APFunc, count: int) -> list[int]:
    """The first ``count`` + 1 block boundaries t_0 = 0, t_1, ... of the
    block coloring of ``g``, t_{j+1} = max(g(t_j), t_j + 1)."""
    ts = [0]
    while len(ts) <= count:
        ts.append(max(g(ts[-1]), ts[-1] + 1))
    return ts


def coloring_bit(g: APFunc, k: int) -> int:
    """The colour of position ``k`` in the block coloring of ``g``: 1 on
    the even-numbered blocks, found by walking the blocks one at a time."""
    t, j = 0, 0
    while (nxt := max(g(t), t + 1)) <= k:
        t, j = nxt, j + 1
    return 1 if j % 2 == 0 else 0


def finite_triple(minus, plus, pairs: set[tuple[str, str]]) -> FiniteTriple:
    """The finite triple relating exactly the given label pairs."""
    return FiniteTriple(
        tuple(minus), tuple(plus), tuple(tuple((x, y) in pairs for y in plus) for x in minus)
    )


def identity_candidate(kinds: tuple[str, str] | None = None, name: str = "identity") -> MorphismCandidate:
    return MorphismCandidate(
        pull=lambda x: x, push=lambda y: y, source_kinds=kinds, target_kinds=kinds, name=name
    )


def naive_level_tuples(n: int, level: int) -> list[ColumnTuple]:
    """Oracle: every admissible column tuple at one level, by brute
    product over codes and binary tails."""
    out = []
    for code in range(level):
        matrix = tuple_decode(code, n)
        pools = [
            [matrix[j] + tail for tail in itertools.product((0, 1), repeat=level - n)]
            for j in range(n)
        ]
        for combo in itertools.product(*pools):
            out.append(ColumnTuple(n, combo))
    return out


def zero_headed_apfunc(rng: random.Random, head: int) -> APFunc:
    """A function whose first ``head`` values vanish, keeping the shared
    prefix-matrix code small for column ``head`` work."""
    tail = tuple(rng.randrange(3) for _ in range(rng.randrange(1, 3)))
    return APFunc((0,) * head + tail, (rng.randrange(3),), rng.randrange(2))


def ic_or_evens(s: UPSet) -> UPSet:
    return s if s.is_ic else EVENS


def scripted_max_pair_candidates() -> list[MorphismCandidate]:
    mk = MorphismCandidate
    return [
        mk(pull=lambda f: EVENS, push=lambda a: ZERO, name="const/zero"),
        mk(pull=lambda f: ODDS, push=next_element_func, name="const-odds/next"),
        mk(
            pull=lambda f: ic_or_evens(value_parity_set(f)),
            push=gap_func,
            name="parity/gaps",
        ),
        mk(
            pull=lambda f: ic_or_evens(level_set(f, 0)),
            push=lambda a: constant(7),
            name="zero-set/const7",
        ),
        mk(
            pull=lambda f: UPSet.from_residues(3, {0}),
            push=lambda a: pointwise_max(next_element_func(a), constant(3)),
            name="mod3/max-next",
        ),
        mk(
            pull=lambda f: EVENS if f(0) % 2 == 0 else ODDS,
            push=lambda a: constant(a.next_element(0)),
            name="first-value-branch/const",
        ),
        mk(
            pull=lambda f: ic_or_evens(level_set(f, 0).complement()),
            push=lambda a: IDENTITY,
            name="support/identity",
        ),
        mk(
            pull=lambda f: ic_or_evens(value_parity_set(f).complement()),
            push=lambda a: pointwise_max(gap_func(a), IDENTITY),
            name="even-values/max-gap-id",
        ),
        mk(
            pull=lambda f: UPSet.from_residues(3, {1}),
            push=lambda a: pointwise_max(gap_func(a), next_element_func(a)),
            name="mod3-1/gap-next",
        ),
        mk(
            pull=lambda f: ic_or_evens(value_parity_set(pointwise_max(f, IDENTITY))),
            push=lambda a: ZERO,
            name="shifted-parity/zero",
        ),
    ]


def scripted_three_sets_candidates() -> list[MorphismCandidate]:
    mk = MorphismCandidate
    return [
        mk(pull=lambda x: x, push=lambda y: y, name="identity"),
        mk(pull=lambda x: x, push=lambda y: EVENS, name="const-evens"),
        mk(pull=lambda x: x, push=lambda y: y.complement(), name="complement-push"),
        mk(pull=lambda x: x, push=lambda y: y & EVENS, name="meet-evens"),
        mk(pull=lambda x: x, push=lambda y: y | EVENS, name="join-evens"),
        mk(pull=lambda x: x.complement(), push=lambda y: y, name="complement-pull"),
        mk(pull=lambda x: x, push=lambda y: FULL, name="const-full"),
        mk(pull=lambda x: x.complement(), push=lambda y: EVENS, name="const/complement"),
        mk(pull=lambda x: x, push=lambda y: slice_by_index(y, 2, 0), name="halving"),
        mk(
            pull=lambda x: x.complement(),
            push=lambda y: UPSet.from_residues(4, {0}),
            name="const-mod4/complement",
        ),
    ]


def sample_column_observations(rng: random.Random, n: int, branch, levels):
    """Observations genuinely drawn from the branch's column image."""
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
        if tuple_code([t[:n] for t in nodes]) >= level:
            continue
        out.append(ColumnTuple(n, tuple(nodes)))
    return out
