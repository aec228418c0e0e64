"""Acceptance suite: one test per exit criterion, each printing a
pass line with its measured evidence.  Run with ``pytest -v -s``.
"""

import itertools
import random
import time

import numpy as np
import pytest

from tukeykit.adversary import (
    build_adversary,
    identity_machine,
    image_nonsplit_certificate,
    splitter_from_free_class,
)
from tukeykit.apfuncs import APFunc
from tukeykit.branchmap import (
    branch_of,
    bound_from_trace,
    common_witnesses,
    divergence_level,
    exact_intersection,
    image_contains,
    tuple_index,
    witness_stream,
)
from tukeykit.catalog import (
    builtin_morphisms,
    default_probe_check,
    vd_diagram,
)
from tukeykit.gadgets import (
    refute_filterclass_to_unbounded,
    refute_pseudo_intersection_to_tower,
)
from tukeykit.splitorder import (
    antichain,
    bucket_count,
    bucket_count_by_filling,
    min_columns_hit,
    x_order,
)
from tukeykit.triples import FiniteTriple, finite_norm, is_dominating
from tukeykit.upsets import UPSet

from helpers import (
    sample_column_observations,
    scripted_max_pair_candidates,
    scripted_three_sets_candidates,
    zero_headed_apfunc,
)
from reference_branchmap import tuple_in_column_image

# the edge set of the definable-morphism figure over the eight shared
# nodes, plus the tower edge stated in the surrounding text
FIGURE_EDGES = {
    ("i", "r"),
    ("u", "r"),
    ("d", "s"),
    ("d", "b"),
    ("r", "b"),
    ("b", "p"),
    ("a", "p"),
}


def test_criterion_01_bucket_anchor():
    start = time.perf_counter()
    assert bucket_count(14, 6, 4) == 8
    assert bucket_count_by_filling(14, 6, 4) == 8
    checked = 0
    for n in range(0, 61):
        for n2 in range(1, max(n, 1) + 1):
            for m2 in range(1, n2 + 1):
                assert bucket_count(n, n2, m2) == bucket_count_by_filling(n, n2, m2)
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(
        f"criterion 1: PASS anchor (14,6,4)=8; formula = filling on "
        f"{checked} cases in {elapsed:.3f}s"
    )


def test_criterion_02_min_columns_equivalence():
    start = time.perf_counter()
    checked = 0
    for n in range(1, 15):
        for n2 in range(1, 7):
            for m in range(1, n + 1):
                hit = min_columns_hit(n, n2, m)
                for m2 in range(1, n2 + 1):
                    assert (hit >= m2) == (bucket_count(n, n2, m2) < m)
                    checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(
        f"criterion 2: PASS column forcing = bucket bound on {checked} "
        f"(n,n',m,m') cases in {elapsed:.2f}s"
    )


def test_criterion_03_antichain():
    start = time.perf_counter()
    report = antichain(8)
    assert len(report.pairs) == 15
    assert report.all_incomparable
    for (m, m2), (fwd, back) in zip(report.pairs, report.verdicts):
        assert fwd.reason == "m_increase"
        assert back.reason == "bound_fails"
        a, b = m2 - m + 1, m - 1
        assert 2 ** (m2 - m) * (m - 1) >= a * b >= a + b == m2
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(
        f"criterion 3: PASS 15 power pairs incomparable both ways, "
        f"proof arithmetic re-verified, {elapsed:.3f}s"
    )


def test_criterion_04_index_set_embedding():
    start = time.perf_counter()
    universe = [3, 4, 5, 6, 7, 8]
    subsets = [
        frozenset(c)
        for size in range(len(universe) + 1)
        for c in itertools.combinations(universe, size)
    ]
    assert len(subsets) == 64
    pairs = 0
    for x in subsets:
        for y in subsets:
            assert x_order(x, y).morphism == (x >= y)
            pairs += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(
        f"criterion 4: PASS containment = morphism on {pairs} index-set "
        f"pairs (covers all X,Y over {{3,4,5}}), {elapsed:.3f}s"
    )


def test_criterion_05_distinct_prefixes_empty():
    total = 0
    for n in (1, 2, 3):
        prefixes = list(itertools.product((0, 1, 2), repeat=n))
        for chosen in itertools.combinations(prefixes, n + 1):
            fs = [APFunc(p, (0,), 0) for p in chosen]
            result = exact_intersection(n, [branch_of(f, n) for f in fs])
            assert result.tuples == ()
            assert result.separation_level <= n
            total += 1
    print(
        f"criterion 5: PASS all {total} tuples of distinct level-n "
        f"prefixes give empty intersections, n in 1..3"
    )


def test_criterion_06_witnesses_and_exact_intersections():
    rng = random.Random(20260810)
    # 25 verified witnesses for samples at every column up to 4
    witness_samples = 0
    for n in range(1, 5):
        for _ in range(5):
            k = rng.randrange(1, n + 1)
            fs = [zero_headed_apfunc(rng, n) for _ in range(k)]
            branches = [branch_of(f, n) for f in fs]
            ws = witness_stream(n, branches, 25)
            assert len(ws) == 25
            for t in ws:
                for b in branches:
                    assert tuple_in_column_image(n, b, t)
            indices = [tuple_index(t) for t in ws]
            assert indices == sorted(set(indices))
            witness_samples += 1
    # exact intersections against an index-walk oracle: enumerate the
    # column by tuple index and keep what every branch's image contains
    from tukeykit.branchmap import level_count, tuple_at

    matched = 0
    while matched < 100:
        n = rng.randrange(1, 4)
        fs: list[APFunc] = []
        while len(fs) < n + 1:
            f = zero_headed_apfunc(rng, n)
            if f not in fs:
                fs.append(f)
        branches = [branch_of(f, n) for f in fs]
        sep = max(
            divergence_level(a, b) for a, b in itertools.combinations(branches, 2)
        )
        if n * (sep - n) > 14:
            continue
        result = exact_intersection(n, branches)
        assert result.separation_level == sep  # finiteness certificate
        below = sum(level_count(n, level) for level in range(n + 1, sep))
        brute = [
            m
            for m in range(below)
            if all(
                tuple_in_column_image(n, b, tuple_at(n, m)) for b in branches
            )
        ]
        assert [tuple_index(t) for t in result.tuples] == brute
        matched += 1
    print(
        f"criterion 6: PASS 25 verified witnesses x {witness_samples} "
        f"samples (n <= 4); {matched} exact intersections match the "
        f"brute-force level filter and carry finiteness certificates"
    )


def test_criterion_07_centered_image():
    rng = random.Random(77)
    for trial in range(50):
        size = rng.randrange(1, 5)
        head = 4
        fs = [zero_headed_apfunc(rng, head) for _ in range(size)]
        found = common_witnesses(fs, 10)
        assert len(found.elements) >= 10
        for x in found.elements:
            for f in fs:
                assert image_contains(f, x)
    print(
        "criterion 7: PASS 50 random families of size <= 4 each received "
        "10 verified common image elements"
    )


def test_criterion_08_bound_soundness():
    rng = random.Random(4242)
    sound_trials = 0
    while sound_trials < 1000:
        n = rng.randrange(1, 3)
        f = zero_headed_apfunc(rng, n)
        branch = branch_of(f, n)
        obs = sample_column_observations(
            rng, n, branch, [n + 1 + rng.randrange(3) for _ in range(rng.randrange(1, 4))]
        )
        if not obs:
            continue
        cert = bound_from_trace(n, obs)
        assert not cert.empty
        entries = branch.restrict(len(cert.bound))
        assert all(entries[k] <= cert.bound[k] for k in range(len(cert.bound)))
        sound_trials += 1
    # deliberately inconsistent traces
    from tukeykit.branchmap import ColumnTuple

    empty_trials = 0
    while empty_trials < 100:
        x, y = rng.randrange(3), rng.randrange(3)
        if x == y:
            continue
        tails = tuple(rng.randrange(2) for _ in range(4))
        obs = [
            ColumnTuple(1, ((x,) + tails[:2],)),
            ColumnTuple(1, ((y,) + tails[2:],)),
        ]
        cert = bound_from_trace(1, obs)
        assert cert.empty and cert.bound == ()
        empty_trials += 1
    print(
        f"criterion 8: PASS bounds dominate the generating branch on "
        f"{sound_trials} sound traces; {empty_trials} inconsistent traces "
        f"yielded emptiness certificates"
    )


def test_criterion_09_gadget_suites():
    max_pair = scripted_max_pair_candidates()
    three_sets = scripted_three_sets_candidates()
    assert len(max_pair) == 10 and len(three_sets) == 10
    for cand in max_pair:
        violation = refute_filterclass_to_unbounded(cand)
        assert violation.verify(), cand.name
    for cand in three_sets:
        violation = refute_pseudo_intersection_to_tower(cand)
        assert violation.verify(), cand.name
    print(
        "criterion 9: PASS both gadgets refuted all 10 scripted candidates "
        "each; every certificate re-checked under the exact decision "
        "procedures"
    )


def test_criterion_10_adversary_identity():
    machine = identity_machine()
    cert = build_adversary(machine, 5, 10**6)
    assert cert.depth == 5
    assert cert.queries_used <= 10**6
    rng = random.Random(31)
    free = {
        0: [p for k in range(cert.depth) if k % 2 != 0 for p in cert.predictor.interval(k)],
        1: [p for k in range(cert.depth) if k % 2 != 1 for p in cert.predictor.interval(k)],
    }
    split_count = 0
    for trial in range(20):
        r = rng.randrange(2)
        anchor = rng.sample(free[r], 2)
        modulus = rng.randrange(2, 6)
        residues = {rng.randrange(modulus)}
        target = UPSet.from_residues(modulus, residues) | UPSet.from_finite(anchor)
        trace = splitter_from_free_class(cert, 2, r, target)
        assert trace.ones >= 1 and trace.zeros >= 1
        pinning = image_nonsplit_certificate(cert, machine, trace.element, 2, r)
        expected_pivots = [p for k, p in enumerate(cert.pivots) if k % 2 == r]
        assert list(pinning.pinned_pivots) == expected_pivots
        split_count += 1
    assert split_count == 20
    print(
        f"criterion 10: PASS depth-5 certificate in {cert.queries_used} "
        f"queries; 20 sampled targets split through free intervals with "
        f"images pinned to 1 at every same-class pivot"
    )


def _all_relations(rows: int, cols: int) -> np.ndarray:
    count = 2 ** (rows * cols)
    masks = np.arange(count, dtype=np.int64)
    bits = ((masks[:, None] >> np.arange(rows * cols)) & 1).astype(bool)
    return bits.reshape(count, rows, cols)


def _family_selectors(size: int) -> np.ndarray:
    count = 2**size
    masks = np.arange(count, dtype=np.int64)
    return ((masks[:, None] >> np.arange(size)) & 1).astype(bool)


def test_criterion_11_framework_laws():
    from tukeykit.triples import dual

    # dual is an involution on every triple with carriers up to 3
    involutions = 0
    for a in range(1, 4):
        for b in range(1, 4):
            minus = tuple(f"x{i}" for i in range(a))
            plus = tuple(f"y{j}" for j in range(b))
            for mask in range(2 ** (a * b)):
                rel = tuple(
                    tuple(bool((mask >> (i * b + j)) & 1) for j in range(b))
                    for i in range(a)
                )
                t = FiniteTriple(minus, plus, rel)
                assert dual(dual(t)) == t
                involutions += 1

    # pushing a dominating family through any relation-respecting map
    # pair keeps it dominating: exhaustive over all carriers <= 3
    start = time.perf_counter()
    combos = 0
    for a_minus in range(1, 4):
        for a_plus in range(1, 4):
            for b_minus in range(1, 4):
                for b_plus in range(1, 4):
                    rels_a = _all_relations(a_minus, a_plus)
                    rels_b = _all_relations(b_minus, b_plus)
                    pulls = list(itertools.product(range(a_minus), repeat=b_minus))
                    pushes = list(itertools.product(range(b_plus), repeat=a_plus))
                    fams = _family_selectors(a_plus)
                    weights = 1 << np.arange(b_minus * a_plus, dtype=np.int64)
                    fam_weights = 1 << np.arange(len(fams), dtype=np.int64)

                    # dominating-family masks on the source side
                    covered = np.einsum(
                        "rxy,fy->rxf", rels_a, fams.astype(bool), dtype=bool
                    )
                    dom_a = covered.all(axis=1) | (a_minus == 0)
                    mask_a = dom_a @ fam_weights

                    # per push map: which families dominate the target
                    # after pushing
                    mask_b = np.empty((len(pushes), len(rels_b)), dtype=np.int64)
                    for pi, push in enumerate(pushes):
                        pushed = np.zeros((len(fams), b_plus), dtype=bool)
                        for y in range(a_plus):
                            pushed[fams[:, y], push[y]] = True
                        covered_b = np.einsum(
                            "rxz,fz->rxf", rels_b, pushed, dtype=bool
                        )
                        mask_b[pi] = covered_b.all(axis=1) @ fam_weights
                    law_bad = (mask_a[:, None, None] & ~mask_b.T[None, :, :]) != 0

                    packed_b = np.empty((len(pushes), len(rels_b)), dtype=np.int64)
                    for pi, push in enumerate(pushes):
                        projected = rels_b[:, :, list(push)]
                        packed_b[pi] = projected.reshape(len(rels_b), -1) @ weights
                    for pull in pulls:
                        pulled = rels_a[:, list(pull), :]
                        packed_a = pulled.reshape(len(rels_a), -1) @ weights
                        for pi in range(len(pushes)):
                            consistent = (
                                packed_a[:, None] & ~packed_b[pi][None, :]
                            ) == 0
                            bad = consistent & law_bad[:, :, pi]
                            assert not bad.any()
                            combos += consistent.sum()
    elapsed = time.perf_counter() - start

    # norms against the independent powerset oracle
    rng = random.Random(17)
    for _ in range(200):
        a = rng.randrange(1, 6)
        b = rng.randrange(1, 6)
        rel = tuple(tuple(rng.random() < 0.4 for _ in range(b)) for _ in range(a))
        t = FiniteTriple(
            tuple(f"x{i}" for i in range(a)),
            tuple(f"y{j}" for j in range(b)),
            rel,
        )
        best = None
        for mask in range(2**b):
            family = [t.plus[j] for j in range(b) if (mask >> j) & 1]
            if is_dominating(family, t):
                if best is None or len(family) < best:
                    best = len(family)
        assert finite_norm(t) == best
    print(
        f"criterion 11: PASS dual involution on {involutions} triples; "
        f"dominating-image law over {combos} consistent map/triple combos "
        f"({elapsed:.1f}s); 200 norms match the powerset oracle"
    )


def test_criterion_12_diagram_fidelity():
    diagram = vd_diagram("borel")
    positive = {
        (e.source, e.target) for e in diagram.edges if e.verdict == "BT-morphism"
    }
    assert positive == FIGURE_EDGES | {("t", "p")}
    entries = {(b.source, b.target): b for b in builtin_morphisms()}
    for edge in sorted(positive):
        report = default_probe_check(entries[edge])
        assert report.consistent, report.summary()
        assert report.nonvacuous_checks > 0
    print(
        f"criterion 12: PASS definable diagram matches the figure plus the "
        f"tower edge; all {len(positive)} positive edges pass their probe "
        f"suites with engaged checks"
    )
