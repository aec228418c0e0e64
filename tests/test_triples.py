import itertools
import random

import pytest

from tukeykit.triples import (
    EnumerationBudget,
    FiniteTriple,
    MachineBudgetError,
    MorphismCandidate,
    check_morphism,
    dual,
    finite_norm,
    is_dominating,
)
from tukeykit.upsets import UPSet

from helpers import finite_triple, identity_candidate


def all_finite_triples(max_minus: int, max_plus: int):
    for a in range(1, max_minus + 1):
        for b in range(1, max_plus + 1):
            minus = tuple(f"x{i}" for i in range(a))
            plus = tuple(f"y{j}" for j in range(b))
            for mask in range(2 ** (a * b)):
                rel = tuple(
                    tuple(bool((mask >> (i * b + j)) & 1) for j in range(b))
                    for i in range(a)
                )
                yield FiniteTriple(minus, plus, rel)


class TestDual:
    def test_involution_exhaustive_small(self):
        for t in all_finite_triples(3, 3):
            assert dual(dual(t)) == t

    def test_dual_relation(self):
        t = finite_triple(("1", "2", "3"), ("a", "b"), {("1", "a")})
        d = dual(t)
        assert d.minus == ("a", "b") and d.plus == ("1", "2", "3")
        for x in t.minus:
            for y in t.plus:
                assert d.holds(y, x) == (not t.holds(x, y))

    def test_complete_becomes_empty(self):
        t = FiniteTriple(("x",), ("y",), ((True,),))
        d = dual(t)
        assert not d.holds("y", "x")


class TestDominating:
    def test_complete_relation(self):
        t = FiniteTriple(("x", "y"), ("a",), ((True,), (True,)))
        assert is_dominating(["a"], t)

    def test_equality_relation(self):
        labels = ("1", "2", "3")
        t = finite_triple(labels, labels, {(v, v) for v in labels})
        assert not is_dominating(["1", "2"], t)
        assert is_dominating(["1", "2", "3"], t)


class TestFiniteNorm:
    def test_complete(self):
        t = FiniteTriple(("x", "y"), ("a", "b"), ((True, True), (True, True)))
        assert finite_norm(t) == 1

    def test_identity_needs_everything(self):
        for k in (1, 2, 3, 4):
            labels = tuple(str(i) for i in range(k))
            t = finite_triple(labels, labels, {(v, v) for v in labels})
            assert finite_norm(t) == k

    def test_no_family_is_none(self):
        t = FiniteTriple(("x",), ("a",), ((False,),))
        assert finite_norm(t) is None

    def test_empty_minus_norm_zero(self):
        t = FiniteTriple((), ("a",), ())
        assert finite_norm(t) == 0

    def test_matches_subset_enumeration_oracle(self):
        rng = random.Random(17)
        for _ in range(200):
            a = rng.randrange(1, 6)
            b = rng.randrange(1, 6)
            rel = tuple(
                tuple(rng.random() < 0.4 for _ in range(b)) for _ in range(a)
            )
            t = FiniteTriple(
                tuple(f"x{i}" for i in range(a)),
                tuple(f"y{j}" for j in range(b)),
                rel,
            )
            # oracle: scan the whole powerset, no size ordering
            best = None
            for mask in range(2**b):
                family = [t.plus[j] for j in range(b) if (mask >> j) & 1]
                if is_dominating(family, t):
                    if best is None or len(family) < best:
                        best = len(family)
            assert finite_norm(t) == best

    def test_bound_guard(self):
        t = FiniteTriple(
            ("x",), tuple(f"y{j}" for j in range(21)), ((True,) * 21,)
        )
        with pytest.raises(EnumerationBudget, match="search bound is 20"):
            finite_norm(t)

    def test_property_constrained(self):
        labels = ("1", "2", "3")
        t = finite_triple(labels, labels, {(v, v) for v in labels})
        assert finite_norm(t, prop=lambda fam: len(fam) != 3) is None


class TestCheckMorphism:
    def test_identity_on_same_triple(self):
        t = finite_triple(("1", "2"), ("a", "b"), {("1", "a"), ("2", "b")})
        report = check_morphism(identity_candidate(), t, t)
        assert report.consistent

    def test_detects_violation(self):
        src = FiniteTriple(("x",), ("y",), ((True,),))
        tgt = FiniteTriple(("x",), ("y",), ((False,),))
        report = check_morphism(identity_candidate(), src, tgt)
        assert not report.consistent
        assert report.violations[0].condition == "relation"

    def test_summary(self):
        t = finite_triple(("1", "2"), ("a", "b"), {("1", "a"), ("2", "b")})
        report = check_morphism(identity_candidate(), t, t)
        assert report.summary() == (
            "identity: consistent on probes "
            "(2/4 relation checks engaged, 0 family checks)"
        )
        src = FiniteTriple(("x",), ("y",), ((True,),))
        tgt = FiniteTriple(("x",), ("y",), ((False,),))
        report = check_morphism(identity_candidate(), src, tgt)
        assert report.summary() == (
            "identity: 1 violation(s), first: " + report.violations[0].detail
        )
        assert report.violations[0].detail.startswith("pulled element relates")

    def test_a_fault_in_an_in_process_map_propagates(self):
        # only a map that gives no answer is a budget verdict
        t = FiniteTriple(("x",), ("y",), ((True,),))
        cand = MorphismCandidate(pull=lambda x: x.no_such_attribute, push=lambda y: y)
        with pytest.raises(AttributeError):
            check_morphism(cand, t, t)
        with pytest.raises(MachineBudgetError):
            check_morphism(MorphismCandidate(pull=lambda x: None, push=lambda y: y), t, t)

    def test_no_answer_on_a_large_set_gives_a_short_message(self):
        # an lcm-sized request stays whole on the error, not in its text
        request = UPSet.from_residues(499, {0}) | UPSet.from_residues(491, {0})
        cand = MorphismCandidate(pull=lambda x: None, push=lambda y: y)
        with pytest.raises(MachineBudgetError, match=r"^pull map gave no answer on UPSet\(") as info:
            cand.apply_pull(request)
        assert info.value.value is request
        assert len(str(info.value)) < 1024

    def test_image_of_dominating_is_dominating_small_exhaustive(self):
        # whenever the relation condition holds everywhere, pushing a
        # dominating family forward keeps it dominating
        triples = list(all_finite_triples(2, 2))
        for src in triples:
            for tgt in triples:
                pulls = list(itertools.product(src.minus, repeat=len(tgt.minus)))
                pushes = list(itertools.product(tgt.plus, repeat=len(src.plus)))
                for pull_vals in pulls:
                    pull = dict(zip(tgt.minus, pull_vals))
                    for push_vals in pushes:
                        push = dict(zip(src.plus, push_vals))
                        cand = MorphismCandidate(
                            pull=pull.__getitem__, push=push.__getitem__
                        )
                        if not check_morphism(cand, src, tgt).consistent:
                            continue
                        for size in range(len(src.plus) + 1):
                            for fam in itertools.combinations(src.plus, size):
                                if is_dominating(fam, src):
                                    image = [push[y] for y in fam]
                                    assert is_dominating(image, tgt)


class TestComposeAndDual:
    def test_dual_condition_exhaustive_small(self):
        # every morphism between small triples flips to a morphism
        # between the duals with the maps swapped
        for src in all_finite_triples(2, 2):
            for tgt in all_finite_triples(2, 2):
                pulls = itertools.product(src.minus, repeat=len(tgt.minus))
                for pull_vals in pulls:
                    pull = dict(zip(tgt.minus, pull_vals))
                    for push_vals in itertools.product(
                        tgt.plus, repeat=len(src.plus)
                    ):
                        push = dict(zip(src.plus, push_vals))
                        cand = MorphismCandidate(
                            pull=pull.__getitem__, push=push.__getitem__
                        )
                        if not check_morphism(cand, src, tgt).consistent:
                            continue
                        swapped = MorphismCandidate(pull=cand.push, push=cand.pull)
                        report = check_morphism(swapped, dual(tgt), dual(src))
                        assert report.consistent
