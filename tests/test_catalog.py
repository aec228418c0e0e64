import functools
import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tukeykit.apfuncs import APFunc, IDENTITY, ZERO, constant, eventually_dominates
from tukeykit.catalog import (
    AD_INFINITE,
    APFUNC,
    BuiltinMorphism,
    CLASSICAL_EDGES,
    CENTERED,
    COLORING,
    DUALS,
    UPSET,
    GluedImage,
    IterateColoring,
    LINEARLY_ORDERED,
    builtin_morphisms,
    catalog,
    compose,
    default_probe_check,
    dual_row,
    iterate_coloring,
    nm_partition_candidate,
    n_unsplitting_triple,
    nm_splitting_triple,
    plus_one,
    splits_general,
    vd_diagram,
)
from tukeykit.errors import ContractBreach, EnumerationBudget
from tukeykit.triples import MorphismCandidate, check_morphism
from tukeykit.upsets import EVENS, FULL, ODDS, UPSet, dyadic_family, splits

import reference_apfuncs as ref
import reference_upsets
from helpers import coloring_bit, coloring_boundaries, level_set, with_probes


def builtin_row(source: str, target: str) -> BuiltinMorphism:
    (row,) = (e for e in builtin_morphisms() if (e.source, e.target) == (source, target))
    return row


def builtin_candidate(source: str, target: str) -> MorphismCandidate:
    return builtin_row(source, target).candidate


class TestCatalogRelations:
    def setup_method(self):
        self.cat = catalog()

    def test_expected_entries_present(self):
        for name in ("p", "s", "r", "b", "d", "a", "i", "u", "t"):
            assert name in self.cat

    def test_splitting_relation(self):
        s = self.cat["s"]
        assert not s.holds(EVENS, EVENS)
        assert s.holds(FULL, EVENS)

    def test_pseudo_intersection_relation(self):
        p = self.cat["p"]
        assert p.holds(EVENS, UPSet.from_residues(4, {0}))
        assert not p.holds(UPSet.from_residues(4, {0}), EVENS)

    def test_unbounded_and_dominating(self):
        b, d = self.cat["b"], self.cat["d"]
        two_k = APFunc((), (0,), 2)
        assert d.holds(IDENTITY, two_k)
        assert not b.holds(two_k, IDENTITY)
        assert b.holds(IDENTITY, two_k)

    def test_n_unsplitting_constant(self):
        r3 = self.cat["r_3"]
        assert r3.holds(constant(2), EVENS)
        mod3 = APFunc((), (0, 1, 2), 0)
        assert not r3.holds(mod3, FULL)

    def test_partial_splitting_relation(self):
        s42 = self.cat["s_4,2"]
        targets = (EVENS, ODDS, UPSet.from_residues(4, {0}), FULL)
        # the parity coloring splits only the full set among these
        assert not s42.holds(targets, EVENS)
        block = UPSet((), (1, 1, 0, 0))
        # the length-2 block coloring splits evens, odds, and the full set
        assert s42.holds(targets, block)

    def test_tower_property_is_linear_order(self):
        t = self.cat["t"]
        chain = [UPSet.from_residues(4, {0}), EVENS]
        assert t.property(chain)
        assert not t.property([EVENS, ODDS])

    def test_validators_reject_bad_carriers(self):
        with pytest.raises(ValueError):
            self.cat["p"].holds(UPSet.from_finite({1}), EVENS)
        with pytest.raises(ValueError):
            self.cat["r_3"].holds(IDENTITY, EVENS)

    def test_a_value_outside_a_kind_is_a_contract_breach(self):
        # a map that leaves its declared carrier breaks the contract,
        # which is still a ValueError and so still exits 2
        s = self.cat["s"]
        pull_to_apfunc = MorphismCandidate(lambda a: IDENTITY, lambda c: c, "apfunc pull")
        with pytest.raises(ContractBreach, match="is not a valid minus value for s$"):
            check_morphism(pull_to_apfunc, s, s)
        with pytest.raises(ContractBreach, match="is not a valid plus value for s$"):
            s.holds(EVENS, IDENTITY)

    def test_n_unsplitting_is_almost_constancy(self):
        # a k-coloring is almost constant on a set when no bit coloring
        # splits the set; the 2-color cases are in test_apfuncs, and
        # only infinite sets are r_2's plus values
        assert not n_unsplitting_triple(2).plus.validate(UPSet.from_finite({1}))
        # both bit colorings of 0, 1, 2, 0, 1, 2, ... vanish on the
        # multiples of 3 and split the numbers that are 1 or 2 mod 3
        r3, mod3 = self.cat["r_3"], APFunc((), (0, 1, 2), 0)
        assert r3.holds(mod3, UPSet.from_residues(3, {0}))
        assert not r3.holds(mod3, UPSet.from_residues(3, {1, 2}))

    def test_independence_property_refuses_every_family(self):
        prop = catalog()["i"].property
        assert prop.name == "independence_derived"
        assert prop.note.startswith("declared, not checked")
        base = (EVENS, UPSet.from_residues(3, {0, 1}))
        for family in ([], [EVENS], [base[0] & base[1]], list(base), dyadic_family(4)):
            with pytest.raises(ValueError, match="independence_derived"):
                prop(family)

    def test_independence_refusal_reaches_check_morphism(self):
        i, r = self.cat["i"], self.cat["r"]
        for families in ([[EVENS, ODDS]], [[EVENS]], [dyadic_family(4)]):
            with pytest.raises(ValueError, match="independence_derived"):
                check_morphism(builtin_candidate("i", "r"), i, r, families)

    @pytest.mark.parametrize(
        "edge, family, prop",
        [(("u", "r"), [EVENS, ODDS], "centered"),
         (("a", "p"), [EVENS, UPSet.from_residues(4, {0})], "ad_infinite")],
        ids=["u->r", "a->p"],
    )
    def test_check_morphism_refuses_a_family_the_source_property_rejects(self, edge, family, prop):
        # a family outside the source's property says nothing about the
        # candidate, so it is refused rather than counted and skipped
        row = builtin_row(*edge)
        source, target = self.cat[row.source], self.cat[row.target]
        with pytest.raises(ValueError, match=f"family 1 fails {prop}, the property of {edge[0]}"):
            check_morphism(row.candidate, source, target, [family[:1], family])

    @pytest.mark.parametrize("name", ["p", "t"])
    def test_almost_inclusion_plus_side_takes_infinite_sets_and_glued_images(self, name):
        t = self.cat[name]
        with pytest.raises(ValueError, match="not a valid plus value"):
            t.holds(EVENS, UPSet.from_finite({1, 2}))
        assert t.holds(EVENS, GluedImage(IDENTITY))
        assert not t.holds(UPSet.from_residues(4, {0}), EVENS)

    @pytest.mark.parametrize(
        "family",
        [[GluedImage(IDENTITY), GluedImage(ZERO)], [EVENS, GluedImage(ZERO)]],
        ids=["glued", "mixed"],
    )
    def test_tower_property_refuses_glued_images(self, family):
        # the plus kind admits glued images, but their almost inclusion
        # is not decided
        assert all(self.cat["t"].plus.validate(y) for y in family)
        with pytest.raises(TypeError, match="glued images"):
            self.cat["t"].property(family)


class TestDuality:
    def test_dual_of_dominating_is_unbounded(self):
        from tukeykit.triples import dual

        d_dual = dual(catalog()["d"])
        b = catalog()["b"]
        for f in APFUNC.probes:
            for g in APFUNC.probes:
                assert d_dual.holds(f, g) == b.holds(f, g)

    def test_dual_rejects_property_triples(self):
        from tukeykit.triples import dual

        with pytest.raises(ValueError):
            dual(catalog()["p"])

    def test_independence_triple_keeps_its_property(self):
        from tukeykit.triples import dual

        with pytest.raises(ValueError, match="not simple"):
            dual(catalog()["i"])


# the relations of r, b, i and u as written out before r and b were built
# as the duals of s and d; the reference the built relations must match
HAND_WRITTEN = {
    "r": lambda c, b: not splits_general(c, b),
    "b": lambda f, g: not eventually_dominates(f, g),
    "i": lambda x, y: not splits_general(x, y),
    "u": lambda x, y: not splits_general(x, y),
}

# the probes of s, r, d and b, with the values only some kinds admit
DUALITY_POOL = tuple(
    dict.fromkeys(
        [v for name in ("s", "r", "d", "b")
         for v in catalog()[name].minus_probes + catalog()[name].plus_probes]
        + [IterateColoring(APFunc((), (0,), 2)), IterateColoring(APFunc((3, 1), (5, 9), 5)),
           GluedImage(IDENTITY), GluedImage(ZERO)]
    )
)


class TestDualityAsData:
    @pytest.mark.parametrize("name", sorted(HAND_WRITTEN))
    def test_built_relation_agrees_with_the_hand_written_one(self, name):
        t, reference = catalog()[name], HAND_WRITTEN[name]
        xs = [v for v in DUALITY_POOL if t.minus.validate(v)]
        ys = [v for v in DUALITY_POOL if t.plus.validate(v)]
        if name != "b":
            assert any(isinstance(x, IterateColoring) for x in xs)
        verdicts = {(x, y): t.holds(x, y) for x in xs for y in ys}
        assert verdicts == {(x, y): reference(x, y) for x in xs for y in ys}
        assert set(verdicts.values()) == {True, False}

    def test_duals_are_read_both_ways_and_built_from_their_partners(self):
        cat = catalog()
        assert DUALS == {"s": "r", "r": "s", "d": "b", "b": "d"}
        for name in ("r", "b"):
            t, partner = cat[name], cat[DUALS[name]]
            assert (t.minus, t.plus, t.property) == (partner.plus, partner.minus, None)

    @pytest.mark.parametrize("name", ["i", "u"])
    def test_narrower_unsplitting_triples_hold_r_relation(self, name):
        assert catalog()[name].relation is catalog()["r"].relation
        assert catalog()[name].relation_name == catalog()["r"].relation_name

    @pytest.mark.parametrize("edge", [("d", "s"), ("d", "b"), ("r", "b")], ids="->".join)
    def test_dual_row_twice_gives_the_row_maps(self, edge):
        row = builtin_row(*edge)
        twice = dual_row(dual_row(row))
        assert (twice.source, twice.target, twice.families) == (row.source, row.target, ())
        assert twice.candidate.pull is row.candidate.pull
        assert twice.candidate.push is row.candidate.push

    def test_r_to_b_is_the_dual_row_of_d_to_s(self):
        r_b, d_s = builtin_candidate("r", "b"), builtin_candidate("d", "s")
        assert r_b.pull is d_s.push and r_b.push is d_s.pull
        assert r_b.name == "r->b dual of d->s"

    def test_dual_of_d_to_b_passes_the_d_to_b_probe_check(self):
        row = dual_row(builtin_row("d", "b"))
        assert (row.source, row.target) == ("d", "b")
        # the maps swap: the identity pulls and +1 pushes
        for f in APFUNC.probes:
            assert row.candidate.pull(f) is f and row.candidate.push(f) == plus_one(f)
        assert default_probe_check(row).summary() == (
            "d->b dual of d->b: consistent on probes "
            "(28/49 relation checks engaged, 0 family checks)"
        )

    def test_dual_row_names_a_triple_without_a_dual(self):
        with pytest.raises(ContractBreach, match="^p has no dual in the catalog$"):
            dual_row(builtin_row("b", "p"))


# the relations of the generalised triples as written out before they
# were lifted from r and s; r_k's is the level-set rule
def almost_constant_on(c: APFunc, b: UPSet) -> bool:
    return any(reference_upsets.almost_subset(b, level_set(c, v)) for v in set(c.base))


def splits_at_least(m: int):
    return lambda xs, c: sum(1 for a in xs if splits_general(c, a)) >= m


HAND_WRITTEN_LIFTS = {
    "r_3": almost_constant_on,
    "r_4": almost_constant_on,
    "r_sigma": lambda cs, b: all(not splits_general(c, b) for c in cs),
    "s_2": splits_at_least(2),
    "s_3": splits_at_least(3),
    "s_4,2": splits_at_least(2),
    "s_sigma": lambda xs, b: all(splits(b, a) for a in xs),
    "s_finite": lambda xs, c: all(splits_general(c, a) for a in xs),
}

bit_tuples = st.lists(st.integers(0, 1), max_size=5).map(tuple)
periods = st.lists(st.integers(0, 1), min_size=1, max_size=6).map(tuple)
infinite_sets = st.builds(UPSet, bit_tuples, periods.map(lambda w: (1, *w)))
# slope above 1, so a coloring that is no UPSet
iterate_colorings = st.builds(
    lambda prefix, base, extra: IterateColoring(APFunc(prefix, base, len(base) + extra)),
    st.lists(st.integers(0, 6), max_size=2).map(tuple),
    st.lists(st.integers(0, 6), min_size=1, max_size=2).map(tuple),
    st.integers(1, 3),
)
# about one coloring in six is an IterateColoring
colorings = st.integers(0, 5).flatmap(
    lambda pick: iterate_colorings if pick == 5 else st.builds(UPSet, bit_tuples, periods)
)


def k_colorings(k: int):
    values = st.integers(0, k - 1)
    return st.builds(
        lambda prefix, base: APFunc(prefix, base, 0),
        st.lists(values, max_size=3).map(tuple),
        st.lists(values, min_size=1, max_size=4).map(tuple),
    )


def tuples_of(entries, arity: int | None = None):
    lo, hi = (1, 4) if arity is None else (arity, arity)
    return st.lists(entries, min_size=lo, max_size=hi).map(tuple)


LIFT_VALUES = {
    "r_3": (k_colorings(3), infinite_sets),
    "r_4": (k_colorings(4), infinite_sets),
    "r_sigma": (tuples_of(colorings), infinite_sets),
    "s_2": (tuples_of(infinite_sets, 2), colorings),
    "s_3": (tuples_of(infinite_sets, 3), colorings),
    "s_4,2": (tuples_of(infinite_sets, 4), colorings),
    "s_sigma": (tuples_of(infinite_sets), infinite_sets),
    "s_finite": (tuples_of(infinite_sets), colorings),
}


class TestLifts:
    @pytest.mark.parametrize("name", sorted(HAND_WRITTEN_LIFTS))
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_lifted_relation_agrees_with_the_hand_written_one(self, name, data):
        t = catalog()[name]
        minus, plus = LIFT_VALUES[name]
        x, y = data.draw(minus), data.draw(plus)
        assert t.minus.validate(x) and t.plus.validate(y)
        assert t.holds(x, y) == HAND_WRITTEN_LIFTS[name](x, y)

    @pytest.mark.parametrize("name", sorted(HAND_WRITTEN_LIFTS))
    def test_lifted_relation_agrees_on_the_probes(self, name):
        t, reference = catalog()[name], HAND_WRITTEN_LIFTS[name]
        extra = (IterateColoring(APFunc((), (0,), 2)),) if t.plus is COLORING else ()
        ys = t.plus_probes + extra
        verdicts = {(x, y): t.holds(x, y) for x in t.minus_probes for y in ys}
        assert verdicts == {(x, y): reference(x, y) for x in t.minus_probes for y in ys}
        assert set(verdicts.values()) == {True, False}

    def test_tower_triple_is_p_with_a_linear_order(self):
        t, p = catalog()["t"], catalog()["p"]
        assert (t.minus, t.plus, t.relation, t.relation_name) == (
            p.minus, p.plus, p.relation, p.relation_name
        )
        assert (t.property, p.property) == (LINEARLY_ORDERED, CENTERED)

    @given(k_colorings(4), infinite_sets)
    @settings(max_examples=150, deadline=None)
    def test_r_4_is_r_sigma_on_the_pulled_bit_colorings(self, c, b):
        cat, pull = catalog(), builtin_candidate("r_sigma", "r_4").pull
        assert cat["r_4"].holds(c, b) == cat["r_sigma"].holds(pull(c), b)

    def test_r_4_and_its_pull_decompose_through_one_helper(self, monkeypatch):
        seen = []
        real = builtin_morphisms.__globals__["_bit_colorings"]
        monkeypatch.setitem(
            builtin_morphisms.__globals__, "_bit_colorings",
            lambda c, colors: seen.append((c, colors)) or real(c, colors),
        )
        c = APFunc((2,), (0, 1, 2, 3), 0)
        catalog()["r_4"].holds(c, EVENS)
        pulled = builtin_candidate("r_sigma", "r_4").pull(c)
        assert seen == [(c, 4), (c, 4)]
        assert pulled == real(c, 4) == (UPSet((0,), (0, 1, 0, 1)), UPSet((1,), (0, 0, 1, 1)))


class TestDominatingProbes:
    def test_splitting_probe_family(self):
        from tukeykit.triples import is_dominating

        s = with_probes(catalog()["s"], minus=[EVENS])
        assert not is_dominating([EVENS], s)
        mod4 = UPSet.from_residues(4, {0})
        assert is_dominating([mod4], s)

    def test_coded_triple_is_judged_on_its_kinds_probes(self):
        from tukeykit.triples import is_dominating

        s = catalog()["s"]
        assert s.minus_probes == UPSET.probes
        families = ([EVENS], [UPSet.from_residues(4, {0})], list(COLORING.probes),
                    [UPSet((), (1, 1, 0)), UPSet((), (1, 1, 0, 0))])
        verdicts = [is_dominating(f, s) for f in families]
        assert verdicts == [
            all(any(splits_general(c, a) for c in f) for a in UPSET.probes) for f in families
        ]
        assert True in verdicts and False in verdicts


class TestIterateColoring:
    SLOPE_TWO = (APFunc((), (0,), 2), APFunc((), (2,), 2), APFunc((3, 1), (5, 9), 5))

    def test_slope_one_is_eventually_periodic(self):
        # the step is k+1, so unit blocks alternate: the parity coloring
        assert iterate_coloring(constant(0)) == EVENS

    def test_block_structure(self):
        g = APFunc((), (2,), 2)  # step 2k + 2
        ts = coloring_boundaries(g, 5)
        assert ts == [0, 2, 6, 14, 30, 62]
        for j in range(4):
            for k in range(ts[j], ts[j + 1]):
                assert coloring_bit(g, k) == (1 if j % 2 == 0 else 0)

    def test_splits_matches_bits_for_growing_blocks(self):
        for g in self.SLOPE_TWO:
            assert ref.slope(g) > 1
            c = iterate_coloring(g)
            assert isinstance(c, IterateColoring)
            ts = coloring_boundaries(g, 12)
            for a in (EVENS, ODDS, UPSet.from_residues(3, {1})):
                assert splits_general(c, a)
                # within a window both colours really do meet the set
                hits = {coloring_bit(g, k) for k in range(20, ts[-1]) if k in a}
                assert hits == {0, 1}

    def test_slope_one_exactness(self):
        for g in (APFunc((5,), (1,), 1), APFunc((), (3,), 1), APFunc((0, 7), (2, 1), 2),
                  constant(4), IDENTITY, APFunc((), (0, 1), 1)):
            assert ref.slope(g) <= 1
            up = iterate_coloring(g)
            assert isinstance(up, UPSet)
            for k in range(60):
                assert (k in up) == (coloring_bit(g, k) == 1)

    def test_only_slope_above_one_is_not_periodic(self):
        for g in (APFunc((5,), (1,), 1), constant(0), APFunc((0, 7), (2, 1), 2)):
            with pytest.raises(ValueError):
                IterateColoring(g)
        for g in self.SLOPE_TWO:
            assert iterate_coloring(g) == IterateColoring(g)

    def test_splits_general_dispatch(self):
        assert splits_general(EVENS, FULL)
        assert splits_general(IterateColoring(APFunc((), (0,), 2)), EVENS)
        with pytest.raises(ValueError):
            splits_general(IterateColoring(APFunc((), (0,), 2)), UPSet.from_finite({1}))


class TestGluedImage:
    def test_membership_matches_branchmap(self):
        from tukeykit.branchmap import image_prefix

        img = GluedImage(IDENTITY)
        prefix = image_prefix(IDENTITY, 120)
        for x in range(120):
            assert (x in img) == (x in set(prefix.elements))

    def test_never_almost_contains_infinite_periodic(self):
        img = GluedImage(ZERO)
        for a in (EVENS, ODDS, FULL, UPSet.from_residues(5, {2})):
            assert img.almost_contains(a) is False

    def test_missing_elements_really_missing(self):
        img = GluedImage(IDENTITY)
        missing = img.missing_elements(EVENS, 5)
        assert len(missing) == 5
        for x in missing:
            assert x in EVENS and x not in img

    def test_missing_elements_past_the_scan_is_a_budget_error(self):
        with pytest.raises(EnumerationBudget, match="missing elements"):
            GluedImage(IDENTITY).missing_elements(EVENS, 10**6)


class TestBuiltinMorphisms:
    def test_all_pass_default_probes(self):
        for entry in builtin_morphisms():
            report = default_probe_check(entry)
            assert report.consistent, report.summary()

    def test_relation_checks_engage(self):
        for entry in builtin_morphisms():
            report = default_probe_check(entry)
            assert report.nonvacuous_checks > 0, entry.candidate.name

    def test_swapped_ad_candidate_fails_family_condition(self):
        cand = next(
            e.candidate
            for e in builtin_morphisms()
            if (e.source, e.target) == ("a", "p")
        )
        swapped = MorphismCandidate(
            pull=cand.pull, push=lambda y: y, name="a->p without complement"
        )
        cat = catalog()
        report = check_morphism(swapped, cat["a"], cat["p"], [(EVENS, ODDS)])
        family_violations = [
            v for v in report.violations if v.condition == "family"
        ]
        assert family_violations, "complement-free push must break centeredness"

    def test_ad_families_flagged_as_samples(self):
        assert "sample" in AD_INFINITE.note

    def test_bit_extraction_example(self):
        cand = builtin_candidate("r_sigma", "r_4")
        mod4 = APFunc((), (0, 1, 2, 3), 0)
        colorings = cand.apply_pull(mod4)
        assert colorings[0] == UPSet.from_residues(4, {1, 3})
        assert colorings[1] == UPSet.from_residues(4, {2, 3})

    def test_compose_sigma_chain(self):
        chain = compose(builtin_row("r_sigma", "r_4"), builtin_row("r_4", "r_3"))
        assert (chain.source, chain.target, chain.families) == ("r_sigma", "r_3", ())
        cat = catalog()
        report = check_morphism(chain.candidate, cat["r_sigma"], cat["r_3"])
        assert report.consistent

    def test_builtins_compose_through_shared_triples(self):
        entries = builtin_morphisms()
        chains = [
            (first, second)
            for first in entries
            for second in entries
            if first.target == second.source
        ]
        assert len(chains) == 7
        for first, second in chains:
            chain = compose(first, second)
            assert (chain.source, chain.target) == (first.source, second.target)
            assert default_probe_check(chain).consistent, chain.candidate.name

    @pytest.mark.parametrize(
        "path", ["irb", "irbp", "urb", "urbp", "dbp", "rbp"], ids="->".join
    )
    def test_implied_borel_edges_compose_along_the_diagram(self, path):
        chain = functools.reduce(compose, map(builtin_row, path, path[1:]))
        report = default_probe_check(chain)
        assert report.consistent, report.summary()
        assert report.nonvacuous_checks > 0

    def test_r_to_b_builds_each_coloring_once(self, monkeypatch):
        steps = []
        real = iterate_coloring.__globals__["pointwise_max"]
        monkeypatch.setitem(
            iterate_coloring.__globals__, "pointwise_max", lambda f, g: steps.append(f) or real(f, g)
        )
        assert default_probe_check(BuiltinMorphism("r", "b", builtin_candidate("r", "b"), ())).consistent
        # one step per slope-1 probe; the steeper ones build no step
        assert len(steps) == len(set(steps)) == 5

    def test_builtins_refuse_composition_across_triples(self):
        by_edge = {(e.source, e.target): e for e in builtin_morphisms()}
        with pytest.raises(ContractBreach, match="cannot compose"):
            compose(by_edge[("u", "r")], by_edge[("d", "b")])
        with pytest.raises(ContractBreach, match="cannot compose"):
            compose(by_edge[("r_4", "r_3")], by_edge[("r_4", "r_3")])

    def test_padding_candidate_condition(self):
        cand = builtin_candidate("s_3", "s_2")
        xs = (EVENS, ODDS)
        assert cand.apply_pull(xs) == (EVENS, ODDS, ODDS)

    def test_partition_candidate_engages_and_passes(self):
        cand = nm_partition_candidate(14, 9, 6, 4)
        block = UPSet((), (1,) * 48 + (0,) * 48)
        source = with_probes(nm_splitting_triple(14, 9), plus=COLORING.probes + (block,))
        report = check_morphism(cand, source, nm_splitting_triple(6, 4))
        assert report.consistent
        assert report.nonvacuous_checks > 0

    def test_partition_candidate_requires_positive_verdict(self):
        with pytest.raises(ValueError):
            nm_partition_candidate(8, 3, 16, 4)


BOREL_POSITIVE_EDGES = [
    ("i", "r"),
    ("u", "r"),
    ("d", "s"),
    ("d", "b"),
    ("r", "b"),
    ("b", "p"),
    ("a", "p"),
    ("t", "p"),
]


def zfc_edges(d) -> set[tuple[str, str]]:
    return {(e.source, e.target) for e in d.edges if e.verdict == "zfc-inequality"}


class TestDiagram:
    def test_classical_edges(self):
        d = vd_diagram("classical")
        assert zfc_edges(d) == set(CLASSICAL_EDGES)
        assert len(d.nodes) == 8

    def test_borel_positive_edges(self):
        d = vd_diagram("borel")
        assert [
            (e.source, e.target) for e in d.edges if e.verdict == "BT-morphism"
        ] == BOREL_POSITIVE_EDGES

    def test_borel_vs_classical_differences(self):
        classical = zfc_edges(vd_diagram("classical"))
        borel = {
            (e.source, e.target)
            for e in vd_diagram("borel").edges
            if e.verdict == "BT-morphism"
        }
        assert ("a", "b") in classical and ("a", "b") not in borel
        assert ("i", "d") in classical and ("i", "d") not in borel
        assert ("s", "p") in classical and ("s", "p") not in borel
        assert ("a", "p") in borel and ("a", "p") not in classical
        assert ("b", "p") in borel

    def test_negative_annotations(self):
        d = vd_diagram("borel")
        verdicts = {(e.source, e.target): e.verdict for e in d.edges}
        assert verdicts[("a", "b")] == "no-morphism-at-all"
        assert verdicts[("i", "d")] == "no-BT-morphism"
        assert verdicts[("p", "t")] == "no-BT-morphism"
        assert verdicts[("b", "t")] == "open"
        for x, y in (("i", "u"), ("u", "a"), ("a", "i")):
            assert verdicts[(x, y)] == "no-BT-morphism"
            assert verdicts[(y, x)] == "no-BT-morphism"

    def test_every_positive_edge_has_builtin(self):
        by_edge = {(b.source, b.target): b for b in builtin_morphisms()}
        for e in vd_diagram("borel").edges:
            if e.verdict == "BT-morphism":
                name = by_edge[(e.source, e.target)].candidate.name
                assert e.provenance == f"built-in candidate: {name}"

    def test_json_shape(self):
        d = vd_diagram("borel")
        data = d.to_json()
        assert set(data) == {"nodes", "edges"}
        assert set(data["nodes"]) == {"p", "s", "r", "b", "d", "a", "i", "u", "t"}
        for e in data["edges"]:
            assert set(e) == {"src", "dst", "verdict", "provenance"}
        json.dumps(data)

    def test_dot_contains_nodes_and_edges(self):
        text = vd_diagram("borel").to_dot()
        assert text.startswith("digraph")
        assert '"b" -> "p"' in text
        assert text.count("->") == len(vd_diagram("borel").edges)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            vd_diagram("other")


class TestCenteredDispatch:
    def test_upset_families(self):
        assert CENTERED([EVENS, UPSet.from_residues(4, {0})])
        assert not CENTERED([EVENS, ODDS])

    def test_glued_image_families(self):
        fam = [GluedImage(ZERO), GluedImage(constant(2))]
        assert CENTERED(fam)

    def test_mixed_rejected(self):
        with pytest.raises(TypeError):
            CENTERED([EVENS, GluedImage(ZERO)])

    def test_complements_of_dyadics(self):
        fam = [s.complement() for s in dyadic_family(4)]
        assert CENTERED(fam)


# the benchmark's stored answers for the checks it cannot re-derive cheaply
BENCHMARK_GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestBenchmarkGolden:
    def setup_method(self):
        self.golden = json.loads(BENCHMARK_GOLDEN.read_text())

    def test_probe_check_reports_match_the_benchmark_digests(self):
        got = {
            f"{e.source}->{e.target}": sha256(repr(default_probe_check(e)))
            for e in builtin_morphisms()
        }
        assert len(got) == 14
        assert got == self.golden["probe_check"]

    def test_diagrams_match_the_benchmark_digests(self):
        got = {
            kind: sha256(json.dumps(vd_diagram(kind).to_json(), sort_keys=True))
            for kind in ("classical", "borel")
        }
        assert got == self.golden["vd_diagram"]
