import functools
import json

import pytest

from tukeykit.apfuncs import APFunc, IDENTITY, ZERO, constant
from tukeykit.catalog import (
    AD_INFINITE,
    APFUNC,
    BuiltinMorphism,
    CLASSICAL_EDGES,
    CENTERED,
    COLORING,
    IC,
    UPSET,
    GluedImage,
    IterateColoring,
    TaggedIndependentFamily,
    builtin_morphisms,
    catalog,
    coloring_kind,
    default_probe_check,
    iterate_coloring,
    nm_partition_candidate,
    nm_splitting_triple,
    splits_general,
    upset_tuple_kind,
    vd_diagram,
)
from tukeykit.errors import ContractBreach, EnumerationBudget
from tukeykit.triples import MorphismCandidate, check_morphism, compose
from tukeykit.upsets import EVENS, FULL, ODDS, UPSet, dyadic_family

import reference_apfuncs as ref
from helpers import coloring_bit, coloring_boundaries


def builtin_candidate(source: str, target: str) -> MorphismCandidate:
    (cand,) = (
        e.candidate for e in builtin_morphisms() if (e.source, e.target) == (source, target)
    )
    return cand


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

    def test_independence_property_tagged_only(self):
        prop = catalog()["i"].property
        base = (EVENS, UPSet.from_residues(3, {0, 1}))
        member = base[0] & base[1]
        good = TaggedIndependentFamily((member,), base, ((1, 1),))
        assert prop([good])
        assert not prop([EVENS])
        dependent = (EVENS, EVENS.complement())
        bad = TaggedIndependentFamily((EVENS,), dependent, ((1, 0),))
        assert not prop([bad])


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


class TestDominatingProbes:
    def test_splitting_probe_family(self):
        from tukeykit.triples import is_dominating

        s = catalog()["s"]
        assert not is_dominating([EVENS], s, probes=[EVENS])
        mod4 = UPSet.from_residues(4, {0})
        assert is_dominating([mod4], s, probes=[EVENS])

    def test_coded_requires_probes(self):
        from tukeykit.triples import is_dominating

        with pytest.raises(ValueError):
            is_dominating([EVENS], catalog()["s"])


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
        report = check_morphism(
            swapped,
            cat["a"],
            cat["p"],
            target_minus_probes=UPSET.probes,
            source_plus_probes=IC.probes,
            families=[(EVENS, ODDS)],
        )
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
        chain = compose(builtin_candidate("r_sigma", "r_4"), builtin_candidate("r_4", "r_3"))
        cat = catalog()
        report = check_morphism(
            chain,
            cat["r_sigma"],
            cat["r_3"],
            target_minus_probes=coloring_kind(3).probes,
            source_plus_probes=UPSET.probes,
        )
        assert report.consistent

    def test_builtins_compose_through_shared_triples(self):
        entries = builtin_morphisms()
        cat = catalog()
        for e in entries:
            s, t = cat[e.source], cat[e.target]
            assert e.candidate.source_kinds == (s.minus, s.plus), e.candidate.name
            assert e.candidate.target_kinds == (t.minus, t.plus), e.candidate.name
        chains = [
            (first, second)
            for first in entries
            for second in entries
            if first.target == second.source
        ]
        assert len(chains) == 7
        for first, second in chains:
            chain = compose(first.candidate, second.candidate)
            assert chain.source_kinds == first.candidate.source_kinds
            assert chain.target_kinds == second.candidate.target_kinds
            composite = BuiltinMorphism(first.source, second.target, chain, ())
            assert default_probe_check(composite).consistent, chain.name

    @pytest.mark.parametrize(
        "path", ["irb", "irbp", "urb", "urbp", "dbp", "rbp"], ids="->".join
    )
    def test_implied_borel_edges_compose_along_the_diagram(self, path):
        chain = functools.reduce(compose, map(builtin_candidate, path, path[1:]))
        report = default_probe_check(BuiltinMorphism(path[0], path[-1], chain, ()))
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
        by_edge = {(e.source, e.target): e.candidate for e in builtin_morphisms()}
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
        report = check_morphism(
            cand,
            nm_splitting_triple(14, 9),
            nm_splitting_triple(6, 4),
            target_minus_probes=upset_tuple_kind(6).probes,
            source_plus_probes=COLORING.probes + (block,),
        )
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
