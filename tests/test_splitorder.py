import itertools

import pytest

import reference_splitorder as ref
from tukeykit import splitorder
from tukeykit.cli import main
from tukeykit.splitorder import (
    CertificateError,
    EnumerationBudget,
    SplitSpec,
    antichain,
    bt_edge,
    bucket_count,
    bucket_count_by_filling,
    min_columns_hit,
    order_diagram,
    order_digraph,
    x_order,
)
from tukeykit.catalog import nm_splitting_triple
from tukeykit.triples import is_dominating
from tukeykit.upsets import EVENS, FULL, ODDS, UPSet, splits

from helpers import with_probes


class TestBucketCount:
    def test_worked_example(self):
        # 14 balls in 6 buckets, 3 shaded buckets: 3 + 3 + 2
        assert bucket_count(14, 6, 4) == 8
        assert bucket_count_by_filling(14, 6, 4) == 8

    def test_identity_case(self):
        for n in range(1, 12):
            for m in range(1, n + 1):
                assert bucket_count(n, n, m) == m - 1

    def test_power_pair(self):
        assert bucket_count(16, 8, 3) == 4

    def test_degenerate_single_bucket(self):
        assert bucket_count_by_filling(7, 1, 1) == 0

    def test_formula_matches_filling(self):
        for n in range(0, 61):
            for n2 in range(1, n + 1):
                for m2 in range(1, n2 + 1):
                    assert bucket_count(n, n2, m2) == bucket_count_by_filling(n, n2, m2)

    def test_zero_buckets_rejected(self):
        with pytest.raises(ValueError):
            bucket_count(5, 0, 1)
        with pytest.raises(ValueError, match="need at least one column"):
            bucket_count_by_filling(5, 0, 1)


class TestMinColumnsHit:
    def test_worked_example(self):
        assert min_columns_hit(14, 6, 9) == 4

    def test_single_region(self):
        for n, n2 in ((5, 2), (9, 3), (4, 4)):
            assert min_columns_hit(n, n2, 1) == 1

    def test_equivalence_with_bucket_bound(self):
        # the computational core: forcing m' columns is the same as the
        # bucket count staying below m
        for n in range(1, 15):
            for n2 in range(1, 7):
                for m in range(1, n + 1):
                    hit = min_columns_hit(n, n2, m)
                    for m2 in range(1, n2 + 1):
                        assert (hit >= m2) == (bucket_count(n, n2, m2) < m)

    def test_bound_guard(self):
        with pytest.raises(EnumerationBudget, match="exhaustive search capped at n <= 30"):
            min_columns_hit(31, 2, 5)


class TestEdgeVerdicts:
    def test_full_split_chain(self):
        v = bt_edge(SplitSpec(2, 1), SplitSpec(1, 1))
        assert v.morphism

    def test_antichain_pair(self):
        v = bt_edge(SplitSpec(8, 3), SplitSpec(16, 4))
        assert not v.morphism and v.reason == "m_increase"
        back = bt_edge(SplitSpec(16, 4), SplitSpec(8, 3))
        assert not back.morphism and back.reason == "bound_fails"
        assert back.lhs == 4

    def test_reflexive(self):
        for n in range(1, 10):
            for m in range(1, n + 1):
                assert bt_edge(SplitSpec(n, m), SplitSpec(n, m)).morphism

    def test_chain_of_weakenings(self):
        # dropping m one step at a time always succeeds
        for n in range(2, 12):
            for m in range(2, n + 1):
                assert bt_edge(SplitSpec(n, m), SplitSpec(n, m - 1)).morphism

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SplitSpec(3, 4)


class TestAntichain:
    def test_small(self):
        report = antichain(4)
        assert report.pairs == ((3, 4),)
        assert report.all_incomparable

    def test_up_to_eight(self):
        report = antichain(8)
        assert len(report.pairs) == 15
        assert report.all_incomparable

    def test_minimum_start(self):
        with pytest.raises(ValueError):
            antichain(2)

    def test_pair_bound_refuses_before_any_comparison(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(splitorder, "bt_edge", lambda a, b: calls.append((a, b)))
        with pytest.raises(EnumerationBudget, match="top 701 gives 243951 pairs"):
            antichain(701)
        code = main(["antichain", "701"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "budget: top 701 gives 243951 pairs, above the bound of 243253\n"
        assert calls == []

    def test_pair_bound_counts_pairs(self, monkeypatch):
        # top 8 gives 15 pairs and top 9 gives 21: at the bound the
        # antichain is verified as before, one top past it is refused
        monkeypatch.setattr(splitorder, "_ANTICHAIN_PAIR_BOUND", 15)
        assert len(antichain(8).pairs) == 15
        with pytest.raises(EnumerationBudget, match="top 9 gives 21 pairs"):
            antichain(9)


class TestIndexSetOrder:
    def test_superset(self):
        assert x_order({3, 4}, {3}).morphism

    def test_missing_index(self):
        v = x_order({3}, {4})
        assert not v.morphism
        assert v.missing == 4
        for fwd, back in v.separations:
            assert not fwd.morphism and not back.morphism

    def test_equal_sets(self):
        assert x_order({3, 5}, {3, 5}).morphism

    def test_anti_embedding_exhaustive(self):
        universe = [3, 4, 5]
        subsets = [
            set(c)
            for size in range(len(universe) + 1)
            for c in itertools.combinations(universe, size)
        ]
        for x in subsets:
            for y in subsets:
                assert x_order(x, y).morphism == (x >= y)

    def test_small_elements_rejected(self):
        with pytest.raises(ValueError):
            x_order({2}, {3})

    def test_containment_builds_no_spec(self, monkeypatch):
        monkeypatch.setattr(splitorder, "SplitSpec", None)
        assert x_order({3, 10**12}, {10**12}).morphism

    def test_separation_bound_refuses_before_building_a_spec(self, monkeypatch, capsys):
        built = []
        monkeypatch.setattr(splitorder, "SplitSpec", lambda n, m: built.append(m))
        with pytest.raises(EnumerationBudget, match="from index 1500001 need 1500001 bits"):
            x_order({3}, {1500001})
        code = main(["embed", "3", "10000000"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == (
            "budget: the separations from index 10000000 need 10000000 bits, "
            "above the bound of 1500000\n"
        )
        assert built == []

    def test_separation_bound_sums_the_larger_index(self, monkeypatch):
        # X = {3, 10} against Y = {5} builds separations of 5 and 10 bits
        monkeypatch.setattr(splitorder, "_SEPARATION_BIT_BOUND", 15)
        assert len(x_order({3, 10}, {5}).separations) == 2
        with pytest.raises(EnumerationBudget, match="need 16 bits"):
            x_order({3, 11}, {5})

    def test_separations_face_from_each_member_of_x(self):
        (f3, b3), (f7, b7) = x_order({3, 7}, {5}).separations
        assert [(e.source.m, e.target.m, e.reason) for e in (f3, b3, f7, b7)] == [
            (3, 5, "m_increase"), (5, 3, "bound_fails"),
            (7, 5, "bound_fails"), (5, 7, "m_increase"),
        ]

    def test_separations_are_re_derived(self, monkeypatch):
        # a comparison that answers the wrong way round is caught, as in
        # the antichain, and named in exponent form
        real = splitorder.bt_edge
        monkeypatch.setattr(splitorder, "bt_edge", lambda a, b: real(b, a))
        with pytest.raises(CertificateError, match=r"^\(2\^3,3\) -> \(2\^5,5\) must fail by m"):
            x_order({3}, {5})
        with pytest.raises(CertificateError, match=r"^\(2\^3,3\) -> \(2\^4,4\) must fail by m"):
            antichain(4)


def splits_at_least(family, targets, m) -> bool:
    """Does some family member split at least m of the targets?"""
    t = with_probes(nm_splitting_triple(len(targets), m), minus=[tuple(targets)])
    return is_dominating(family, t)


class TestSplittingWitness:
    def test_trivial_positive(self):
        assert splits_at_least([EVENS], [FULL] * 3, 3)

    def test_all_ones_never_splits(self):
        assert not splits_at_least([FULL], [EVENS, ODDS], 1)

    def test_residue_colorings_vs_exhaustive_table(self):
        family = [EVENS, UPSet.from_residues(3, {0})]
        targets = [UPSet.from_residues(4, {r}) for r in range(4)]
        for m in range(1, 5):
            expected = any(
                sum(1 for t in targets if splits(c, t)) >= m for c in family
            )
            assert splits_at_least(family, targets, m) == expected

    def test_finite_target_rejected(self):
        with pytest.raises(ValueError):
            splits_at_least([EVENS], [UPSet.from_finite({1})], 1)


class TestDigraph:
    def test_edges_match_verdicts(self):
        nodes, edges = order_digraph(4)
        for a, b in edges:
            assert bt_edge(a, b).morphism

    def test_dot_output_parses_as_digraph(self):
        text = order_diagram(3).to_dot()
        assert text.startswith("digraph") and text.endswith("}")
        assert '"(2,1)" -> "(1,1)";' in text

    def test_hasse_is_subset(self):
        _, full = order_digraph(4)
        _, reduced = order_digraph(4, hasse=True)
        assert set(reduced) <= set(full)

    @pytest.mark.parametrize("hasse", [False, True])
    @pytest.mark.parametrize("limit", range(1, 7))
    def test_diagram_matches_digraph(self, limit, hasse):
        nodes, edges = order_digraph(limit, hasse=hasse)
        d = order_diagram(limit, hasse=hasse)
        assert d.name == "splitting_order"
        assert list(d.nodes) == [str(v) for v in nodes]
        assert [(e.source, e.target, e.verdict, e.provenance) for e in d.edges] == [
            (str(a), str(b), "BT-morphism", "bucket bound") for a, b in edges
        ]

    @pytest.mark.parametrize("hasse", [False, True])
    @pytest.mark.parametrize("limit", range(1, 13))
    def test_digraph_matches_reference(self, limit, hasse):
        assert repr(order_digraph(limit, hasse=hasse)) == repr(
            ref.order_digraph(limit, hasse=hasse)
        )

    def test_digraph_neither_hashes_nor_compares_specs(self, monkeypatch):
        # the reduction runs on node indices; a spec is only built and
        # handed to bt_edge
        def refuse(*args):
            raise AssertionError("a SplitSpec was hashed or compared")

        monkeypatch.setattr(SplitSpec, "__hash__", refuse)
        monkeypatch.setattr(SplitSpec, "__eq__", refuse)
        nodes, edges = order_digraph(6, hasse=True)
        assert len(nodes) == 21 and edges
        assert order_diagram(4, hasse=True).edges

    def test_a_limit_past_the_bound_compares_no_specs(self, monkeypatch, capsys):
        calls = []

        def counted(a, b):
            calls.append((a, b))
            return bt_edge(a, b)

        monkeypatch.setattr(splitorder, "bt_edge", counted)
        limit = 51  # 1,326 specs
        assert limit * (limit + 1) // 2 > splitorder._DIGRAPH_SPEC_BOUND
        with pytest.raises(EnumerationBudget, match="1326 specs"):
            order_digraph(limit)
        code = main(["diagram", "--kind", "splitting", "--limit", str(limit), "--hasse"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("budget: limit 51 gives 1326 specs")
        assert calls == []

    def test_the_bound_counts_specs(self, monkeypatch):
        # at the bound the order is built as before; one spec past it is refused
        monkeypatch.setattr(splitorder, "_DIGRAPH_SPEC_BOUND", 10)
        assert repr(order_digraph(4, hasse=True)) == repr(ref.order_digraph(4, hasse=True))
        with pytest.raises(EnumerationBudget):
            order_digraph(5)
