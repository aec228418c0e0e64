import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import tukeykit
from tukeykit.apfuncs import IDENTITY, ZERO, APFunc, eventually_dominates
from tukeykit.gadgets import (
    ContractBreach,
    MaxPairViolation,
    ThreeSetsViolation,
    refute_filterclass_to_unbounded,
    refute_pseudo_intersection_to_tower,
)
from tukeykit.triples import MorphismCandidate
from tukeykit.upsets import EVENS, FULL, ODDS, UPSet, almost_subset, is_linearly_ordered

from helpers import scripted_max_pair_candidates, scripted_three_sets_candidates


class TestMaxPairGadget:
    def test_scripted_suite_all_refuted(self):
        for cand in scripted_max_pair_candidates():
            violation = refute_filterclass_to_unbounded(cand)
            assert violation.verify(), cand.name
            assert violation.side_name in ("O", "E")

    def test_forced_constant_example(self):
        cand = MorphismCandidate(pull=lambda f: EVENS, push=lambda a: ZERO)
        violation = refute_filterclass_to_unbounded(cand)
        # the pulled set is the evens, so the witnessing half is E
        assert violation.side_name == "E"
        assert violation.combined == ZERO

    def test_certificate_clauses(self):
        cand = scripted_max_pair_candidates()[2]
        v = refute_filterclass_to_unbounded(cand)
        assert (v.pulled & v.side).is_infinite
        assert eventually_dominates(v.combined, v.pushed_side)

    def test_finite_pull_is_contract_breach(self):
        cand = MorphismCandidate(
            pull=lambda f: UPSet.from_finite({1, 2}), push=lambda a: ZERO
        )
        with pytest.raises(ContractBreach):
            refute_filterclass_to_unbounded(cand)

    def test_cofinite_pull_is_contract_breach(self):
        # a cofinite set is infinite, but it is not on the ic carrier
        cofinite = FULL - UPSet.from_finite({0})
        cand = MorphismCandidate(pull=lambda f: cofinite, push=lambda a: ZERO)
        with pytest.raises(ContractBreach, match="infinite co-infinite"):
            refute_filterclass_to_unbounded(cand)

    def test_reverification_survives_optimize(self):
        script = (
            "import sys\n"
            "from tukeykit.apfuncs import ZERO\n"
            "from tukeykit.errors import CertificateError\n"
            "from tukeykit.gadgets import MaxPairViolation, refute_filterclass_to_unbounded\n"
            "from tukeykit.triples import MorphismCandidate\n"
            "from tukeykit.upsets import EVENS\n"
            "if __debug__:\n"
            "    sys.exit('assertions are enabled')\n"
            "MaxPairViolation.verify = lambda self: False\n"
            "cand = MorphismCandidate(pull=lambda f: EVENS, push=lambda a: ZERO)\n"
            "try:\n"
            "    refute_filterclass_to_unbounded(cand)\n"
            "except CertificateError as exc:\n"
            "    print(exc)\n"
            "    sys.exit(0)\n"
            "sys.exit('a certificate failing re-verification was returned')\n"
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
        assert "re-verification" in proc.stdout


class TestThreeSetsGadget:
    def test_scripted_suite_all_refuted(self):
        for cand in scripted_three_sets_candidates():
            violation = refute_pseudo_intersection_to_tower(cand)
            assert violation.verify(), cand.name

    def test_identity_fails_family_condition(self):
        v = refute_pseudo_intersection_to_tower(
            MorphismCandidate(pull=lambda x: x, push=lambda y: y)
        )
        assert v.kind == "family"

    def test_constant_push_fails_relation(self):
        v = refute_pseudo_intersection_to_tower(
            MorphismCandidate(pull=lambda x: x, push=lambda y: EVENS)
        )
        assert v.kind == "relation"
        assert v.common == EVENS
        assert v.pulled == EVENS
        assert not almost_subset(v.pulled, v.culprit)

    def test_push_must_produce_infinite_sets(self):
        cand = MorphismCandidate(
            pull=lambda x: x, push=lambda y: UPSet.from_finite({3})
        )
        with pytest.raises(ContractBreach):
            refute_pseudo_intersection_to_tower(cand)


# the clauses the violations checked in their own words before they read
# the catalog's a, b, p and t; the reference that verify() must match
HAND_WRITTEN_CLAUSES = {
    "meets": lambda v: (v.pulled & v.side).is_infinite,
    "dominates": lambda v: eventually_dominates(v.combined, v.pushed_side),
    "family": lambda v: (
        (v.pair[0] & v.pair[1]).is_infinite and not is_linearly_ordered(list(v.images))
    ),
    "relation": lambda v: (
        almost_subset(v.common, v.culprit_image) and not almost_subset(v.pulled, v.culprit)
    ),
}


def hand_written_verdict(v) -> bool:
    if isinstance(v, MaxPairViolation):
        return HAND_WRITTEN_CLAUSES["meets"](v) and HAND_WRITTEN_CLAUSES["dominates"](v)
    return HAND_WRITTEN_CLAUSES[v.kind](v)


TRIO = tuple(UPSet.from_residues(3, r) for r in ({0, 1}, {1, 2}, {0, 2}))
MOD3_ZERO = UPSet.from_residues(3, {0})

bit_tuples = st.lists(st.integers(0, 1), max_size=4).map(tuple)
ic_sets = st.builds(
    UPSet, bit_tuples, st.lists(st.integers(0, 1), min_size=2, max_size=6).map(tuple)
).filter(lambda s: s.is_ic)
small_values = st.lists(st.integers(0, 6), max_size=3).map(tuple)
small_funcs = st.builds(
    APFunc, small_values, st.lists(st.integers(0, 6), min_size=1, max_size=3).map(tuple),
    st.integers(0, 4),
)


class TestVerifyReadsTheCatalog:
    # each test checks every returned violation and tampered copies of it,
    # and that both verdicts occur over its examples
    def test_max_pair_verify_matches_the_hand_written_clauses(self):
        verdicts = set()

        @given(ic_sets, small_funcs, small_funcs)
        @settings(max_examples=60, deadline=None)
        # a pull inside one half: the other half swapped in fails
        @example(EVENS, ZERO, IDENTITY)
        # a pull meeting both halves: the other half swapped in holds
        @example(MOD3_ZERO, IDENTITY, ZERO)
        def run(pulled, push_odds, push_evens):
            cand = MorphismCandidate(
                pull=lambda f: pulled, push=lambda a: push_odds if a == ODDS else push_evens
            )
            v = refute_filterclass_to_unbounded(cand)
            assert v.verify() is True and hand_written_verdict(v)
            other_name, other = ("E", EVENS) if v.side_name == "O" else ("O", ODDS)
            swapped = MaxPairViolation(v.combined, other_name, other, v.pulled, v.pushed_side)
            verdict = swapped.verify()
            assert verdict == hand_written_verdict(swapped)
            verdicts.add(verdict)

        run()
        assert verdicts == {True, False}

    def test_three_sets_verify_matches_the_hand_written_clauses(self):
        verdicts = set()

        @given(ic_sets, st.one_of(st.just(None), ic_sets))
        @settings(max_examples=60, deadline=None)
        # identity push: the family clause
        @example(EVENS, None)
        # constant push, a pull inside two of the trio: another culprit fails
        @example(MOD3_ZERO, EVENS)
        # constant push, a pull inside none of them: another culprit holds
        @example(EVENS, ODDS)
        def run(pulled, image):
            push = (lambda y: y) if image is None else (lambda y: image)
            v = refute_pseudo_intersection_to_tower(MorphismCandidate(lambda x: pulled, push))
            assert v.kind == ("family" if image is None else "relation")
            assert v.verify() is True and hand_written_verdict(v)
            if v.kind == "relation":
                for culprit in TRIO:
                    tampered = ThreeSetsViolation(
                        "relation", v.detail, common=v.common, culprit=culprit,
                        culprit_image=v.culprit_image, pulled=v.pulled,
                    )
                    verdict = tampered.verify()
                    assert verdict == hand_written_verdict(tampered)
                    verdicts.add(verdict)

        run()
        assert verdicts == {True, False}

    @given(
        st.one_of(
            st.builds(UPSet.from_finite, st.sets(st.integers(0, 20), max_size=4)),
            st.builds(
                lambda s: FULL - UPSet.from_finite(s), st.sets(st.integers(0, 20), max_size=4)
            ),
            small_funcs,
            st.integers(),
            st.text(max_size=4),
            st.tuples(ic_sets),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_a_pull_outside_ic_is_a_contract_breach(self, pulled):
        cand = MorphismCandidate(pull=lambda f: pulled, push=lambda a: ZERO)
        with pytest.raises(ContractBreach, match="^pull map must land in infinite co-infinite sets$"):
            refute_filterclass_to_unbounded(cand)

    @pytest.mark.parametrize(
        "violation",
        [
            MaxPairViolation(ZERO, "E", EVENS, FULL - UPSet.from_finite({0}), ZERO),
            MaxPairViolation(ZERO, "E", EVENS, 3, ZERO),
            MaxPairViolation(EVENS, "E", EVENS, EVENS, ZERO),
            ThreeSetsViolation(
                "relation", "", common=EVENS, culprit=TRIO[0], culprit_image=EVENS,
                pulled=UPSet.from_finite({1}),
            ),
            ThreeSetsViolation(
                "relation", "", common=ZERO, culprit=TRIO[0], culprit_image=EVENS, pulled=EVENS,
            ),
        ],
        ids=["cofinite-pull", "int-pull", "set-combined", "finite-pull", "function-common"],
    )
    def test_a_hand_built_value_off_the_carriers_is_a_contract_breach(self, violation):
        with pytest.raises(ContractBreach, match="is not a valid"):
            violation.verify()
