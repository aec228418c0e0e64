import os
import subprocess
import sys
from pathlib import Path

import pytest

import tukeykit
from tukeykit.apfuncs import ZERO
from tukeykit.gadgets import (
    ContractBreach,
    refute_filterclass_to_unbounded,
    refute_pseudo_intersection_to_tower,
)
from tukeykit.triples import MorphismCandidate
from tukeykit.upsets import EVENS, FULL, UPSet, almost_subset

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
        from tukeykit.apfuncs import eventually_dominates

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

