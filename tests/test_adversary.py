import subprocess
import sys

import pytest

from tukeykit import wire
from tukeykit.adversary import (
    AdversaryCertificate,
    BudgetExhausted,
    DecidedFact,
    IntervalPartition,
    MachineFault,
    Predictor,
    build_adversary,
    constant_machine,
    flip_machine,
    identity_machine,
    image_nonsplit_certificate,
    multiclass_family,
    predicted_element,
    predicts,
    splitter_from_free_class,
    verify_certificate,
)
from tukeykit.triples import MachineBudgetError
from tukeykit.upsets import EVENS, FULL, UPSet

# answers its first query with 1, then exits
ONE_SHOT_MACHINE = (
    "import sys\n"
    "sys.stdin.readline()\n"
    "print('1'); sys.stdout.flush()\n"
)


class TestPartitionAndPredictor:
    def test_partition_validation(self):
        with pytest.raises(ValueError):
            IntervalPartition((1, 2))
        with pytest.raises(ValueError):
            IntervalPartition((0, 2, 2))
        p = IntervalPartition((0, 2, 5))
        assert p.depth == 2
        assert list(p.interval(1)) == [2, 3, 4]

    def test_predictor_totality_enforced(self):
        p = IntervalPartition((0, 1, 2))
        with pytest.raises(ValueError):
            Predictor(p, ({"": "1"}, {"0": "1"}))  # level 1 misses history "1"
        good = Predictor(p, ({"": "1"}, {"0": "1", "1": "0"}))
        assert good.forecast("0", 1) == "1"

    def test_predicts_literal_comparison(self):
        p = IntervalPartition((0, 2, 4))
        theta = Predictor(
            p,
            (
                {"": "10"},
                {"00": "11", "01": "10", "10": "01", "11": "00"},
            ),
        )
        assert predicts(theta, "1001", 1)
        assert not predicts(theta, "1000", 1)
        assert predicts(theta, "10" + "01", 1)
        # flipping one forecast bit at level 1 flips only level 1
        assert predicts(theta, "1001", 0)

    def test_predicts_on_upsets(self):
        p = IntervalPartition((0, 1, 2))
        theta = Predictor(p, ({"": "1"}, {"0": "0", "1": "0"}))
        # evens start 1, 0
        assert predicts(theta, EVENS, 0)
        assert predicts(theta, EVENS, 1)
        assert not predicts(theta, FULL, 1)

    def test_depth_guard(self):
        p = IntervalPartition((0, 1))
        theta = Predictor(p, ({"": "1"},))
        with pytest.raises(ValueError):
            predicts(theta, "11", 1)


class TestBuildAdversary:
    def test_identity_machine_depth_five(self):
        cert = build_adversary(identity_machine(), 5, 10**6)
        assert cert.depth == 5
        assert list(cert.pivots) == sorted(set(cert.pivots))
        assert all(a < b for a, b in zip(cert.pivots, cert.pivots[1:]))
        # predictor totality at every level
        for k, table in enumerate(cert.predictor.tables):
            assert len(table) == 2 ** cert.partition.cuts[k]
        assert verify_certificate(cert, identity_machine()) == len(cert.facts)

    def test_identity_pivots_inside_intervals(self):
        cert = build_adversary(identity_machine(), 5)
        for k, pivot in enumerate(cert.pivots):
            assert pivot in cert.partition.interval(k)

    def test_all_ones_machine_minimal(self):
        cert = build_adversary(constant_machine(1), 4)
        assert all(
            cert.partition.cuts[k + 1] - cert.partition.cuts[k] == 1
            for k in range(cert.depth)
        )
        assert verify_certificate(cert, constant_machine(1)) == len(cert.facts)

    def test_all_zeros_machine_budget_error(self):
        with pytest.raises(BudgetExhausted) as err:
            build_adversary(constant_machine(0), 2, budget=3000)
        assert err.value.progress.level == 0

    def test_flip_machine(self):
        cert = build_adversary(flip_machine(), 4)
        assert verify_certificate(cert, flip_machine()) == len(cert.facts)

    def test_budget_is_respected(self):
        cert = build_adversary(identity_machine(), 5, 10**6)
        assert cert.queries_used <= 10**6

    def test_tampered_certificate_detected(self):
        cert = build_adversary(identity_machine(), 3)
        fact = cert.facts[-1]
        bad_fact = DecidedFact(fact.level, fact.history, fact.pivot + 1)
        tampered = AdversaryCertificate(
            cert.machine_name,
            cert.predictor,
            cert.pivots,
            cert.facts[:-1] + (bad_fact,),
            cert.queries_used,
        )
        with pytest.raises(MachineFault):
            verify_certificate(tampered, identity_machine())


class TestPredictedFamilies:
    def setup_method(self):
        self.machine = identity_machine()
        self.cert = build_adversary(self.machine, 6)

    def test_predicted_element_predicts(self):
        c = predicted_element(self.cert, 2, 0, fill="1")
        for k in range(0, self.cert.depth, 2):
            assert predicts(self.cert.predictor, c, k)

    def test_free_bits_shape_checked(self):
        with pytest.raises(ValueError):
            predicted_element(self.cert, 2, 0, free_bits={1: "xx"})

    def test_fill_must_be_bit(self):
        with pytest.raises(ValueError):
            predicted_element(self.cert, 2, 0, fill="2")

    def test_splitter_alternates_on_target(self):
        target = FULL
        trace = splitter_from_free_class(self.cert, 2, 0, target)
        assert trace.ones >= 1 and trace.zeros >= 1
        for pos, bit in trace.hits:
            assert int(trace.element[pos]) == bit

    def test_splitter_needs_two_free_points(self):
        # a target missing the free region entirely
        pivots_only = UPSet.from_finite(
            [p for k, p in enumerate(self.cert.pivots) if k % 2 == 0]
        )
        target = pivots_only | UPSet.from_finite({self.cert.partition.cuts[-1] + 5})
        with pytest.raises(ValueError):
            splitter_from_free_class(self.cert, 2, 0, target)

    def test_image_pinned_at_class_pivots(self):
        trace = splitter_from_free_class(self.cert, 2, 1, FULL)
        pin = image_nonsplit_certificate(
            self.cert, self.machine, trace.element, 2, 1
        )
        expected = [p for k, p in enumerate(self.cert.pivots) if k % 2 == 1]
        assert list(pin.pinned_pivots) == expected

    def test_unpredicted_element_rejected(self):
        c = predicted_element(self.cert, 2, 0, fill="1")
        flipped = c[:-1] + ("1" if c[-1] == "0" else "0")
        k_last = self.cert.depth - 1
        if k_last % 2 == 0:
            with pytest.raises(ValueError):
                image_nonsplit_certificate(self.cert, self.machine, flipped, 2, 0)

    def test_multiclass_family_reports(self):
        targets = [FULL, EVENS]
        reports = multiclass_family(
            self.cert, self.machine, [(2, 0), (2, 1)], targets
        )
        assert len(reports) == 2
        for report in reports:
            assert report.pinnings
            # every splitter found has its pinned-image certificate
            assert len(report.pinnings) == 1 + len(report.splits)

    def test_multiclass_empty_specs(self):
        assert multiclass_family(self.cert, self.machine, []) == []

    def test_multiclass_all_classes_to_three_at_depth_seven(self):
        machine = identity_machine()
        cert = build_adversary(machine, 7)
        specs = [(n, r) for n in range(1, 4) for r in range(n)]
        reports = multiclass_family(cert, machine, specs, [FULL])
        assert len(reports) == len(specs)
        for report in reports:
            n, r = report.spec
            if n == 1:
                # every level predicted: no free region, nothing to split
                assert report.splits == () and report.skipped_targets == (0,)
            else:
                assert report.splits
            assert report.pinnings


class TestExternalMachine:
    def test_exited_child_is_not_respawned(self, tmp_path, monkeypatch):
        script = tmp_path / "once.py"
        script.write_text(ONE_SHOT_MACHINE)
        spawned = []
        popen = subprocess.Popen

        def counting_popen(*args, **kwargs):
            spawned.append(popen(*args, **kwargs))
            return spawned[-1]

        monkeypatch.setattr(wire.subprocess, "Popen", counting_popen)
        machine = wire.subprocess_machine([sys.executable, str(script)])
        try:
            assert machine.query("1", 0) == 1
            # without this wait the second query races the child's exit
            spawned[0].wait(timeout=30)
            with pytest.raises(MachineBudgetError, match="exited with code 0"):
                machine.query("1", 0)
        finally:
            machine.process.close()
        assert len(spawned) == 1
