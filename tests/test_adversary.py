import itertools
import os
import random
import signal
import subprocess
import sys
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import reference_adversary as ref
import tukeykit
from tukeykit import wire
from tukeykit.adversary import (
    AdversaryCertificate,
    BudgetExhausted,
    CertificateError,
    FunctionMachine,
    MeteredMachine,
    Predictor,
    build_adversary,
    constant_machine,
    flip_machine,
    identity_machine,
    image_nonsplit_certificate,
    multiclass_family,
    predicted_element,
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

# answers its first query with "1" but no newline, then stalls
PARTIAL_LINE_MACHINE = (
    "import sys, time\n"
    "sys.stdin.readline()\n"
    "sys.stdout.write('1'); sys.stdout.flush()\n"
    "time.sleep(60)\n"
)

# answers its first query with two lines at once, then stalls
TWO_LINE_MACHINE = (
    "import sys, time\n"
    "sys.stdin.readline()\n"
    "sys.stdout.write('1\\n0\\n'); sys.stdout.flush()\n"
    "time.sleep(60)\n"
)

# never reads its requests
DEAF_MACHINE = "import time\ntime.sleep(60)\n"

# answers each query after 0.7 s, naming the query's m
LATE_MACHINE = (
    "import sys, time\n"
    "for line in sys.stdin:\n"
    "    time.sleep(0.7)\n"
    "    print('answer-to-' + line.split()[-1]); sys.stdout.flush()\n"
)


# answers the query at m with the m-th of 0, 1, U and 2
ANSWER_PER_M_MACHINE = (
    "import sys\n"
    "for line in sys.stdin:\n"
    "    print('01U2'[int(line.split()[-1])], flush=True)\n"
)


def ask_twice(
    tmp_path, child: str, requests: tuple[str, str] = ("'QUERY - 0'",) * 2
) -> list[str]:
    """Two asks with a 0.5 s timeout to the scripted ``child``, each
    printed as its answer or ``budget``; ``requests`` are the Python
    expressions of the lines asked.  They run in a fresh interpreter
    under an outer deadline, so a wire that blocks past its own timeout
    fails the test instead of hanging it.  The wire must start one child
    only, whatever the child did."""
    script = tmp_path / "child.py"
    script.write_text(child)
    probe = (
        "import subprocess, sys\n"
        "from tukeykit.triples import MachineBudgetError\n"
        "from tukeykit.wire import LineProcess\n"
        "spawned = []\n"
        "popen = subprocess.Popen\n"
        "subprocess.Popen = lambda *a, **k: spawned.append(1) or popen(*a, **k)\n"
        f"process = LineProcess([sys.executable, {str(script)!r}], timeout=0.5)\n"
        f"for request in [{', '.join(requests)}]:\n"
        "    try:\n"
        "        print(process.ask(request))\n"
        "    except MachineBudgetError:\n"
        "        print('budget')\n"
        "process.close()\n"
        "print(len(spawned))\n"
    )
    src = str(Path(tukeykit.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    *answers, spawns = proc.stdout.split()
    assert spawns == "1"
    return answers


class TestPartitionAndPredictor:
    def test_partition_validation(self):
        with pytest.raises(ValueError, match="cuts start at 0"):
            Predictor((1, 2), ({"": "1"},))
        with pytest.raises(ValueError, match="nonempty"):
            Predictor((0, 2, 2), ({"": "11"}, {}))
        p = Predictor((0, 2, 5), ({"": "11"}, {h: "000" for h in ("00", "01", "10", "11")}))
        assert p.depth == 2
        assert list(p.interval(1)) == [2, 3, 4]

    def test_predictor_totality_enforced(self):
        with pytest.raises(ValueError, match="not total"):
            Predictor((0, 1, 2), ({"": "1"}, {"0": "1"}))  # level 1 misses history "1"
        with pytest.raises(ValueError, match="length 1"):
            Predictor((0, 1, 2), ({"": "1"}, {"0": "1", "1": "00"}))
        good = Predictor((0, 1, 2), ({"": "1"}, {"0": "1", "1": "0"}))
        assert good.forecast("0", 1) == "1"

    @pytest.mark.parametrize(
        "table",
        [{"0": "1", "2": "0"}, {"0": "1", "x": "0"}, {"0": "1", "": "0"}, {"0": "1", "11": "0"}],
        ids=["digit", "letter", "short", "long"],
    )
    def test_keys_are_the_histories(self, table):
        # a key outside the histories used to pass by the table's size,
        # and predicted_element then failed with KeyError on history "1"
        with pytest.raises(ValueError, match="table 1 keys must be the 1-bit histories"):
            Predictor((0, 1, 2), ({"": "1"}, table))

    @pytest.mark.parametrize("forecast", ["2", "x", " "])
    def test_forecasts_are_bits(self, forecast):
        with pytest.raises(ValueError, match="table 0 forecasts must be bit strings of length 1"):
            Predictor((0, 1), ({"": forecast},))
        with pytest.raises(ValueError, match="table 1 forecasts must be bit strings of length 2"):
            Predictor((0, 1, 3), ({"": "1"}, {"0": "01", "1": "1" + forecast}))

    @pytest.mark.parametrize("tables", [({"": "1"},), ({"": "1"}, {"0": "1", "1": "0"}, {})])
    def test_one_table_per_interval(self, tables):
        # a missing table used to pass, and predicted_element then
        # failed with IndexError at the level without one
        with pytest.raises(ValueError, match=f"2 intervals need as many tables, got {len(tables)}"):
            Predictor((0, 1, 2), tables)

    def test_one_pivot_per_level(self):
        cert = build_adversary(identity_machine(), 4)
        with pytest.raises(ValueError, match="4 levels need as many pivots, got 2"):
            AdversaryCertificate(cert.machine_name, cert.predictor, cert.pivots[:2], 0)


class TestBuildAdversary:
    def test_identity_machine_depth_five(self):
        cert = build_adversary(identity_machine(), 5, 10**6)
        assert cert.depth == 5
        assert list(cert.pivots) == sorted(set(cert.pivots))
        assert all(a < b for a, b in zip(cert.pivots, cert.pivots[1:]))
        # predictor totality at every level
        for k, table in enumerate(cert.predictor.tables):
            assert len(table) == 2 ** cert.predictor.cuts[k]
        assert verify_certificate(cert, identity_machine()) == len(cert.facts)

    def test_identity_pivots_inside_intervals(self):
        cert = build_adversary(identity_machine(), 5)
        for k, pivot in enumerate(cert.pivots):
            assert pivot in cert.predictor.interval(k)

    def test_all_ones_machine_minimal(self):
        cert = build_adversary(constant_machine(1), 4)
        assert all(
            cert.predictor.cuts[k + 1] - cert.predictor.cuts[k] == 1
            for k in range(cert.depth)
        )
        assert verify_certificate(cert, constant_machine(1)) == len(cert.facts)

    def test_all_zeros_machine_budget_error(self):
        with pytest.raises(BudgetExhausted) as err:
            build_adversary(constant_machine(0), 2, budget=3000)
        assert err.value.level == 0

    def test_flip_machine(self):
        cert = build_adversary(flip_machine(), 4)
        assert verify_certificate(cert, flip_machine()) == len(cert.facts)

    def test_budget_is_respected(self):
        cert = build_adversary(identity_machine(), 5, 10**6)
        assert cert.queries_used <= 10**6

    def test_tampered_certificate_detected(self):
        cert = build_adversary(identity_machine(), 3)
        tampered = AdversaryCertificate(
            cert.machine_name,
            cert.predictor,
            cert.pivots[:-1] + (cert.pivots[-1] + 1,),
            cert.queries_used,
        )
        with pytest.raises(CertificateError, match="on a recorded level-2 cylinder"):
            verify_certificate(tampered, identity_machine())

    def test_partial_certificates_verify(self):
        # a budget running out while a level is padded keeps only the
        # completed levels, whose facts all verify
        partials = []
        for budget in range(1, 200):
            try:
                build_adversary(identity_machine(), 6, budget)
            except BudgetExhausted as err:
                if err.partial is not None:
                    partials.append(err.partial)
        assert partials
        for partial in partials:
            assert verify_certificate(partial, identity_machine()) == len(partial.facts)
            assert all(f.level < partial.depth for f in partial.facts)


def table_machine(seed: int, odds: int, slack: int = 3) -> FunctionMachine:
    """A random monotone machine: at m < 40 it answers once the prefix
    has reach(m) < m + slack bits, from a seeded table of those bits (1
    but for about one in ``odds``), and never decides at m >= 40."""
    rng = random.Random(seed)
    reach = [rng.randrange(m + slack) for m in range(40)]

    def rule(prefix: str, m: int) -> int | None:
        if m >= len(reach) or len(prefix) < reach[m]:
            return None
        return int(zlib.crc32(f"{seed}:{m}:{prefix[: reach[m]]}".encode()) % odds != 0)

    return FunctionMachine(f"table-{seed}", rule)


# decides 1 only on prefixes ending in 1 with an odd number of ones, so
# a decided answer does not survive zero padding
NONMONOTONE = FunctionMachine(
    "nonmonotone",
    lambda prefix, m: 1
    if m < len(prefix) and prefix.endswith("1") and prefix.count("1") % 2
    else None,
)


def outcome(engine, machine, depth: int, budget: int) -> tuple:
    """What one engine run shows: the certificate, the exhaustion or the
    fault, with the (prefix, m) queries in the order the machine saw them."""
    asked = []

    def rule(prefix: str, m: int) -> int | None:
        asked.append((prefix, m))
        return machine.query(prefix, m)

    recorder = FunctionMachine(machine.name, rule)
    try:
        cert = engine(recorder, depth, budget)
    except BudgetExhausted as exc:
        assert len(asked) <= budget
        partial = exc.partial and (exc.partial.to_json(), exc.partial.queries_used)
        return "budget", str(exc), (exc.level, exc.history, exc.pivot), partial, asked
    except CertificateError as exc:
        return "fault", str(exc), asked
    return "certificate", cert.to_json(), cert.queries_used, asked


class TestBuiltinAnswers:
    """The built-in machines against an independent spelling of their
    rules; the differential tests hand both engines the same machine,
    so a wrong bit would pass on both sides."""

    def test_bits_match_the_int_spelling(self):
        identity, flip = identity_machine(), flip_machine()
        for n in range(9):
            for prefix in map("".join, itertools.product("01", repeat=n)):
                past = [None] * (10 - n)
                assert [identity.query(prefix, m) for m in range(10)] == [
                    int(c) for c in prefix
                ] + past
                assert [flip.query(prefix, m) for m in range(10)] == [
                    1 - int(c) for c in prefix
                ] + past

    @pytest.mark.parametrize("machine", [identity_machine(), flip_machine()], ids=["identity", "flip"])
    def test_a_character_other_than_a_bit_is_named(self, machine):
        with pytest.raises(ValueError, match="'2' at 1"):
            machine.query("021", 1)


class TestEngineAgainstReference:
    """The engine's search loop against ``reference_adversary``'s one
    search call per history."""

    @given(
        st.integers(0, 2**32),
        st.sampled_from((2, 3, 4, 8)),
        # past a slack of 3 a pivot can need more bits than its search
        # allows, so the dovetail moves on to the next pivot
        st.sampled_from((3, 6)),
        st.integers(0, 6),
        st.one_of(st.integers(0, 300), st.integers(300, 3000)),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_monotone_machines(self, seed, odds, slack, depth, budget):
        machine = table_machine(seed, odds, slack)
        got = outcome(build_adversary, machine, depth, budget)
        assert got == outcome(ref.build_adversary, machine, depth, budget)
        assert got[0] in ("certificate", "budget")

    @pytest.mark.parametrize(
        "machine, depth, budget",
        [
            (identity_machine(), 7, 10**6),
            (flip_machine(), 5, 10**6),
            (constant_machine(1), 6, 10**6),
            # pivots past 6 search words longer than the engine's table
            (constant_machine(0), 1, 6000),
            (identity_machine(), 6, 100),
            (identity_machine(), 0, 0),
        ],
        ids=["identity", "flip", "ones", "zeros-long-words", "mid-level", "depth-0"],
    )
    def test_builtin_machines(self, machine, depth, budget):
        got = outcome(build_adversary, machine, depth, budget)
        assert got == outcome(ref.build_adversary, machine, depth, budget)

    @pytest.mark.parametrize(
        "machine, depth",
        [
            (identity_machine(), 4),
            (flip_machine(), 3),
            # levels that need more than one pivot attempt: pivots 0, 1, 5
            # and 3, 7
            (table_machine(0, 2, 3), 3),
            (table_machine(9, 3, 6), 2),
            # never finishes: its searches reach streamed words at pivot 7
            (constant_machine(0), 1),
        ],
        ids=["identity", "flip", "table-0", "table-9", "zeros-long-words"],
    )
    def test_every_budget_up_to_the_queries_used(self, machine, depth):
        # each budget runs out at another query, the last one not at all;
        # so somewhere in every level and attempt the engine must stop
        # asking the machine directly.  A machine that never finishes is
        # run up to 2,100 queries, past its first streamed search.
        try:
            used = build_adversary(machine, depth, 2100).queries_used
        except BudgetExhausted:
            used = None
        for budget in range(2100 if used is None else used + 2):
            got = outcome(build_adversary, machine, depth, budget)
            assert got == outcome(ref.build_adversary, machine, depth, budget), budget
            finished = used is not None and budget >= used
            assert got[0] == ("certificate" if finished else "budget")

    def test_queries_used_counts_every_answered_query(self):
        for machine in identity_machine(), flip_machine(), constant_machine(1):
            asked = []
            recorder = FunctionMachine(
                machine.name, lambda prefix, m, q=machine.query: asked.append(m) or q(prefix, m)
            )
            cert = build_adversary(recorder, 6)
            assert len(asked) == cert.queries_used, machine.name
        assert build_adversary(identity_machine(), 6).queries_used == 4 * 2**6 - 4

    def test_a_covered_attempt_bypasses_the_meter(self, monkeypatch):
        # with the default budget no depth-8 identity attempt can run
        # out, so the meter is never asked and the certificate is the
        # reference engine's
        def refuse(self, prefix, m):
            raise AssertionError("metered query on a covered attempt")

        monkeypatch.setattr(MeteredMachine, "query", refuse)
        cert = build_adversary(identity_machine(), 8)
        expected = ref.build_adversary(identity_machine(), 8)
        assert (cert.to_json(), cert.queries_used) == (expected.to_json(), expected.queries_used)

    def test_long_words_reach_past_the_table(self):
        # a machine that reads only the tenth bit makes the level-0
        # search stream words of length 9 and 10
        machine = FunctionMachine(
            "tenth-bit", lambda prefix, m: int(prefix[9]) if len(prefix) >= 10 else None
        )
        got = outcome(build_adversary, machine, 1, 10**5)
        assert got == outcome(ref.build_adversary, machine, 1, 10**5)
        assert got[0] == "certificate" and got[1]["cuts"] == [0, 10]

    def test_nonmonotone_machine_faults_in_both(self):
        got = outcome(build_adversary, NONMONOTONE, 4, 10**6)
        assert got == outcome(ref.build_adversary, NONMONOTONE, 4, 10**6)
        assert got[0] == "fault"

    @pytest.mark.parametrize("depth, budget", [(-1, 10), (3, -1)])
    def test_negative_depth_or_budget_rejected(self, depth, budget):
        with pytest.raises(ValueError):
            build_adversary(identity_machine(), depth, budget)


class TestPredictedFamilies:
    def setup_method(self):
        self.machine = identity_machine()
        self.cert = build_adversary(self.machine, 6)

    def test_predicted_element_predicts(self):
        c = predicted_element(self.cert, 2, 0, fill="1")
        cuts = self.cert.predictor.cuts
        for k in range(0, self.cert.depth, 2):
            forecast = self.cert.predictor.forecast(c[: cuts[k]], k)
            assert c[cuts[k] : cuts[k + 1]] == forecast

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
        target = pivots_only | UPSet.from_finite({self.cert.predictor.cuts[-1] + 5})
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

    @pytest.mark.parametrize("n, r", [(0, 0), (2, 2), (2, -1)], ids=["n=0", "r=n", "r<0"])
    def test_residue_class_checked(self, n, r):
        # n = 0 used to divide by zero, and r >= n to pin no pivot at all
        element = "1" * self.cert.predictor.cuts[-1]
        calls = [
            lambda: predicted_element(self.cert, n, r),
            lambda: splitter_from_free_class(self.cert, n, r, FULL),
            lambda: image_nonsplit_certificate(self.cert, self.machine, element, n, r),
            lambda: multiclass_family(self.cert, self.machine, [(n, r)]),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=r"need 0 <= r < n"):
                call()

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
    @pytest.fixture
    def spawned(self, monkeypatch) -> list:
        """The children the wire starts, in order."""
        spawned = []
        popen = subprocess.Popen

        def counting_popen(*args, **kwargs):
            spawned.append(popen(*args, **kwargs))
            return spawned[-1]

        monkeypatch.setattr(wire.subprocess, "Popen", counting_popen)
        return spawned

    def test_answers_map_through_one_table(self):
        machine = wire.subprocess_machine([sys.executable, "-S", "-c", ANSWER_PER_M_MACHINE])
        try:
            answers = [machine.query("1", m) for m in range(3)]
            assert answers == [0, 1, None]
            assert [type(a) for a in answers] == [int, int, type(None)]
            with pytest.raises(MachineBudgetError, match="external machine"):
                machine.query("1", 3)
        finally:
            machine.process.close()

    def test_exited_child_is_not_respawned(self, tmp_path, spawned):
        script = tmp_path / "once.py"
        script.write_text(ONE_SHOT_MACHINE)
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

    @pytest.mark.parametrize(
        "child, request_",
        [
            ("import sys; sys.stdin.readline(); sys.exit(7)", "QUERY - 0"),
            # exits unread, while a request larger than a pipe's buffer
            # is being written
            ("import sys; sys.exit(7)", "UPSET ε|" + "10" * 100_000),
        ],
        ids=["after-reading", "while-written"],
    )
    def test_child_exiting_during_a_request_reports_its_code(self, spawned, child, request_):
        # the first ask already names the exit code, and the second
        # starts no new child
        process = wire.LineProcess([sys.executable, "-S", "-c", child])
        try:
            for _ in range(2):
                with pytest.raises(MachineBudgetError, match=r"exited with code 7\)") as info:
                    process.ask(request_)
                # the message shows a bounded part of the request, which
                # the error keeps whole
                assert len(str(info.value)) < 1024
                assert info.value.value == request_
        finally:
            process.close()
        assert len(spawned) == 1

    def test_close_reaps_a_child_that_ignores_sigterm(self, spawned):
        # the child answers once its SIGTERM is ignored, so close() must
        # fall back to SIGKILL, and then wait for the child it killed
        child = (
            "import signal, sys\n"
            "signal.signal(signal.SIGTERM, signal.SIG_IGN)\n"
            "sys.stdin.readline()\n"
            "print('ready', flush=True)\n"
            "sys.stdin.readline()\n"
        )
        process = wire.LineProcess([sys.executable, "-S", "-c", child])
        try:
            assert process.ask("QUERY - 0") == "ready"
        finally:
            process.close()
        assert spawned[0].returncode == -signal.SIGKILL

    def test_timeout_bounds_a_partial_line(self, tmp_path):
        assert ask_twice(tmp_path, PARTIAL_LINE_MACHINE) == ["budget", "budget"]

    def test_bytes_past_the_line_answer_the_next_ask(self, tmp_path):
        assert ask_twice(tmp_path, TWO_LINE_MACHINE) == ["1", "0"]

    def test_timeout_bounds_a_request_the_child_does_not_read(self, tmp_path):
        # larger than a pipe's buffer, so writing it waits on the child
        request = "'UPSET ε|' + '10' * 100_000"
        assert ask_twice(tmp_path, DEAF_MACHINE, (request,) * 2) == ["budget", "budget"]

    def test_no_late_answer_after_a_timeout(self, tmp_path):
        # the child answers the first query after the timeout; that late
        # answer must not be taken for the answer to the second
        requests = ("'QUERY 1 0'", "'QUERY 1 1'")
        assert ask_twice(tmp_path, LATE_MACHINE, requests) == ["budget", "budget"]
