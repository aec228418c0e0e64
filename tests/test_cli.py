import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import reference_branchmap as ref
import tukeykit
from tukeykit import cli, errors
from tukeykit.adversary import _BudgetSignal
from tukeykit.apfuncs import parse_apfunc
from tukeykit.cli import main
from tukeykit.gadgets import ThreeSetsViolation
from tukeykit.upsets import EVENS, UPSet, parse_upset

PHI_CONST_EVENS = (
    "import sys\n"
    "for line in sys.stdin:\n"
    "    print('\\u03b5|10'); sys.stdout.flush()\n"
)
PSI_CONST_ZERO = (
    "import sys\n"
    "for line in sys.stdin:\n"
    "    print(';0;0'); sys.stdout.flush()\n"
)
ECHO_MAP = (
    "import sys\n"
    "for line in sys.stdin:\n"
    "    print(line.split(' ', 1)[1].strip()); sys.stdout.flush()\n"
)
GARBAGE_MAP = (
    "import sys\n"
    "for line in sys.stdin:\n"
    "    print('garbage'); sys.stdout.flush()\n"
)
IDENTITY_MACHINE = (
    "import sys\n"
    "for line in sys.stdin:\n"
    "    _, bits, m = line.split()\n"
    "    bits = '' if bits == '-' else bits\n"
    "    m = int(m)\n"
    "    print(bits[m] if m < len(bits) else 'U'); sys.stdout.flush()\n"
)
# decides 1 only on prefixes ending in 1 with an odd number of ones, so
# a decided answer does not survive zero padding
NONMONOTONE_MACHINE = (
    "import sys\n"
    "for line in sys.stdin:\n"
    "    _, bits, m = line.split()\n"
    "    bits = '' if bits == '-' else bits\n"
    "    odd = bits.endswith('1') and bits.count('1') % 2 == 1\n"
    "    print('1' if int(m) < len(bits) and odd else 'U'); sys.stdout.flush()\n"
)


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def load_schema(name: str) -> dict:
    path = resources.files("tukeykit") / "schemas" / name
    return json.loads(path.read_text())


GOLDEN = Path(__file__).parent / "golden"


# one CLI run per file under tests/golden/; each case's id is its file name
GOLDEN_CASES = [
    ("catalog.txt", ["catalog"]),
    ("catalog.json", ["catalog", "--format", "json"]),
    ("diagram_classical.txt", ["diagram", "--kind", "classical"]),
    ("diagram_classical.json", ["diagram", "--kind", "classical", "--format", "json"]),
    ("diagram_classical.dot", ["diagram", "--kind", "classical", "--format", "dot"]),
    ("diagram_borel.txt", ["diagram", "--kind", "borel"]),
    ("diagram_borel.json", ["diagram", "--kind", "borel", "--format", "json"]),
    ("diagram_borel.dot", ["diagram", "--kind", "borel", "--format", "dot"]),
    (
        "diagram_splitting_4_hasse.txt",
        ["diagram", "--kind", "splitting", "--limit", "4", "--hasse"],
    ),
    (
        "diagram_splitting_4_hasse.json",
        ["diagram", "--kind", "splitting", "--limit", "4", "--hasse", "--format", "json"],
    ),
    (
        "diagram_splitting_4_hasse.dot",
        ["diagram", "--kind", "splitting", "--limit", "4", "--hasse", "--format", "dot"],
    ),
    ("psi_0_1_N60.json", ["psi", "--f", ";0;1", "--N", "60"]),
    (
        "witnesses_0_2_count10.json",
        ["witnesses", "--fs", ";0;0", ";2;0", "--count", "10"],
    ),
    ("intersect_n1.json", ["intersect", "--n", "1", "--fs", ";0;0", "0,0,0,0;2;0"]),
    (
        "intersect_n2.json",
        ["intersect", "--n", "2", "--fs", ";0;0", "0,0;1;0", "0,0;2;1"],
    ),
    ("adversary_identity_5.json", ["adversary", "run", "--builtin", "identity", "--depth", "5"]),
    ("adversary_flip_4.json", ["adversary", "run", "--builtin", "flip", "--depth", "4"]),
]


@pytest.mark.parametrize(
    "fixture, argv", GOLDEN_CASES, ids=[fixture for fixture, _ in GOLDEN_CASES]
)
def test_output_matches_golden(capsys, fixture, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out.encode() == (GOLDEN / fixture).read_bytes()


def test_every_golden_file_is_the_fixture_of_one_case():
    fixtures = [fixture for fixture, _ in GOLDEN_CASES]
    assert sorted(fixtures) == sorted(p.name for p in GOLDEN.iterdir())


class TestEdgeVerbs:
    def test_edge_negative_exit(self, capsys):
        code, out = run_cli(capsys, "edge", "8", "3", "16", "4")
        assert code == 1
        assert "no morphism" in out

    def test_edge_positive_exit(self, capsys):
        code, out = run_cli(capsys, "edge", "14", "9", "6", "4")
        assert code == 0
        assert "morphism" in out and "8" in out

    def test_antichain(self, capsys):
        code, out = run_cli(capsys, "antichain", "8")
        assert code == 0
        assert "antichain confirmed" in out

    def test_embed(self, capsys):
        code, out = run_cli(capsys, "embed", "3,4", "3")
        assert code == 0
        code, out = run_cli(capsys, "embed", "3", "4")
        assert code == 1
        assert "4" in out

    def test_embed_names_the_specs_of_x(self, capsys):
        code, out = run_cli(capsys, "embed", "3,4", "5")
        assert code == 1
        assert out == (
            "no morphism: 5 in Y but not in X; separations via specs (2^3,3), (2^4,4)\n"
        )

    def test_embed_with_an_empty_x_names_no_separations(self, capsys):
        code, out = run_cli(capsys, "embed", "", "3")
        assert code == 1
        assert out == "no morphism: 3 in Y but not in X\n"

    @pytest.mark.parametrize("x, y", [("3", "15000"), ("15000", "3")])
    def test_embed_with_a_large_index_is_a_negative_verdict(self, capsys, x, y):
        # 2^15000 has more decimal digits than Python writes by default
        code, out = run_cli(capsys, "embed", x, y)
        assert code == 1
        assert out.endswith(f"separations via specs (2^{x},{x})\n")


class TestDiagramVerbs:
    def test_catalog_table(self, capsys):
        code, out = run_cli(capsys, "catalog")
        assert code == 0
        assert "p " in out and "r_sigma" in out

    @pytest.mark.parametrize("kind", ["classical", "borel", "splitting"])
    def test_diagram_json_schema(self, capsys, kind):
        code, out = run_cli(capsys, "diagram", "--kind", kind, "--format", "json")
        assert code == 0
        jsonschema.validate(json.loads(out), load_schema("diagram.schema.json"))

    def test_diagram_dot(self, capsys):
        code, out = run_cli(capsys, "diagram", "--kind", "classical", "--format", "dot")
        assert code == 0
        assert out.startswith("digraph") and out.rstrip().endswith("}")

    def test_determinism(self, capsys):
        _, first = run_cli(capsys, "diagram", "--kind", "borel", "--format", "json")
        _, second = run_cli(capsys, "diagram", "--kind", "borel", "--format", "json")
        assert first == second

    def test_splitting_box_digraph(self, capsys):
        code, out = run_cli(
            capsys, "diagram", "--kind", "splitting", "--limit", "3", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert "(2,1)" in data["nodes"]
        assert {"src": "(2,1)", "dst": "(1,1)", "verdict": "BT-morphism",
                "provenance": "bucket bound"} in data["edges"]
        code, out = run_cli(
            capsys, "diagram", "--kind", "splitting", "--limit", "3",
            "--format", "dot", "--hasse",
        )
        assert code == 0 and out.startswith("digraph")


class TestBranchMapVerbs:
    def test_psi(self, capsys):
        code, out = run_cli(capsys, "psi", "--f", ";0;1", "--N", "50")
        assert code == 0
        data = json.loads(out)
        assert data["bound"] == 50
        assert all(0 <= x < 50 for x in data["elements"])

    def test_psi_cost_follows_the_bound(self, capsys):
        # every value is a block of 10^7 + 1 entries; the reads build only
        # the few entries below the bound's levels
        code, out = run_cli(capsys, "psi", "--f", ";10000000;0", "--N", "10")
        assert code == 0
        f = parse_apfunc(";10000000;0")
        assert json.loads(out)["elements"] == list(ref.image_prefix(f, 10).elements)

    def test_witnesses_schema(self, capsys):
        code, out = run_cli(
            capsys, "witnesses", "--fs", ";0;0", ";2;0", "--count", "6"
        )
        assert code == 0
        data = json.loads(out)
        jsonschema.validate(data, load_schema("witnesses.schema.json"))
        assert data["count"] == 6

    def test_intersect(self, capsys):
        code, out = run_cli(capsys, "intersect", "--n", "1", "--fs", ";0;0", ";1;0")
        assert code == 0
        data = json.loads(out)
        assert data["size"] == 0

    def test_intersect_size_guard(self, capsys):
        # the branches agree to depth 20, past what the scan may walk
        zeros = ",".join(["0"] * 20)
        code = main(
            ["intersect", "--n", "2", "--fs", ";0;0", f"{zeros};1;0", f"{zeros};2;0"]
        )
        assert code == 3
        assert capsys.readouterr().err.startswith("budget:")

    def test_bound(self, capsys, tmp_path):
        obs = [{"level": 3, "nodes": [[0, 1, 0]]}]
        path = tmp_path / "obs.json"
        path.write_text(json.dumps(obs))
        code, out = run_cli(capsys, "bound", "--column", "1", "--obs", str(path))
        assert code == 0
        data = json.loads(out)
        assert data["bound"] == [0, 1, 0]
        assert data["empty"] is False

    def test_bound_on_a_long_trace(self, capsys, tmp_path):
        # one observation repeated 3,000 times forces what one copy does;
        # a search recursing once per observation overflowed the stack
        obs = {"level": 2, "nodes": [[0, 0]]}
        outputs = []
        for copies in (1, 3000):
            path = tmp_path / f"obs{copies}.json"
            path.write_text(json.dumps([obs] * copies))
            code, out = run_cli(capsys, "bound", "--column", "1", "--obs", str(path))
            assert code == 0
            outputs.append(json.loads(out))
        one, many = outputs
        assert many["bound"] == one["bound"] == [0, 0]
        assert many["chains"] == one["chains"] == 1


class TestSubprocessVerbs:
    def test_refute_external_maps(self, capsys, tmp_path):
        phi = tmp_path / "phi.py"
        phi.write_text(PHI_CONST_EVENS)
        psi = tmp_path / "psi.py"
        psi.write_text(PSI_CONST_ZERO)
        code, out = run_cli(
            capsys,
            "refute",
            "a2b",
            "--phi",
            f"{sys.executable} {phi}",
            "--psi",
            f"{sys.executable} {psi}",
        )
        assert code == 1
        data = json.loads(out)
        assert data["verified"] is True
        assert data["side"] == "E"

    # an identity push maps a centered pair onto an incomparable pair; a
    # constant push gives a chain whose intersection pulls back badly
    @pytest.mark.parametrize(
        "psi, kind", [(ECHO_MAP, "family"), (PHI_CONST_EVENS, "relation")],
        ids=["identity-push", "constant-push"],
    )
    def test_refute_p2t_clauses(self, capsys, tmp_path, psi, kind):
        phi_path = tmp_path / "phi.py"
        phi_path.write_text(PHI_CONST_EVENS)
        psi_path = tmp_path / "psi.py"
        psi_path.write_text(psi)
        code, out = run_cli(
            capsys, "refute", "p2t", "--phi", f"{sys.executable} {phi_path}",
            "--psi", f"{sys.executable} {psi_path}",
        )
        assert code == 1
        data = json.loads(out)
        assert data["violation"] == kind and data["verified"] is True
        trio = [UPSet.from_residues(3, r) for r in ({0, 1}, {1, 2}, {0, 2})]
        keys = ("pair", "images") if kind == "family" else ("common", "culprit", "pulled")
        assert set(data) == {"violation", "detail", "verified", *keys}
        parsed = {}
        for key in keys:
            literals = data[key] if kind == "family" else [data[key]]
            values = [parse_upset(text) for text in literals]
            assert [v.literal() for v in values] == literals
            parsed[key] = tuple(values) if kind == "family" else values[0]
        if kind == "family":
            assert parsed["pair"][0] in trio and parsed["pair"][1] in trio
            assert parsed["images"] == parsed["pair"]
            violation = ThreeSetsViolation("family", data["detail"], **parsed)
        else:
            assert parsed["culprit"] in trio and parsed["pulled"] == EVENS
            violation = ThreeSetsViolation("relation", data["detail"], culprit_image=EVENS, **parsed)
        assert violation.verify()

    def test_refute_cofinite_pull_is_usage_error(self, capsys, tmp_path):
        phi = tmp_path / "phi.py"
        phi.write_text(PHI_CONST_EVENS.replace("|10", "|1"))
        psi = tmp_path / "psi.py"
        psi.write_text(PSI_CONST_ZERO)
        code = main(
            ["refute", "a2b", "--phi", f"{sys.executable} {phi}",
             "--psi", f"{sys.executable} {psi}"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: pull map must land in infinite co-infinite sets\n"

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["embed", "3", "15000"], 1),
            (["antichain", "701"], 3),
            (["witnesses", "--fs", "5,0;0;1", "0,5;1;1", "--count", "2"], 3),
        ],
        ids=["embed", "antichain", "witnesses"],
    )
    def test_large_valid_input_keeps_the_exit_code_table(self, argv, code):
        # valid inputs whose answers pass a size limit end in a verdict or
        # a budget line, at Python's default int-to-str limit
        env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
        env["PYTHONPATH"] = str(Path(tukeykit.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "tukeykit", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        assert not any(line.startswith("error:") for line in proc.stderr.splitlines())
        assert proc.stderr.startswith("budget:") == (code == 3)

    def test_witnesses_past_the_int_digit_limit(self):
        # code 7,880 puts the witnesses at level 7,881, whose elements have
        # more decimal digits than Python writes by default
        env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
        env["PYTHONPATH"] = str(Path(tukeykit.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "tukeykit", "witnesses", "--fs", "5,0;0;1", "0,5;1;1", "--count", "2"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr == (
            "budget: witness 0 of column 2, at level 7881, has 9496 digits, "
            "past Python's int-to-str limit of 4300 (sys.set_int_max_str_digits)\n"
        )

    def test_refute_budget_on_a_steep_maximum(self, capsys, tmp_path):
        # the push map answers the two halves with base lengths 151 and
        # 150 at drift 3, whose maximum needs about 3.4 * 10^6 values
        phi = tmp_path / "phi.py"
        phi.write_text(PHI_CONST_EVENS)
        steep = [f";{','.join(str(3 * i) for i in reversed(range(n)))};3" for n in (151, 150)]
        psi = tmp_path / "psi.py"
        psi.write_text(
            "import itertools, sys\n"
            f"answers = itertools.cycle({steep!r})\n"
            "for line in sys.stdin:\n"
            "    print(next(answers)); sys.stdout.flush()\n"
        )
        code = main(
            ["refute", "a2b", "--phi", f"{sys.executable} {phi}",
             "--psi", f"{sys.executable} {psi}"]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("budget: pointwise_max needs a window of")

    def test_refute_garbage_answer_is_a_budget_error(self, capsys, tmp_path):
        script = tmp_path / "garbage.py"
        script.write_text(GARBAGE_MAP)
        child = f"{sys.executable} {script}"
        code = main(["refute", "a2b", "--phi", child, "--psi", child])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("budget: external map (answer does not parse) gave no answer")

    def test_adversary_external_machine(self, capsys, tmp_path):
        script = tmp_path / "machine.py"
        script.write_text(IDENTITY_MACHINE)
        code, out = run_cli(
            capsys,
            "adversary",
            "run",
            "--machine",
            f"{sys.executable} {script}",
            "--depth",
            "3",
        )
        assert code == 0
        data = json.loads(out)
        jsonschema.validate(data, load_schema("certificate.schema.json"))
        assert len(data["pivots"]) == 3

    def test_adversary_nonmonotone_machine_is_usage_error(self, capsys, tmp_path):
        script = tmp_path / "machine.py"
        script.write_text(NONMONOTONE_MACHINE)
        code = main(
            ["adversary", "run", "--machine", f"{sys.executable} {script}", "--depth", "4"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_adversary_builtin_budget_exhaustion(self, capsys):
        code = main(
            ["adversary", "run", "--builtin", "zeros", "--depth", "2", "--budget", "500"]
        )
        assert code == 3
        assert capsys.readouterr().err.startswith("budget:")

    @pytest.mark.parametrize(
        "flag, value", [("--depth", "-1"), ("--budget", "-1")], ids=["depth", "budget"]
    )
    def test_adversary_negative_depth_or_budget_is_usage_error(self, capsys, flag, value):
        code = main(["adversary", "run", "--builtin", "identity", flag, value])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_adversary_depth_zero_is_allowed(self, capsys):
        code, out = run_cli(capsys, "adversary", "run", "--builtin", "identity", "--depth", "0")
        assert code == 0
        assert json.loads(out)["cuts"] == [0]

    def test_adversary_builtin_identity(self, capsys):
        code, out = run_cli(
            capsys, "adversary", "run", "--builtin", "identity", "--depth", "4"
        )
        assert code == 0
        data = json.loads(out)
        jsonschema.validate(data, load_schema("certificate.schema.json"))


class TestNorm:
    def write_triple(self, tmp_path, data) -> str:
        path = tmp_path / "triple.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_norm_basic(self, capsys, tmp_path):
        path = self.write_triple(
            tmp_path,
            {
                "minus": ["1", "2", "3"],
                "plus": ["1", "2", "3"],
                "relation": [
                    [1, 0, 0],
                    [0, 1, 0],
                    [0, 0, 1],
                ],
            },
        )
        code, out = run_cli(capsys, "norm", "--triple", path)
        assert code == 0
        assert "norm: 3" in out

    def test_norm_infinity(self, capsys, tmp_path):
        path = self.write_triple(
            tmp_path, {"minus": ["x"], "plus": ["y"], "relation": [[0]]}
        )
        code, out = run_cli(capsys, "norm", "--triple", path)
        assert code == 1
        assert "infinity" in out

    def test_norm_with_file_property(self, capsys, tmp_path):
        path = self.write_triple(
            tmp_path,
            {
                "minus": ["1", "2"],
                "plus": ["a", "b", "c"],
                "relation": [[1, 1, 0], [0, 1, 1]],
                "allowed_families": [["a", "c"]],
            },
        )
        code, out = run_cli(capsys, "norm", "--triple", path, "--property", "from-file")
        assert code == 0
        # "b" alone would dominate but is not an allowed family
        assert "norm: 2" in out


    def test_norm_past_the_search_bound(self, capsys, tmp_path):
        plus = [str(i) for i in range(21)]
        path = self.write_triple(
            tmp_path,
            {"minus": ["x"], "plus": plus, "relation": [[0] * 21]},
        )
        code = main(["norm", "--triple", path])
        assert code == 3
        assert capsys.readouterr().err.startswith("budget:")


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv, content",
        [
            pytest.param(["norm", "--triple", "{tmp}/absent.json"], None, id="norm-no-file"),
            pytest.param(
                ["bound", "--column", "1", "--obs", "{tmp}/absent.json"],
                None,
                id="bound-no-file",
            ),
            pytest.param(
                ["norm", "--triple", "{tmp}/in.json"],
                {"minus": ["x"], "plus": ["y"]},
                id="norm-no-relation",
            ),
            pytest.param(
                ["norm", "--triple", "{tmp}/in.json"],
                {"minus": ["x"], "plus": ["y"], "relation": [["no"]]},
                id="norm-relation-string",
            ),
            pytest.param(
                ["norm", "--triple", "{tmp}/in.json"],
                {"minus": ["x"], "plus": ["y"], "relation": [[None]]},
                id="norm-relation-null",
            ),
            pytest.param(
                ["norm", "--triple", "{tmp}/in.json"],
                {"minus": ["x"], "plus": ["y"], "relation": [[2]]},
                id="norm-relation-two",
            ),
            pytest.param(
                ["norm", "--triple", "{tmp}/in.json"],
                {"minus": [["x"]], "plus": ["y"], "relation": [[1]]},
                id="norm-list-label",
            ),
            pytest.param(
                ["norm", "--triple", "{tmp}/in.json", "--property", "from-file"],
                {"minus": ["x"], "plus": ["y"], "relation": [[1]], "allowed_families": [5]},
                id="norm-family-not-a-list",
            ),
            pytest.param(
                ["norm", "--triple", "{tmp}/in.json", "--property", "from-file"],
                {"minus": ["x"], "plus": ["a", "c"], "relation": [[1, 1]],
                 "allowed_families": "ac"},
                id="norm-families-a-string",
            ),
            pytest.param(
                ["norm", "--triple", "{tmp}/in.json"],
                {"minus": [True], "plus": ["a"], "relation": [[True]]},
                id="norm-label-true",
            ),
            pytest.param(
                ["norm", "--triple", "{tmp}/in.json"],
                {"minus": ["x", "x"], "plus": ["y"], "relation": [[1], [1]]},
                id="norm-duplicate-labels",
            ),
            pytest.param(
                ["norm", "--triple", "{tmp}/in.json"],
                {"minus": ["x"], "plus": ["y", "z"], "relation": [[1]]},
                id="norm-shape",
            ),
            pytest.param(
                ["bound", "--column", "1", "--obs", "{tmp}/in.json"],
                [{"level": 3}],
                id="bound-no-nodes",
            ),
            pytest.param(
                ["bound", "--column", "1", "--obs", "{tmp}/in.json"],
                [{"level": 3, "nodes": [[0, 1, 0], [0, 1, 1]]}],
                id="bound-wrong-arity",
            ),
            pytest.param(
                ["bound", "--column", "1", "--obs", "{tmp}/in.json"],
                [{"level": 3, "nodes": [[False, True, False]]}],
                id="bound-node-true",
            ),
            pytest.param(
                ["bound", "--column", "1", "--obs", "{tmp}/in.json"],
                [],
                id="bound-empty",
            ),
            pytest.param(
                ["bound", "--column", "1", "--obs", "{tmp}/in.json"],
                [{"level": 9, "nodes": [[0, 1, 0]]}],
                id="bound-level-mismatch",
            ),
            pytest.param(
                ["bound", "--column", "1", "--obs", "{tmp}/in.json"],
                [{"level": True, "nodes": [[0, 1, 0]]}],
                id="bound-level-true",
            ),
            pytest.param(["psi", "--f", ";0;1", "--N", "-5"], None, id="psi-negative-bound"),
            pytest.param(
                ["diagram", "--kind", "splitting", "--limit", "-1"], None, id="diagram-negative-limit"
            ),
            pytest.param(
                ["witnesses", "--fs", ";0;1", "--count", "-2"], None, id="witnesses-negative-count"
            ),
            pytest.param(
                ["adversary", "run", "--machine", "/nonexistent"],
                None,
                id="adversary-no-machine",
            ),
            pytest.param(
                ["refute", "a2b", "--phi", "/nonexistent", "--psi", "/nonexistent"],
                None,
                id="refute-no-map",
            ),
        ],
    )
    def test_bad_input_is_usage_error(self, capsys, tmp_path, argv, content):
        if content is not None:
            (tmp_path / "in.json").write_text(json.dumps(content))
        code = main([arg.format(tmp=tmp_path) for arg in argv])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        if content is not None:
            assert "in.json" in err

    @pytest.mark.parametrize(
        "argv",
        [["norm", "--triple", "{path}"], ["bound", "--column", "1", "--obs", "{path}"]],
        ids=["norm", "bound"],
    )
    def test_invalid_json_names_the_file(self, capsys, tmp_path, argv):
        path = tmp_path / "broken.json"
        path.write_text('{"minus": [')
        code = main([arg.format(path=path) for arg in argv])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: Expecting value")

    @pytest.mark.parametrize("command", ["", "   "], ids=["empty", "blank"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["adversary", "run", "--depth", "2", "--machine", "{cmd}"],
            ["refute", "a2b", "--phi", "{cmd}", "--psi", "/nonexistent"],
            ["refute", "p2t", "--phi", "/nonexistent", "--psi", "{cmd}"],
        ],
        ids=["machine", "phi", "psi"],
    )
    def test_empty_command_is_usage_error(self, capsys, argv, command):
        # refused before any child starts: no traceback, no exit 1
        code = main([arg.format(cmd=command) for arg in argv])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: the external command is empty\n"

    def test_unknown_verb(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_bad_literal(self, capsys):
        assert main(["psi", "--f", "nonsense", "--N", "10"]) == 2

    def test_missing_machine(self, capsys):
        assert main(["adversary", "run", "--depth", "2"]) == 2

    def test_machine_and_builtin_together(self, capsys):
        argv = ["adversary", "run", "--machine", "/nonexistent", "--builtin", "identity"]
        assert main(argv) == 2
        assert "not allowed with" in capsys.readouterr().err


# Every exception class defined in the package, and the builtin ones main
# maps, with the exit status it takes and the start of its stderr line.
# tests/test_lint.py fails when a class defined in the package is missing.
EXIT_STATUS = [
    (ValueError("bad literal"), 2, "error:"),
    (OSError("no such file"), 2, "error:"),
    (errors.ContractBreach("value outside the carrier"), 2, "error:"),
    (errors.CertificateError("certificate failed re-verification"), 2, "error:"),
    (errors.MachineBudgetError("push map", "x"), 3, "budget:"),
    (errors.BudgetExhausted(1, "01", 4, None), 3, "budget:"),
    (errors.EnumerationBudget("size guard"), 3, "budget:"),
    (_BudgetSignal("metered machine", ("01", 4)), 3, "budget:"),
]


class TestExitStatus:
    @pytest.mark.parametrize(
        "exc, code, prefix", EXIT_STATUS, ids=[type(row[0]).__name__ for row in EXIT_STATUS]
    )
    def test_every_error_class(self, capsys, monkeypatch, exc, code, prefix):
        def handler(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_edge", handler)
        assert main(["edge", "2", "1", "2", "1"]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{prefix} {exc}\n"

    def test_a_large_request_prints_a_bounded_budget_line(self, capsys, monkeypatch):
        request = UPSet.from_residues(499 * 491, range(0, 499 * 491, 3))
        shown = repr(request)

        def handler(args):
            raise errors.MachineBudgetError("push map", request)

        monkeypatch.setattr(cli, "cmd_edge", handler)
        assert main(["edge", "2", "1", "2", "1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"budget: push map gave no answer on {shown[:100]}")
        assert err.endswith(f"... ({len(shown)} characters)\n")
        assert len(err) < 1024

    def test_other_errors_propagate(self, monkeypatch):
        def handler(args):
            raise KeyError("not an error the command line reports")

        monkeypatch.setattr(cli, "cmd_edge", handler)
        with pytest.raises(KeyError):
            main(["edge", "2", "1", "2", "1"])
