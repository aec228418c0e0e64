"""The package's public surface, and the modules each command-line verb
loads, each checked in a fresh interpreter."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import tukeykit

SRC = str(Path(tukeykit.__file__).resolve().parents[1])

# every public name of the package and the module that defines it; the
# seven submodule attributes map to None.  ``catalog`` is the catalog()
# function, not the catalog module.
ORIGIN = {
    **dict.fromkeys(
        ["adversary", "apfuncs", "branchmap", "gadgets", "splitorder", "triples", "upsets"]
    ),
    **dict.fromkeys(
        ["APFunc", "IDENTITY", "ZERO", "constant", "eventually_dominates",
         "parse_apfunc", "pointwise_max"],
        "apfuncs",
    ),
    **dict.fromkeys(
        ["Branch", "BoundCertificate", "ColumnTuple", "bound_from_trace", "branch_of",
         "common_witnesses", "exact_intersection", "image_contains", "image_prefix",
         "tuple_code", "tuple_decode", "witness_stream"],
        "branchmap",
    ),
    **dict.fromkeys(["builtin_morphisms", "catalog", "compose", "vd_diagram"], "catalog"),
    **dict.fromkeys(
        ["refute_filterclass_to_unbounded", "refute_pseudo_intersection_to_tower"], "gadgets"
    ),
    **dict.fromkeys(
        ["SplitSpec", "antichain", "bt_edge", "bucket_count", "bucket_count_by_filling",
         "min_columns_hit", "x_order"],
        "splitorder",
    ),
    **dict.fromkeys(
        ["CodedTriple", "FiniteTriple", "MorphismCandidate", "check_morphism", "dual",
         "finite_norm", "is_dominating"],
        "triples",
    ),
    **dict.fromkeys(
        ["EMPTY", "EVENS", "FULL", "ODDS", "UPSet", "almost_disjoint", "almost_subset",
         "parse_upset", "splits"],
        "upsets",
    ),
    **dict.fromkeys(
        ["AdversaryCertificate", "build_adversary", "identity_machine", "predicted_element",
         "splitter_from_free_class", "verify_certificate"],
        "adversary",
    ),
}

SURFACE = """
import importlib, json, sys
exec(sys.argv[1])
import tukeykit
listed = [n for n in dir(tukeykit) if not n.startswith("__")]
star = {}
exec("from tukeykit import *", star)
def defined(name, module):
    if module is None:
        return importlib.import_module(f"tukeykit.{name}")
    return getattr(importlib.import_module(f"tukeykit.{module}"), name)
print(json.dumps({
    "dir": listed,
    "all": sorted(getattr(tukeykit, "__all__", [])),
    "star": sorted(n for n in star if n != "__builtins__"),
    "differ": [n for n, m in json.loads(sys.argv[2]).items()
               if getattr(tukeykit, n) is not defined(n, m)],
    "catalog": type(tukeykit.catalog).__name__,
}))
"""


def fresh(script: str, *argv: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize(
    "first",
    ["", "from tukeykit.catalog import vd_diagram"],
    ids=["package-first", "catalog-module-first"],
)
def test_public_surface(first):
    seen = fresh(SURFACE, first, json.dumps(ORIGIN))
    assert len(ORIGIN) == 61
    assert seen["dir"] == sorted(ORIGIN)
    assert seen["all"] == sorted(ORIGIN)
    assert seen["star"] == sorted(ORIGIN)
    assert seen["differ"] == []
    assert seen["catalog"] == "function"


NAMESPACE = """
import json, sys
import tukeykit
bare = sorted(m for m in sys.modules if m.startswith("tukeykit."))
from tukeykit import splitorder
print(json.dumps({"bare": bare, "read": sorted(m for m in sys.modules if m.startswith("tukeykit."))}))
"""


def test_first_read_through_the_package_loads_every_submodule():
    # ``import tukeykit`` alone loads nothing; reading a public name loads
    # what the eager import used to, which perfbench/golden.py relies on
    # (it reads sys.modules["tukeykit.catalog"] after importing splitorder)
    seen = fresh(NAMESPACE)
    assert seen["bare"] == []
    assert seen["read"] == [
        f"tukeykit.{m}"
        for m in ("adversary", "apfuncs", "branchmap", "catalog", "errors",
                  "gadgets", "records", "splitorder", "triples", "upsets")
    ]


VERB = """
import contextlib, io, json, sys
from tukeykit.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps({
    "code": code,
    "modules": sorted(m.removeprefix("tukeykit.") for m in sys.modules
                      if m.startswith("tukeykit.")),
    "fractions": "fractions" in sys.modules,
    "codegen": sorted({"dataclasses", "inspect"} & set(sys.modules)),
}))
"""

SPLITTING = ["cli", "errors", "records", "splitorder"]
# answers bit m of the prefix once the prefix reaches it, as
# perfbench/children/machine.py's identity does
IDENTITY_CHILD = (
    "import sys\n"
    "for line in sys.stdin:\n"
    "    _, bits, m = line.split()\n"
    "    bits, m = bits.strip('-'), int(m)\n"
    "    print(bits[m] if m < len(bits) else 'U', flush=True)\n"
)
BRANCH_MAP = ["apfuncs", "branchmap", "cli", "errors", "records", "upsets"]
# a map child answering its one argument to every request
CONSTANT_CHILD = (
    "import sys\n"
    "for line in sys.stdin:\n"
    "    print(sys.argv[1], flush=True)\n"
)
# the gadgets read their rows' triples from the catalog; a triple's
# relation and kinds load neither the branch map nor the splitting order
REFUTE = ["apfuncs", "catalog", "cli", "errors", "gadgets", "records", "triples", "upsets",
          "wire"]


@pytest.mark.parametrize(
    "argv, code, modules, fractions",
    [
        pytest.param(["edge", "8", "3", "16", "4"], 1, SPLITTING, False, id="edge"),
        pytest.param(["embed", "3,4", "3"], 0, SPLITTING, None, id="embed"),
        pytest.param(["antichain", "5"], 0, SPLITTING, None, id="antichain"),
        pytest.param(["psi", "--f", ";0;1", "--N", "60"], 0, BRANCH_MAP, False, id="psi"),
        pytest.param(
            ["witnesses", "--fs", ";0;0", ";2;0", "--count", "4"], 0, BRANCH_MAP, None,
            id="witnesses",
        ),
        pytest.param(
            ["intersect", "--n", "1", "--fs", ";0;0", ";1;0"], 0, BRANCH_MAP, None,
            id="intersect",
        ),
        pytest.param(
            ["bound", "--column", "1", "--obs", "{tmp}/obs.json"], 0, BRANCH_MAP, None,
            id="bound",
        ),
        pytest.param(
            ["adversary", "run", "--builtin", "identity", "--depth", "3"], 0,
            ["adversary", "cli", "errors", "records"], None, id="adversary",
        ),
        pytest.param(
            ["adversary", "run", "--machine",
             shlex.join([sys.executable, "-S", "-c", IDENTITY_CHILD]), "--depth", "3"],
            0, ["adversary", "cli", "errors", "records", "wire"], None, id="adversary-machine",
        ),
        pytest.param(
            # the pull answers the evens, the push the zero function
            ["refute", "a2b",
             "--phi", shlex.join([sys.executable, "-S", "-c", CONSTANT_CHILD, "|10"]),
             "--psi", shlex.join([sys.executable, "-S", "-c", CONSTANT_CHILD, ";0;0"])],
            1, REFUTE, None, id="refute-a2b",
        ),
        pytest.param(["edge", "8", "3"], 2, ["cli"], False, id="usage-error"),
        pytest.param(
            ["adversary", "run", "--depth", "3"], 2, ["cli"], None, id="adversary-usage-error"
        ),
    ],
)
def test_verb_loads_only_its_modules(tmp_path, argv, code, modules, fractions):
    (tmp_path / "obs.json").write_text(json.dumps([{"level": 3, "nodes": [[0, 1, 0]]}]))
    seen = fresh(VERB, json.dumps([arg.format(tmp=tmp_path) for arg in argv]))
    assert seen["code"] == code
    assert seen["modules"] == modules
    # records are plain classes: no verb pays for dataclass code generation
    assert seen["codegen"] == []
    if fractions is not None:
        assert seen["fractions"] is fractions
