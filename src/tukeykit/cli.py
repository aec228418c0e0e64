"""Command line surface.

Exit codes: 0 success (or positive verdict), 1 negative mathematical
verdict or certified violation, 2 usage error, 3 budget or resource
exhaustion; ``errors`` says which error takes which code.

Each handler imports what it runs from the submodules themselves, never
through the package namespace (whose first read loads every submodule),
so a verb loads only its own modules.
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys
from importlib import import_module

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _emit(data) -> None:
    print(json.dumps(data, indent=2, sort_keys=False))


def cmd_catalog(args) -> int:
    from .catalog import catalog

    cat = catalog()
    if args.format == "json":
        _emit(
            [
                {
                    "id": t.name,
                    "minus": t.minus.name,
                    "plus": t.plus.name,
                    "relation": t.relation_name,
                    "property": t.property.name if t.property else None,
                    "property_note": t.property.note if t.property else None,
                }
                for t in cat.values()
            ]
        )
        return EXIT_OK
    for t in cat.values():
        prop = f"  [{t.property.name}]" if t.property else ""
        print(f"{t.name:10s} {t.minus.name:14s} {t.plus.name:12s} {t.relation_name}{prop}")
    return EXIT_OK


def cmd_diagram(args) -> int:
    if args.kind == "splitting":
        from .splitorder import order_diagram

        d = order_diagram(args.limit, hasse=args.hasse)
    else:
        from .catalog import vd_diagram

        d = vd_diagram(args.kind)
    if args.format == "dot":
        print(d.to_dot())
    elif args.format == "json":
        _emit(d.to_json())
    elif args.kind == "splitting":
        for e in d.edges:
            print(f"{e.source} -> {e.target}")
    else:
        for e in d.edges:
            print(f"{e.source:3s} -> {e.target:3s}  {e.verdict:18s} {e.provenance}")
    return EXIT_OK


def cmd_edge(args) -> int:
    from .splitorder import SplitSpec, bt_edge

    verdict = bt_edge(SplitSpec(args.n, args.m), SplitSpec(args.n2, args.m2))
    print(verdict.describe())
    return EXIT_OK if verdict.morphism else EXIT_NEGATIVE


def cmd_antichain(args) -> int:
    from .splitorder import antichain

    report = antichain(args.top)
    for (m, m2), (fwd, back) in zip(report.pairs, report.verdicts):
        print(
            f"(2^{m},{m}) vs (2^{m2},{m2}): "
            f"forward {fwd.reason}, backward {back.reason} (lhs {back.lhs})"
        )
    # antichain() raises CertificateError on any comparable pair
    print(f"antichain confirmed for indices 3..{report.top}")
    return EXIT_OK


def _parse_index_set(text: str) -> list[int]:
    if not text.strip():
        return []
    return [int(v) for v in text.split(",")]


def cmd_embed(args) -> int:
    from .splitorder import x_order

    verdict = x_order(_parse_index_set(args.x), _parse_index_set(args.y))
    if verdict.morphism:
        print(f"morphism: {sorted(verdict.x)} contains {sorted(verdict.y)}")
        return EXIT_OK
    print(
        f"no morphism: {verdict.missing} in Y but not in X; "
        f"separations via specs "
        # exponent form: 2^m in decimal can pass Python's int-to-str limit
        + ", ".join(f"(2^{m},{m})" for m in sorted(verdict.x))
    )
    return EXIT_NEGATIVE


def cmd_psi(args) -> int:
    from .apfuncs import parse_apfunc
    from .branchmap import image_prefix

    f = parse_apfunc(args.f)
    result = image_prefix(f, args.N)
    _emit(
        {
            "function": f.literal(),
            "bound": result.bound,
            "depth_used": result.depth_used,
            "elements": list(result.elements),
        }
    )
    return EXIT_OK


def cmd_witnesses(args) -> int:
    from .apfuncs import parse_apfunc
    from .branchmap import common_witnesses

    fs = [parse_apfunc(text) for text in args.fs]
    found = common_witnesses(fs, args.count)
    # JSON writes each element in decimal, and Python refuses to write an
    # int of more digits than its limit (0, or an interpreter older than
    # 3.10.7 without the function, means no limit)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    for k, (x, t) in enumerate(zip(found.elements, found.tuples)):
        if limit and (digits := _decimal_digits(x)) > limit:
            print(
                f"budget: witness {k} of column {found.column}, at level {t.level}, "
                f"has {digits} digits, past Python's int-to-str limit of {limit} "
                "(sys.set_int_max_str_digits)",
                file=sys.stderr,
            )
            return EXIT_BUDGET
    _emit(
        {
            "column": found.column,
            "count": len(found.elements),
            "elements": list(found.elements),
            "tuples": [t.to_json() for t in found.tuples],
        }
    )
    return EXIT_OK


def _decimal_digits(x: int) -> int:
    """The number of decimal digits of a natural, estimated from its bit
    length and settled against powers of ten, without writing it out."""
    digits = int((x.bit_length() - 1) * 0.30102999566398120) + 1  # log10(2)
    while x >= 10**digits:
        digits += 1
    while digits > 1 and x < 10 ** (digits - 1):
        digits -= 1
    return digits


def cmd_intersect(args) -> int:
    from .apfuncs import parse_apfunc
    from .branchmap import branch_of, exact_intersection

    fs = [parse_apfunc(text) for text in args.fs]
    branches = [branch_of(f, args.n) for f in fs]
    result = exact_intersection(args.n, branches)
    _emit(
        {
            "column": result.column,
            "separation_level": result.separation_level,
            "size": result.size,
            "tuples": [t.to_json() for t in result.tuples],
        }
    )
    return EXIT_OK


def _load_json(path: str):
    """The JSON value in the file at ``path``; a parse error names the file."""
    with open(path) as handle:
        try:
            return json.load(handle)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def _load_observations(path: str, column: int) -> list:
    from .branchmap import ColumnTuple

    data = _load_json(path)
    if not isinstance(data, list):
        raise ValueError(f"{path}: expected a JSON list of {{level, nodes}} tuples")
    if not data:
        raise ValueError(f"{path}: need at least one observation")
    observed = []
    for i, item in enumerate(data):
        nodes = item.get("nodes") if isinstance(item, dict) else None
        # a JSON true or false is a bool, which Python counts as an int
        if not isinstance(nodes, list) or not all(
            isinstance(node, list)
            and all(isinstance(v, int) and not isinstance(v, bool) for v in node)
            for node in nodes
        ):
            raise ValueError(
                f"{path}: observation {i} needs 'nodes', a list of integer lists"
            )
        level = item.get("level")
        if "level" in item and (
            type(level) is not int or any(len(node) != level for node in nodes)
        ):
            raise ValueError(
                f"{path}: observation {i} has 'level' {json.dumps(level)}, "
                "not the length of its nodes"
            )
        try:
            observed.append(ColumnTuple(column, tuple(tuple(n) for n in nodes)))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    return observed


def cmd_bound(args) -> int:
    from .branchmap import bound_from_trace

    observed = _load_observations(args.obs, args.column)
    cert = bound_from_trace(args.column, observed)
    _emit(
        {
            "column": cert.column,
            "empty": cert.empty,
            "bound": list(cert.bound),
            "chains": cert.chains,
            "constraints": [t.to_json() for t in cert.constraints],
        }
    )
    return EXIT_OK


def cmd_refute(args) -> int:
    from .gadgets import refute_filterclass_to_unbounded, refute_pseudo_intersection_to_tower
    from .triples import MorphismCandidate
    from .wire import subprocess_map

    pull = subprocess_map(shlex.split(args.phi))
    push = subprocess_map(shlex.split(args.psi))
    candidate = MorphismCandidate(pull=pull, push=push, name="external candidate")
    try:
        if args.gadget == "a2b":
            violation = refute_filterclass_to_unbounded(candidate)
            _emit(
                {
                    "violation": "relation",
                    "combined": violation.combined.literal(),
                    "side": violation.side_name,
                    "pulled": violation.pulled.literal(),
                    "pushed_side": violation.pushed_side.literal(),
                    "verified": violation.verify(),
                }
            )
        else:
            violation = refute_pseudo_intersection_to_tower(candidate)
            out = {"violation": violation.kind, "detail": violation.detail,
                   "verified": violation.verify()}
            if violation.kind == "family":
                out["pair"] = [s.literal() for s in violation.pair]
                out["images"] = [s.literal() for s in violation.images]
            else:
                out["common"] = violation.common.literal()
                out["culprit"] = violation.culprit.literal()
                out["pulled"] = violation.pulled.literal()
            _emit(out)
    finally:
        pull.process.close()
        push.process.close()
    return EXIT_NEGATIVE  # a certified violation is the negative verdict


# --builtin name -> the ``adversary`` factory and its arguments
BUILTIN_MACHINES = {
    "identity": ("identity_machine",),
    "ones": ("constant_machine", 1),
    "zeros": ("constant_machine", 0),
    "flip": ("flip_machine",),
}


def cmd_adversary(args) -> int:
    adversary = import_module(".adversary", __package__)
    if args.builtin:
        factory, *factory_args = BUILTIN_MACHINES[args.builtin]
        machine = getattr(adversary, factory)(*factory_args)
    else:
        from .wire import subprocess_machine

        machine = subprocess_machine(shlex.split(args.machine))
    try:
        cert = adversary.build_adversary(machine, args.depth, args.budget)
    finally:
        if args.machine:
            machine.process.close()
    _emit(cert.to_json())
    return EXIT_OK


def _labels(values: object) -> bool:
    # a JSON true or false is a bool, which Python counts as an int
    return isinstance(values, list) and all(
        isinstance(v, (str, int, float)) and not isinstance(v, bool) for v in values
    )


def _load_finite_triple(path: str) -> tuple:
    from .triples import FiniteTriple

    data = _load_json(path)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    for key in ("minus", "plus", "relation"):
        if not isinstance(data.get(key), list):
            raise ValueError(f"{path}: the finite triple needs a {key!r} list")
    if not all(isinstance(row, list) for row in data["relation"]):
        raise ValueError(f"{path}: each 'relation' row must be a list")
    if not all(isinstance(v, int) and v in (0, 1) for row in data["relation"] for v in row):
        raise ValueError(f"{path}: 'relation' entries must be true, false, 0 or 1")
    if not _labels(data["minus"] + data["plus"]):
        raise ValueError(f"{path}: labels must be strings or numbers")
    try:
        t = FiniteTriple(data["minus"], data["plus"], data["relation"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    prop = None
    if "allowed_families" in data:
        families = data["allowed_families"]
        if not isinstance(families, list) or not all(map(_labels, families)):
            raise ValueError(f"{path}: 'allowed_families' must be a list of label lists")
        allowed = [frozenset(f) for f in families]

        def prop(family, _allowed=allowed):  # noqa: ANN001
            return any(frozenset(family) <= a for a in _allowed)

    return t, prop


def cmd_norm(args) -> int:
    from .triples import finite_norm

    t, file_prop = _load_finite_triple(args.triple)
    value = finite_norm(t, file_prop if args.property == "from-file" else None)
    if value is None:
        print("norm: infinity (no dominating family)")
        return EXIT_NEGATIVE
    print(f"norm: {value}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tukeykit",
        description="Exact desk-scale calculus for morphisms between "
        "cardinal-invariant triples.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("catalog", help="list the coded triples")
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(fn=cmd_catalog)

    p = sub.add_parser("diagram", help="comparison diagrams")
    p.add_argument(
        "--kind", choices=["classical", "borel", "splitting"], required=True
    )
    p.add_argument("--format", choices=["table", "dot", "json"], default="table")
    p.add_argument("--limit", type=int, default=4, help="box bound for --kind splitting")
    p.add_argument("--hasse", action="store_true", help="transitive reduction")
    p.set_defaults(fn=cmd_diagram)

    p = sub.add_parser("edge", help="order verdict between two splitting specs")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("n2", type=int)
    p.add_argument("m2", type=int)
    p.set_defaults(fn=cmd_edge)

    p = sub.add_parser("antichain", help="verify the power-of-two antichain")
    p.add_argument("top", type=int)
    p.set_defaults(fn=cmd_antichain)

    p = sub.add_parser("embed", help="index-set order verdict")
    p.add_argument("x", help="comma separated indices, e.g. 3,4")
    p.add_argument("y")
    p.set_defaults(fn=cmd_embed)

    p = sub.add_parser("psi", help="glued image of a function below a bound")
    p.add_argument("--f", required=True, help="APFunc literal, e.g. ';0;1'")
    p.add_argument("--N", type=int, required=True)
    p.set_defaults(fn=cmd_psi)

    p = sub.add_parser("witnesses", help="common image elements of several functions")
    p.add_argument("--fs", nargs="+", required=True)
    p.add_argument("--count", type=int, default=10)
    p.set_defaults(fn=cmd_witnesses)

    p = sub.add_parser("intersect", help="exact finite column intersection")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--fs", nargs="+", required=True)
    p.set_defaults(fn=cmd_intersect)

    p = sub.add_parser("bound", help="bound certificate from observed tuples")
    p.add_argument("--column", type=int, required=True)
    p.add_argument("--obs", required=True, help="JSON file of {level, nodes} tuples")
    p.set_defaults(fn=cmd_bound)

    p = sub.add_parser("refute", help="run a refutation gadget on external maps")
    p.add_argument("gadget", choices=["a2b", "p2t"])
    p.add_argument("--phi", required=True, help="pull map command (shell quoted)")
    p.add_argument("--psi", required=True, help="push map command (shell quoted)")
    p.set_defaults(fn=cmd_refute)

    p = sub.add_parser("adversary", help="build a predictor against a machine")
    adv_sub = p.add_subparsers(dest="subverb", required=True)
    run = adv_sub.add_parser("run")
    source = run.add_mutually_exclusive_group(required=True)
    source.add_argument("--machine", help="external machine command (shell quoted)")
    source.add_argument("--builtin", choices=sorted(BUILTIN_MACHINES))
    run.add_argument("--depth", type=int, default=5)
    run.add_argument("--budget", type=int, default=10**6)
    run.set_defaults(fn=cmd_adversary)

    p = sub.add_parser("norm", help="exact norm of a finite triple from JSON")
    p.add_argument("--triple", required=True)
    p.add_argument("--property", choices=("none", "from-file"), default="none")
    p.set_defaults(fn=cmd_norm)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except Exception as exc:
        # imported here, so that parsing the arguments loads no other module
        from .errors import BUDGET_ERRORS, USAGE_ERRORS

        if isinstance(exc, USAGE_ERRORS):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if isinstance(exc, BUDGET_ERRORS):
            print(f"budget: {exc}", file=sys.stderr)
            return EXIT_BUDGET
        raise


if __name__ == "__main__":
    raise SystemExit(main())
