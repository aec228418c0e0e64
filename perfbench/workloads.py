"""Seeded workloads of the tukeykit benchmark.

Each workload function turns a seed into one pass: a fixed list of queries, each a
call into tukeykit paired with a check of its answer against an
independent oracle (``oracles.py``) or a golden digest (``golden.json``).
The schedule fixes what sets a query's cost (sizes, periods, columns,
depths); the seed only draws the values, so a pass costs about the same
on every seed.  Queries call tukeykit through module attributes at call
time, so the tracer's patched names are the ones that run.
"""

from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
import time
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import oracles as O
from golden import digest

HERE = Path(__file__).resolve().parent


@dataclass
class Query:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


@dataclass
class Env:
    """Where the program lives, its golden digests, and a log of every
    CLI child the benchmark started: (verb, seconds, exit code as
    expected)."""

    root: Path
    golden: dict
    cli_log: list = field(default_factory=list)

    def child(self, script: str, *args: str) -> list[str]:
        return [sys.executable, "-S", str(HERE / "children" / script), *args]

    def child_line(self, script: str, *args: str) -> str:
        return shlex.join(self.child(script, *args))

    def cli(self, argv: list[str], expect: set[int]) -> tuple[int, str]:
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "tukeykit", *argv],
            cwd=self.root, env=env, capture_output=True, text=True, timeout=60,
        )
        self.cli_log.append((argv[0], time.perf_counter() - start, proc.returncode in expect))
        return proc.returncode, proc.stdout

    def schema_ok(self, name: str, data) -> bool:
        import jsonschema

        path = self.root / "src" / "tukeykit" / "schemas" / name
        jsonschema.validate(data, json.loads(path.read_text()))
        return True


def small_func(rng, ap):
    """Two prefix values, then a two-value block rising by 2 per pass:
    slope 1 like the identity.  The slope sets how many values a branch
    restriction reads, so it is fixed to keep one cost class."""
    return ap.APFunc(
        tuple(rng.randrange(2) for _ in range(2)),
        tuple(rng.randrange(3) for _ in range(2)),
        2,
    )


def zero_headed(rng, ap, head: int):
    """First ``head`` values 0, keeping column-``head`` codes small."""
    tail = tuple(rng.randrange(3) for _ in range(rng.randrange(1, 3)))
    return ap.APFunc((0,) * head + tail, (rng.randrange(3),), rng.randrange(2))


def distinct(make, count: int) -> list:
    out: list = []
    while len(out) < count:
        f = make()
        if f not in out:
            out.append(f)
    return out


def random_set(rng, us, period: int, prefix: bool = True):
    """Random bits over a prime period, never constant, after a random
    prefix of up to 7 bits when ``prefix`` is set."""
    bits = [rng.randrange(2) for _ in range(period)]
    bits[0], bits[1] = 1, 0
    rng.shuffle(bits)
    head = tuple(rng.randrange(2) for _ in range(rng.randrange(8))) if prefix else ()
    return us.UPSet(head, tuple(bits))


def ic_set(rng, us):
    mod = rng.randrange(3, 10)
    residues = rng.sample(range(mod), rng.randrange(1, mod))
    return us.UPSet.from_residues(mod, residues)


# -- glued: reading the branch map's image and building its tuples ---------

# five N=1000 reads make the top twentieth of a pass one cost class, so
# query_p95_ms does not sit on the edge between two classes
IMAGE_PREFIX_SIZES = ((500, 2), (1000, 5), (2000, 1))
CONTAINS_COLUMNS = 450
CONTAINS_QUERIES = 24
# sixteen more reads at one column, so that query_p50_ms sits inside one
# cost class (a column's reads cost the same to within a few percent)
MEDIAN_COLUMN, MEDIAN_READS = 150, 16
# (column, separation level) of each exact-intersection query; the scan
# below the separation level sets the cost
INTERSECTION_SHAPES = ((1, 3), (1, 4), (2, 4), (2, 5), (3, 6))
# The small queries (witnesses, intersections, missing elements, trace
# bounds) and the reads below column 150 are 29 of a pass's 69 queries,
# so query_p50_ms falls among the reads at MEDIAN_COLUMN, whose cost is
# well above every small query's: no seed moves a query across the median.


def glued(rng, tk, env):
    bm, ap, us, cat = tk.branchmap, tk.apfuncs, tk.upsets, tk.catalog
    q: list[Query] = []
    for size, copies in IMAGE_PREFIX_SIZES:
        for _ in range(copies):
            f = small_func(rng, ap)
            q.append(Query(
                f"image_prefix.N{size}",
                lambda f=f, n=size: bm.image_prefix(f, n),
                lambda r, f=f, n=size: r.bound == n and O.image_prefix_ok(r.elements, f, n),
            ))
    columns = [1 + CONTAINS_COLUMNS * i // CONTAINS_QUERIES for i in range(CONTAINS_QUERIES)]
    for col in columns + [MEDIAN_COLUMN] * MEDIAN_READS:
        # the decode cost grows with the square of the column, so the
        # column is fixed and only the row is seeded
        x = O.pair(col, rng.randrange(max(1, 447 - col)))
        f = small_func(rng, ap)
        q.append(Query(
            "image_contains",
            lambda f=f, x=x: bm.image_contains(f, x),
            lambda r, f=f, x=x: r == O.in_image(f, x),
        ))
    for n in range(1, 5):
        # common_witnesses routes n distinct functions to column n;
        # witness_stream pads fewer branches than columns
        fs = distinct(lambda: zero_headed(rng, ap, n), n)
        q.append(Query(
            "common_witnesses",
            lambda fs=fs: bm.common_witnesses(fs, 8),
            lambda r, fs=fs, n=n: r.column == n and O.witnesses_ok(r.tuples, fs, 8)
            and list(r.elements) == [O.pair(n, O.tuple_index_of(t.nodes)) for t in r.tuples]
            and all(O.in_image(f, x) for f in fs for x in r.elements),
        ))
        fs = distinct(lambda: zero_headed(rng, ap, n), max(1, n - 1))
        q.append(Query(
            "witness_stream",
            lambda fs=fs, n=n: bm.witness_stream(n, [bm.branch_of(f, n) for f in fs], 25),
            lambda r, fs=fs: O.witnesses_ok(r, fs, 25),
        ))
    for n, sep in INTERSECTION_SHAPES:
        fs = distinct(lambda: zero_headed(rng, ap, n), n + 1)
        while O.separation_level(fs, n) != sep:
            fs = distinct(lambda: zero_headed(rng, ap, n), n + 1)
        q.append(Query(
            "exact_intersection",
            lambda fs=fs, n=n: bm.exact_intersection(n, [bm.branch_of(f, n) for f in fs]),
            lambda r, fs=fs, n=n: O.exact_intersection_ok(r, fs, n),
        ))
    for _ in range(4):
        f, a = small_func(rng, ap), ic_set(rng, us)
        q.append(Query(
            "missing_elements",
            lambda f=f, a=a: cat.GluedImage(f).missing_elements(a, 5),
            lambda r, f=f, a=a: O.missing_ok(r, f, a, 5),
        ))
    for i in range(4):
        n = 1 + i % 3
        observed = [
            bm.ColumnTuple(n, tuple(O.tuple_nodes(n, rng.randrange(400))))
            for _ in range(2 + i % 3)
        ]
        q.append(Query(
            "bound_from_trace",
            lambda n=n, obs=observed: bm.bound_from_trace(n, obs),
            lambda r, obs=observed: O.bound_ok(r, obs),
        ))
    f = small_func(rng, ap)
    warmup = [
        Query("warmup", lambda: bm.image_prefix(f, 150), bool),
        Query("warmup", lambda: bm.image_contains(f, O.pair(40, 3)), bool),
        Query("warmup", lambda: bm.common_witnesses([ap.IDENTITY], 2), bool),
    ]
    return q, warmup


# -- periodic: UPSet and APFunc at large coprime periods ---------------------

# (query, period of a, period of b): lcm from about 10^4 to 2.5 * 10^5.
# The bits are seeded, the periods not.  Six queries that always walk
# the whole lcm (and, or, minus) share the largest one, so the top
# twentieth of a pass sits inside one cost class; the relation queries
# there may stop early, below it.
SET_QUERIES = (
    ("and", 101, 103), ("almost_subset", 101, 103),
    ("or", 127, 131), ("splits", 127, 131),
    ("minus", 167, 163), ("almost_disjoint", 167, 163),
    ("and", 211, 199), ("splits", 211, 199),
    ("or", 263, 257), ("almost_subset", 263, 257),
    ("minus", 317, 313), ("almost_disjoint", 317, 313),
    ("and", 401, 397), ("almost_subset", 401, 397),
    ("and", 499, 491), ("or", 499, 491), ("minus", 499, 491),
    ("and", 499, 491), ("or", 499, 491), ("minus", 499, 491),
    ("almost_subset", 499, 491), ("almost_disjoint", 499, 491),
)
# Twenty-four intersections at lcm 7387, without prefixes, cost the same
# to within about 10%: less than every set query above and more than most
# slice and APFunc queries.  About 21 queries of a pass cost less and 31
# more, so query_p50_ms falls at about two thirds of this class.
MEDIAN_SET, MEDIAN_COPIES = (89, 83), 24
FAMILY_PERIODS = ((101, 103), (127, 131), (167, 163))
SLICES = ((101, 7), (211, 13), (317, 29), (499, 41))
BLOCK_LENGTHS = ((13, 11), (17, 19), (31, 29), (37, 41), (53, 47))

VARIED_LCM = 30000


def varied(rng, lcm, true_case, false_case, plain):
    """The second set of a relation query.  Two random sets at coprime
    periods are never almost included in or almost disjoint from each
    other, so at small lcm the verdict is varied by building a set of
    the same period whose verdict is true or false by construction.  At
    large lcm that build would dominate set-up, so the plain set is used."""
    if lcm > VARIED_LCM:
        return plain
    return (true_case if rng.randrange(2) else false_case)()


OPS = {
    "and": (lambda a, b: a & b, lambda x, y: x & y),
    "or": (lambda a, b: a | b, lambda x, y: x | y),
    "minus": (lambda a, b: a - b, lambda x, y: x & (1 - y)),
}


def periodic(rng, tk, env):
    us, ap = tk.upsets, tk.apfuncs
    q: list[Query] = []
    for name, p, r in SET_QUERIES:
        # at large lcm a prefix would make the canonical form rotate
        # lcm-long tuples a seeded number of times, moving the peak memory
        small = p * r <= VARIED_LCM
        a, c = random_set(rng, us, p, small), random_set(rng, us, r, small)
        if name in OPS:
            op, bit_op = OPS[name]
            q.append(Query(
                f"upset.{name}",
                lambda a=a, b=c, op=op: op(a, b),
                lambda res, a=a, b=c, bit_op=bit_op: O.combine_ok(res, a, b, bit_op),
            ))
        elif name == "almost_subset":
            other = varied(rng, p * r, lambda: a | c, lambda: c | random_set(rng, us, p), c)
            q.append(Query("almost_subset", lambda a=a, o=other: us.almost_subset(a, o),
                           lambda res, a=a, o=other: res == O.almost_subset(a, o)))
        elif name == "almost_disjoint":
            other = varied(rng, p * r, lambda: c - a, lambda: c - random_set(rng, us, p), c)
            q.append(Query("almost_disjoint", lambda a=a, o=other: us.almost_disjoint(a, o),
                           lambda res, a=a, o=other: res == O.almost_disjoint(a, o)))
        else:
            q.append(Query("splits", lambda a=a, c=c: us.splits(c, a),
                           lambda res, a=a, c=c: res == O.splits(c, a)))
    for _ in range(MEDIAN_COPIES):
        a, c = (random_set(rng, us, period, False) for period in MEDIAN_SET)
        q.append(Query("upset.and", lambda a=a, b=c: a & b,
                       lambda res, a=a, b=c: O.combine_ok(res, a, b, OPS["and"][1])))
    for p, r in FAMILY_PERIODS:
        s, t, u = random_set(rng, us, p), random_set(rng, us, r), random_set(rng, us, p)
        chain = [s, s & t, (s & t) & u]
        q.append(Query("is_linearly_ordered", lambda fam=chain: us.is_linearly_ordered(fam),
                       lambda res, fam=chain: res == O.linearly_ordered(fam)))
        q.append(Query("is_centered", lambda fam=[s, t, u]: us.is_centered(fam),
                       lambda res, fam=[s, t, u]: res == O.centered(fam)))
    for d, t in SLICES:
        b, j = random_set(rng, us, d), rng.randrange(t)
        q.append(Query("slice_by_index", lambda b=b, t=t, j=j: us.slice_by_index(b, t, j),
                       lambda res, b=b, t=t, j=j: O.slice_ok(res, b, t, j)))
    for p, r in BLOCK_LENGTHS:
        slope = rng.randrange(1, 3)

        def func(length, s):
            return ap.APFunc(tuple(rng.randrange(10) for _ in range(3)),
                             tuple(rng.randrange(20) for _ in range(length)), length * s)

        f, g = func(p, slope), func(r, slope)
        q.append(Query("eventually_dominates", lambda f=f, g=g: ap.eventually_dominates(f, g),
                       lambda res, f=f, g=g: res == O.eventually_dominates(f, g)))
        q.append(Query("pointwise_max", lambda f=f, g=g: ap.pointwise_max(f, g),
                       lambda res, f=f, g=g: O.pointwise_max_ok(res, f, g)))
        steep = func(p, slope + 1)
        q.append(Query("pointwise_max", lambda f=steep, g=g: ap.pointwise_max(f, g),
                       lambda res, f=steep, g=g: O.pointwise_max_ok(res, f, g)))
        # g follows f for a seeded stretch, then runs its own block
        agree = rng.randrange(200, 400)
        h = ap.APFunc(tuple(O.value(f, k) for k in range(agree)), g.base, g.drift)
        q.append(Query("first_difference", lambda f=f, h=h: ap.first_difference(f, h),
                       lambda res, f=f, h=h: O.first_difference_ok(res, f, h)))
    a, b = random_set(rng, us, 7), random_set(rng, us, 5)
    warmup = [
        Query("warmup", lambda: a & b, bool),
        Query("warmup", lambda: us.almost_subset(a, b), bool),
        Query("warmup", lambda: ap.pointwise_max(ap.IDENTITY, ap.constant(3)), bool),
    ]
    return q, warmup


# -- desk: many small verdicts at fixed sizes ---------------------------------

DIGRAPH_LIMITS = (4, 5, 6)
# Shares of a pass that keep both percentiles inside one cost class:
# bt_edge verdicts are about three quarters of a pass, so query_p50_ms
# falls near the middle of the cheapest verdict's times, its fixed
# per-call cost, not in their tail; sixteen depth-10 adversary builds
# follow the b->p probe check at the top, so query_p95_ms is theirs.
BT_EDGES = 150
ADVERSARY_DEPTHS = (8, 9) + (10,) * 16


def desk(rng, tk, env):
    cat, so, tr, ga, adv, us, ap = (
        tk.catalog, tk.splitorder, tk.triples, tk.gadgets, tk.adversary, tk.upsets, tk.apfuncs,
    )
    golden = env.golden
    q: list[Query] = []
    for entry in cat.builtin_morphisms():
        key = f"{entry.source}->{entry.target}"
        q.append(Query("default_probe_check", lambda e=entry: cat.default_probe_check(e),
                       lambda r, key=key: digest(repr(r)) == golden["probe_check"][key]))
    for kind in ("classical", "borel"):
        q.append(Query("vd_diagram", lambda kind=kind: cat.vd_diagram(kind),
                       lambda r, kind=kind: env.schema_ok("diagram.schema.json", r.to_json())
                       and digest(r.to_json()) == golden["vd_diagram"][kind]))
    for limit in DIGRAPH_LIMITS:
        q.append(Query("order_digraph", lambda n=limit: so.order_digraph(n, hasse=True),
                       lambda r, n=limit: digest(repr(r)) == golden["order_digraph"][str(n)]))
    # m >= m2 keeps every verdict on the bucket-count path instead of the
    # early m-increase exit
    for _ in range(BT_EDGES):
        n, n2 = rng.randrange(2, 41), rng.randrange(2, 41)
        m2 = rng.randrange(1, min(n, n2) + 1)
        m = rng.randrange(m2, n + 1)
        q.append(Query("bt_edge", lambda a=(n, m), b=(n2, m2): so.bt_edge(so.SplitSpec(*a), so.SplitSpec(*b)),
                       lambda r, s=(n, m, n2, m2): r.morphism == O.bucket_edge(*s)))
    for _ in range(2):
        top = rng.randrange(6, 10)
        q.append(Query("antichain", lambda t=top: so.antichain(t),
                       lambda r, t=top: r.all_incomparable and len(r.pairs) == (t - 2) * (t - 3) // 2))
    for _ in range(6):
        x = rng.sample(range(3, 13), rng.randrange(1, 6))
        y = rng.sample(x, rng.randrange(1, len(x) + 1)) if rng.randrange(2) else rng.sample(range(3, 13), 2)
        q.append(Query("x_order", lambda x=x, y=y: so.x_order(x, y),
                       lambda r, x=x, y=y: r.morphism == (set(x) >= set(y))))
    for i in range(4):
        rows, cols = 6, 7
        rel = tuple(tuple(rng.random() < 0.35 for _ in range(cols)) for _ in range(rows))
        triple = tr.FiniteTriple(tuple(f"m{k}" for k in range(rows)), tuple(f"p{k}" for k in range(cols)), rel)
        # odd slots may not use the first plus element
        prop = (lambda fam: "p0" not in fam) if i % 2 else None
        allowed = (lambda mask: not mask & 1) if i % 2 else None
        q.append(Query("finite_norm", lambda t=triple, p=prop: tr.finite_norm(t, p),
                       lambda r, rel=rel, a=allowed: r == O.finite_norm(rel, a)))
    for i in range(4):
        if i % 2:
            s, g = ic_set(rng, us), small_func(rng, ap)
            cand = tr.MorphismCandidate(pull=lambda f, s=s: s, push=lambda a, g=g: g)
            q.append(Query("gadget.a2b", lambda c=cand: ga.refute_filterclass_to_unbounded(c),
                           lambda r: r.verify()))
        else:
            # identity push: the family clause fires; constant push: the relation clause
            t = ic_set(rng, us)
            push = (lambda a: a) if i % 4 else (lambda a, t=t: t)
            cand = tr.MorphismCandidate(pull=lambda a, t=ic_set(rng, us): t, push=push)
            q.append(Query("gadget.p2t", lambda c=cand: ga.refute_pseudo_intersection_to_tower(c),
                           lambda r: r.verify()))
    for depth in ADVERSARY_DEPTHS:
        q.append(Query("build_adversary", lambda d=depth: adv.build_adversary(adv.identity_machine(), d),
                       lambda r, d=depth: O.identity_certificate_ok(r, d)))
    targets = [us.EVENS, us.UPSet.from_residues(3, {0})]
    for depth in (8, 10):
        cert = adv.build_adversary(adv.identity_machine(), depth)
        q.append(Query("verify_certificate", lambda c=cert: adv.verify_certificate(c, adv.identity_machine()),
                       lambda r, c=cert: r == len(c.facts)))
        specs = [(n, rng.randrange(n)) for n in (2, 3)]
        q.append(Query("multiclass_family",
                       lambda c=cert, s=specs: adv.multiclass_family(c, adv.identity_machine(), s, targets),
                       lambda r: all(p.element[v] == "1" for rep in r for p in rep.pinnings for v in p.pinned_pivots)
                       and all(int(t.element[pos]) == b for rep in r for t in rep.splits for pos, b in t.hits)))
    entry = cat.builtin_morphisms()[2]
    warmup = [
        Query("warmup", lambda: cat.default_probe_check(entry), bool),
        Query("warmup", lambda: so.bt_edge(so.SplitSpec(14, 9), so.SplitSpec(6, 4)), bool),
        Query("warmup", lambda: adv.build_adversary(adv.identity_machine(), 4), bool),
    ]
    return q, warmup


# -- external: CLI children and line-protocol children ------------------------


def _json_check(expect_code: int, check: Callable[[Any], bool]):
    def ok(result) -> bool:
        code, out = result
        return code == expect_code and check(json.loads(out))

    return ok


def _certificate_ok(data, depth: int) -> bool:
    tables = data["tables"]
    return data["queries_used"] == 4 * 2**depth - 4 and all(
        (f["history"] + tables[f["level"]][f["history"]])[f["pivot"]] == "1" for f in data["facts"]
    )


def external(rng, tk, env):
    us, ap, adv, wire, ga, tr = tk.upsets, tk.apfuncs, tk.adversary, tk.wire, tk.gadgets, tk.triples
    golden = env.golden
    q: list[Query] = []

    def cli(kind, argv, expect, check):
        q.append(Query(kind, lambda: env.cli(argv, {expect}), _json_check(expect, check) if check else
                       (lambda r, e=expect: r[0] == e)))

    f = small_func(rng, ap)
    cli("cli.psi", ["psi", "--f", f.literal(), "--N", "400"], 0,
        lambda d, f=f: O.image_prefix_ok(d["elements"], f, 400))
    fs = distinct(lambda: zero_headed(rng, ap, 2), 2)
    cli("cli.witnesses", ["witnesses", "--fs", *(g.literal() for g in fs), "--count", "6"], 0,
        lambda d, fs=fs: env.schema_ok("witnesses.schema.json", d) and d["count"] == 6
        and all(O.in_image(g, x) for g in fs for x in d["elements"]))
    fs = distinct(lambda: zero_headed(rng, ap, 2), 3)
    while O.separation_level(fs, 2) != 5:
        fs = distinct(lambda: zero_headed(rng, ap, 2), 3)
    cli("cli.intersect", ["intersect", "--n", "2", "--fs", *(g.literal() for g in fs)], 0,
        lambda d, fs=fs: O.exact_intersection_ok(
            SimpleNamespace(separation_level=d["separation_level"],
                            tuples=[SimpleNamespace(nodes=t["nodes"]) for t in d["tuples"]]),
            fs, 2))
    for argv in (["diagram", "--kind", "borel", "--format", "json"],
                 ["diagram", "--kind", "splitting", "--limit", "4", "--hasse", "--format", "json"]):
        key = " ".join(argv)
        cli("cli.diagram", argv, 0, lambda d, key=key: env.schema_ok("diagram.schema.json", d)
            and digest(d) == golden["cli"][key])
    for _ in range(2):
        n, n2 = rng.randrange(2, 30), rng.randrange(2, 30)
        spec = (n, rng.randrange(1, n + 1), n2, rng.randrange(1, n2 + 1))
        cli("cli.edge", ["edge", *map(str, spec)], 0 if O.bucket_edge(*spec) else 1, None)
    side, push_out = ic_set(rng, us), small_func(rng, ap)
    cli("cli.refute", ["refute", "a2b", "--phi", env.child_line("map.py", side.literal()),
                       "--psi", env.child_line("map.py", push_out.literal())], 1,
        lambda d: d["verified"] is True and d["violation"] == "relation"
        and O.centered([us.parse_upset(d["pulled"]), us.EVENS if d["side"] == "E" else us.ODDS])
        and O.eventually_dominates(ap.parse_apfunc(d["combined"]), ap.parse_apfunc(d["pushed_side"])))
    cli("cli.refute", ["refute", "p2t", "--phi", env.child_line("map.py", ic_set(rng, us).literal()),
                       "--psi", env.child_line("map.py", "echo")], 1,
        lambda d: d["verified"] is True and d["violation"] in ("family", "relation"))
    cli("cli.refute", ["refute", "a2b", "--phi", env.child_line("map.py", small_func(rng, ap).literal()),
                       "--psi", env.child_line("map.py", small_func(rng, ap).literal())], 2, None)
    depth = rng.randrange(4, 7)
    cli("cli.adversary", ["adversary", "run", "--machine", env.child_line("machine.py", "identity"),
                          "--depth", str(depth)], 0,
        lambda d, depth=depth: env.schema_ok("certificate.schema.json", d) and _certificate_ok(d, depth))
    cli("cli.adversary", ["adversary", "run", "--machine", env.child_line("machine.py", "identity"),
                          "--depth", "6", "--budget", str(rng.randrange(20, 60))], 3, None)
    cli("cli.usage", ["adversary", "run", "--depth", str(depth)], 2, None)

    def closing(children, fn):
        try:
            return fn(*children)
        finally:
            for child in children:
                child.process.close()
                if child.process._proc is not None:  # close() may kill without waiting
                    child.process._proc.wait(timeout=5)

    def on_machine(fn):
        return closing([wire.subprocess_machine(env.child("machine.py", "identity"), "identity")], fn)

    for i in range(10):
        d = 3 + i % 5
        q.append(Query("wire.build_adversary",
                       lambda d=d: on_machine(lambda m: adv.build_adversary(m, d)),
                       lambda r, d=d: O.identity_certificate_ok(r, d)))
    for i in range(6):
        cert = adv.build_adversary(adv.identity_machine(), 3 + i % 4)
        q.append(Query("wire.verify_certificate",
                       lambda c=cert: on_machine(lambda m: adv.verify_certificate(c, m)),
                       lambda r, c=cert: r == len(c.facts)))

    def gadget(run, pull_out, push_out):
        def go():
            maps = [wire.subprocess_map(env.child("map.py", out)) for out in (pull_out, push_out)]
            return closing(maps, lambda pull, push: run(tr.MorphismCandidate(pull=pull, push=push)))

        return go

    # both gadgets spawn a pull and a push child: the constant push makes
    # the three-sets gadget reach its relation clause, which asks the pull
    for _ in range(12):
        q.append(Query("wire.gadget.a2b",
                       gadget(lambda c: ga.refute_filterclass_to_unbounded(c),
                              ic_set(rng, us).literal(), small_func(rng, ap).literal()),
                       lambda r: r.verify()))
        q.append(Query("wire.gadget.p2t",
                       gadget(lambda c: ga.refute_pseudo_intersection_to_tower(c),
                              ic_set(rng, us).literal(), ic_set(rng, us).literal()),
                       lambda r: r.verify()))
    warmup = [
        Query("warmup", lambda: env.cli(["edge", "14", "9", "6", "4"], {0}), bool),
        Query("warmup", lambda: on_machine(lambda m: adv.build_adversary(m, 3)), bool),
    ]
    return q, warmup


def known_defects(env) -> list[dict]:
    """Queries that hit a known defect of the program.  They run after
    the measured passes of ``external`` and are reported, not hidden:
    a machine that breaks monotonicity raises MachineFault, which the
    CLI does not map to a documented exit code (2 usage or 3 budget)."""
    argv = ["adversary", "run", "--machine", env.child_line("machine.py", "nonmonotone"), "--depth", "4"]
    code, _ = env.cli(argv, {2, 3})
    return [{"query": "adversary run --machine <nonmonotone>", "expected_exit": [2, 3],
             "exit": code, "ok": code in (2, 3)}]


WORKLOADS = {"glued": glued, "periodic": periodic, "desk": desk, "external": external}
