"""The (n, m)-splitting order: exact comparability verdicts, the
balls-in-buckets oracle, the power-of-two antichain, and the poset
embedding over finite index sets.

A pair (n, m) stands for families that, given any n infinite sets,
split at least m of them.  Whether one such notion maps onto another
reduces to bucket arithmetic: spread n balls evenly over n' ordered
buckets, remainder to the left, and count the balls in the first m'-1
buckets.  A definable morphism exists exactly when m does not grow and
that count stays below m.  ``order_digraph`` holds edges as bitmasks.

``Diagram`` is the one record of all three diagrams, this order and the
catalog's classical and Borel diagrams, and the one writer of their
DOT and ``diagram.schema.json`` JSON.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from .errors import CertificateError, EnumerationBudget
from .records import Record, set_field


class SplitSpec(Record):
    """Parameters of an (n, m)-splitting notion, 1 <= m <= n."""

    __slots__ = ("n", "m")

    def __init__(self, n: int, m: int) -> None:
        if not 1 <= m <= n:
            raise ValueError("need 1 <= m <= n")
        set_field(self, "n", n)
        set_field(self, "m", m)

    def __str__(self) -> str:
        return f"({self.n},{self.m})"


class EdgeVerdict(Record):
    # reason: m_increase | bound_holds | bound_fails
    __slots__ = ("source", "target", "morphism", "reason", "lhs")

    def __init__(self, source: SplitSpec, target: SplitSpec, morphism: bool, reason: str,
                 lhs: int | None = None) -> None:
        set_field(self, "source", source)
        set_field(self, "target", target)
        set_field(self, "morphism", morphism)
        set_field(self, "reason", reason)
        set_field(self, "lhs", lhs)

    def describe(self) -> str:
        if self.reason == "m_increase":
            return f"no morphism {self.source}->{self.target} (m < m')"
        word = "morphism" if self.morphism else "no morphism"
        rel = "<" if self.morphism else ">="
        return (
            f"{word} {self.source}->{self.target} "
            f"(bucket count {self.lhs} {rel} {self.source.m})"
        )


def bucket_count(n: int, n2: int, m2: int) -> int:
    """Closed form for the even-spread count: floor(n/n2)*(m2-1) plus
    min(n mod n2, m2-1)."""
    if n2 < 1:
        raise ValueError("need at least one bucket")
    return (n // n2) * (m2 - 1) + min(n % n2, m2 - 1)


def bucket_count_by_filling(n: int, n2: int, m2: int) -> int:
    """Independent oracle: fill the buckets evenly (``column_sizes``)
    and count the balls landing in the first m2-1 of them."""
    return sum(column_sizes(n, n2)[: m2 - 1])


def column_sizes(n: int, n2: int) -> list[int]:
    """Even partition of n regions into n2 columns, remainder leftmost."""
    if n2 < 1:
        raise ValueError("need at least one column")
    return [n // n2 + (1 if i < n % n2 else 0) for i in range(n2)]


_EXHAUSTIVE_BOUND = 30


def min_columns_hit(n: int, n2: int, m: int) -> int:
    """Fewest distinct columns any m regions can touch, by exhaustive
    enumeration over all m-subsets of the evenly partitioned regions."""
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    if n > _EXHAUSTIVE_BOUND:
        raise EnumerationBudget(f"exhaustive search capped at n <= {_EXHAUSTIVE_BOUND}")
    sizes = column_sizes(n, n2)
    region_col = [c for c, s in enumerate(sizes) for _ in range(s)]
    best = n2
    for subset in itertools.combinations(range(n), m):
        hit = len({region_col[r] for r in subset})
        if hit < best:
            best = hit
            if best == 1:
                break
    return best


def bt_edge(a: SplitSpec, b: SplitSpec) -> EdgeVerdict:
    """Is there a definable morphism from the (a.n, a.m) notion to the
    (b.n, b.m) notion?  Exact: m may never increase, and otherwise the
    bucket count must stay below a.m."""
    if a.m < b.m:
        return EdgeVerdict(a, b, False, "m_increase")
    lhs = bucket_count(a.n, b.n, b.m)
    if lhs < a.m:
        return EdgeVerdict(a, b, True, "bound_holds", lhs)
    return EdgeVerdict(a, b, False, "bound_fails", lhs)


class AntichainReport(Record):
    # pairs[i] = (m, m'); verdicts[i]: the edges (2^m, m) -> (2^m', m') and back
    __slots__ = ("top", "pairs", "verdicts")

    @property
    def all_incomparable(self) -> bool:
        return all(
            not fwd.morphism and not back.morphism
            for fwd, back in self.verdicts
        )


def antichain(top: int) -> AntichainReport:
    """Verify that the specs (2^m, m) for 3 <= m <= top are pairwise
    incomparable, re-deriving the arithmetic that forces it."""
    if top < 3:
        raise ValueError("the antichain starts at 3")
    pairs = []
    verdicts = []
    for m, m2 in itertools.combinations(range(3, top + 1), 2):
        lo = SplitSpec(2**m, m)
        hi = SplitSpec(2**m2, m2)
        fwd = bt_edge(lo, hi)
        back = bt_edge(hi, lo)
        if fwd.reason != "m_increase":
            raise CertificateError(f"({2**m},{m}) -> ({2**m2},{m2}) must fail by m increase")
        # the bound fails in the backward direction because
        # 2^(m2-m) * (m-1) >= (m2-m+1)(m-1) >= m2; both steps are
        # instances of AB >= A+B for A, B >= 2
        a_, b_ = m2 - m + 1, m - 1
        if not 2 ** (m2 - m) * (m - 1) >= a_ * b_:
            raise CertificateError(f"2^{m2 - m} * {m - 1} < {a_} * {b_}")
        if not a_ * b_ >= a_ + b_ == m2:
            raise CertificateError(f"{a_} * {b_} >= {a_} + {b_} == {m2} fails")
        if not (back.reason == "bound_fails" and back.lhs >= m2):
            raise CertificateError(f"({2**m2},{m2}) -> ({2**m},{m}) must fail the bound")
        pairs.append((m, m2))
        verdicts.append((fwd, back))
    return AntichainReport(top, tuple(pairs), tuple(verdicts))


class IndexSetVerdict(Record):
    # when x does not contain y: the least index of y missing from x, and
    # the edges both ways between its spec and each spec of x; else None, ()
    __slots__ = ("x", "y", "morphism", "missing", "separations")


def x_order(x: Iterable[int], y: Iterable[int]) -> IndexSetVerdict:
    """Order between index-set splitting notions: X-splitting means
    (2^m, m)-splitting for every m in X, so containment decides.

    When X does not contain Y, the verdict carries the missing index
    and the pairwise separations that drive the refutation.
    """
    xs, ys = frozenset(x), frozenset(y)
    if any(v < 3 for v in xs | ys):
        raise ValueError("index sets live in {3, 4, ...}")
    if xs >= ys:
        return IndexSetVerdict(xs, ys, True, None, ())
    missing = min(ys - xs)
    seps = []
    miss_spec = SplitSpec(2**missing, missing)
    for m in sorted(xs):
        spec = SplitSpec(2**m, m)
        seps.append((bt_edge(spec, miss_spec), bt_edge(miss_spec, spec)))
    return IndexSetVerdict(xs, ys, False, missing, tuple(seps))


def order_digraph(limit: int, *, hasse: bool = False):
    """All specs with n <= limit and the morphism edges between them."""
    if limit < 0:
        raise ValueError("limit must be a natural")
    nodes = [SplitSpec(n, m) for n in range(1, limit + 1) for m in range(1, n + 1)]
    # bit j of succ[i] and bit i of pred[j]: a morphism from nodes[i] to
    # nodes[j], i != j
    succ = [
        sum(1 << j for j, b in enumerate(nodes) if i != j and bt_edge(a, b).morphism)
        for i, a in enumerate(nodes)
    ]
    pred = [sum(1 << i for i, s in enumerate(succ) if s >> j & 1) for j in range(len(nodes))]
    # the Hasse reduction drops a -> b when some successor of a has b
    # among its successors; no spec is its own successor, so that one is
    # neither a nor b
    edges = [
        (a, b)
        for a, s in zip(nodes, succ)
        for j, b in enumerate(nodes)
        if s >> j & 1 and not (hasse and s & pred[j])
    ]
    return nodes, edges


class EdgeRecord(Record):
    # verdict: BT-morphism | no-BT-morphism | no-morphism-at-all | open | zfc-inequality
    __slots__ = ("source", "target", "verdict", "provenance")


class Diagram(Record):
    """A diagram: its DOT graph name, node labels and edges."""

    __slots__ = ("name", "nodes", "edges")

    def to_json(self) -> dict:
        return {
            "nodes": list(self.nodes),
            "edges": [
                {
                    "src": e.source,
                    "dst": e.target,
                    "verdict": e.verdict,
                    "provenance": e.provenance,
                }
                for e in self.edges
            ],
        }

    def to_dot(self) -> str:
        style = {
            "BT-morphism": "",
            "zfc-inequality": "",
            "no-BT-morphism": ' [style=dashed, color=red, label="no"]',
            "no-morphism-at-all": ' [style=dashed, color=red, label="none"]',
            "open": ' [style=dotted, label="open"]',
        }
        lines = [f"digraph {self.name} {{"]
        for v in self.nodes:
            lines.append(f'  "{v}";')
        for e in self.edges:
            lines.append(f'  "{e.source}" -> "{e.target}"{style[e.verdict]};')
        lines.append("}")
        return "\n".join(lines)


def order_diagram(limit: int, *, hasse: bool = False) -> Diagram:
    """The splitting order with n <= limit as a diagram: one node per
    spec and one BT-morphism edge per morphism of ``order_digraph``."""
    nodes, edges = order_digraph(limit, hasse=hasse)
    return Diagram(
        "splitting_order",
        tuple(map(str, nodes)),
        tuple(EdgeRecord(str(a), str(b), "BT-morphism", "bucket bound") for a, b in edges),
    )
