"""Catalog of cardinal-invariant triples over the decidable fragment,
the built-in morphism rows (each names its two triples, whose kinds give
its probes; ``compose`` joins two), and the two comparison diagrams
(classical and Borel) as ``splitorder.Diagram`` values.

Duality is data.  ``DUALS`` pairs s with r and d with b, read both ways.
r, the dual of s, and b, the dual of d, are built from s and d by
``triples.dual``, not written out; i and u hold r's relation on
narrower carriers.  ``dual_row`` turns a row A->B into the row from the
dual of B to the dual of A with the two maps swapped, and the r->b row
is the dual row of d->s.

Carriers are stood in for exactly: infinite sets and 2-colorings by
ultimately periodic sets, function spaces by arithmetically periodic
functions, finite-color spaces by bounded zero-drift functions, and
sequence carriers by finite tuples read as cycling sequences.  Every
relation in the catalog is decided exactly on these representatives.

Family conditions are decided as far as the representatives allow:
``centered`` exactly on sets, and on glued images by members shared by
every image, found by ``common_witnesses`` with codes below
``branchmap._CODE_GUARD``; ``linearly_ordered`` exactly on sets, and a
family holding a glued image is refused with ``TypeError``, as is a
mixed family for ``centered``; ``ad_infinite`` pairwise on the finite
sample.  ``independence_derived``, the condition of ``i``, is declared,
not checked: it refuses every family with a ``ValueError``.
"""

from __future__ import annotations

import functools
import itertools
from typing import Any

from .apfuncs import (
    APFunc,
    IDENTITY,
    ZERO,
    almost_constant_on,
    bit_coloring,
    constant,
    eventually_dominates,
    is_coloring,
    next_element_func,
    pointwise_max,
)
from .branchmap import common_witnesses, image_contains, pair, trace_bound_func
from .errors import CertificateError, ContractBreach, EnumerationBudget
from .records import Record, set_field
from .splitorder import Diagram, EdgeRecord, SplitSpec, bt_edge, column_sizes
from .triples import (
    CodedTriple,
    FamilyProperty,
    Kind,
    MorphismCandidate,
    check_morphism,
    dual,
)
from .upsets import (
    EVENS,
    FULL,
    ODDS,
    UPSet,
    almost_disjoint,
    almost_subset,
    dyadic_family,
    is_ad_family,
    is_centered,
    is_linearly_ordered,
    partition_upset,
    splits,
)

# -- derived colorings -----------------------------------------------------


class IterateColoring(Record):
    """The coloring that paints blocks [t_j, t_{j+1}) alternately, where
    t_{j+1} = max(g(t_j), t_j + 1) iterates a function from 0, for a
    ``g`` of slope above 1.  The blocks then outgrow every fixed gap
    bound, so the coloring splits every infinite ultimately periodic set;
    both colours recur forever, so it is infinite and co-infinite.  The
    slope-1 case is periodic, and ``iterate_coloring`` gives its
    ``UPSet``."""

    __slots__ = ("g",)
    is_infinite = is_ic = True

    def __init__(self, g: APFunc) -> None:
        if g.drift <= len(g.base):
            raise ValueError("a step of slope 1 gives a periodic coloring; use iterate_coloring")
        set_field(self, "g", g)


def iterate_coloring(g: APFunc) -> UPSet | IterateColoring:
    """The block coloring of ``g``: an exact ``UPSet`` when the step
    max(g, k+1) has slope 1, an ``IterateColoring`` otherwise."""
    if g.drift > len(g.base):
        return IterateColoring(g)
    step = pointwise_max(g, APFunc((), (1,), 1))
    n0, p = step.period_start, step.period_len
    seen: dict[tuple[int, int], int] = {}
    bits = bytearray()
    t, j = 0, 0
    while True:
        nxt = step(t)
        bits += (b"\x01" if j % 2 == 0 else b"\x00") * (nxt - t)
        if t >= n0:
            state = ((t - n0) % p, j % 2)
            if state in seen:
                return UPSet(bits[: seen[state]], bits[seen[state] : t])
            seen[state] = t
        t, j = nxt, j + 1


def splits_general(c: "UPSet | IterateColoring", a: UPSet) -> bool:
    if isinstance(c, IterateColoring):
        if not a.is_infinite:
            raise ValueError("splitting is only defined for infinite sets")
        # late blocks of either colour are longer than the set's gaps
        return True
    return splits(c, a)


# -- the glued image as a plus-side value -----------------------------------


# how many column positions ``missing_elements`` reads before giving up
_MISSING_SCAN = 20000


class GluedImage(Record):
    """The glued-map image of a function, usable on the plus side of
    almost-inclusion triples.

    No infinite ultimately periodic set is almost contained in such an
    image: some column's trace of the set is infinite with positive
    density among that column's tuple indices, while the image tuples
    containing any fixed branch thin out geometrically.  The decision
    procedure locates such a column and emits concrete missing
    elements.
    """

    __slots__ = ("func",)

    def __contains__(self, x: int) -> bool:
        return image_contains(self.func, x)

    def _infinite_trace_column(self, a: UPSet) -> int:
        d, n0 = a.period_len, a.period_start
        for col in range(0, 2 * d + 2):
            m0 = 0
            while pair(col, m0) < n0:
                m0 += 1
            if any(
                pair(col, m) in a for m in range(m0, m0 + 2 * d)
            ):
                return col
        raise CertificateError("every infinite periodic set has an infinite column trace")

    def missing_elements(self, a: UPSet, count: int) -> list[int]:
        """Concrete members of ``a`` outside this image; fewer than
        ``count`` within ``_MISSING_SCAN`` positions is an ``EnumerationBudget``."""
        if not a.is_infinite:
            raise ValueError("need an infinite set")
        col = self._infinite_trace_column(a)
        out: list[int] = []
        for m in range(_MISSING_SCAN):
            x = pair(col, m)
            if x not in a:
                continue
            if col == 0 or not image_contains(self.func, x):
                out.append(x)
                if len(out) >= count:
                    return out
        raise EnumerationBudget(
            f"could not exhibit {count} missing elements within the scan window"
        )

    def almost_contains(self, a: UPSet) -> bool:
        if a.is_finite:
            return True
        # certified by explicit counterexamples; see class docstring
        self.missing_elements(a, 3)
        return False


def not_almost_subset_general(x: UPSet, y: "UPSet | GluedImage") -> bool:
    if isinstance(y, GluedImage):
        return not y.almost_contains(x)
    return not almost_subset(x, y)


# -- family properties ------------------------------------------------------


def _centered_check(family: list) -> bool:
    if not family:
        raise ValueError("empty family")
    if all(isinstance(s, UPSet) for s in family):
        return is_centered(family)
    if all(isinstance(s, GluedImage) for s in family):
        # raises unless it finds members shared by every image
        common_witnesses([s.func for s in family], 12)
        return True
    raise TypeError("centeredness needs a homogeneous family")


CENTERED = FamilyProperty("centered", _centered_check, "")


def _linear_order_check(family: list) -> bool:
    if not all(isinstance(s, UPSet) for s in family):
        raise TypeError("a linear order is decided on sets only, not on glued images")
    return is_linearly_ordered(family)


LINEARLY_ORDERED = FamilyProperty("linearly_ordered", _linear_order_check, "")
AD_INFINITE = FamilyProperty(
    "ad_infinite",
    is_ad_family,
    "a finite list only samples an infinite a.d. family",
)


def _refuse_independence(family: list) -> bool:
    raise ValueError("independence_derived is declared, not checked: no family is judged")


INDEPENDENCE_DERIVED = FamilyProperty(
    "independence_derived",
    _refuse_independence,
    "declared, not checked: members must be boolean combinations of an "
    "independent family, and every family is refused",
)


# -- kinds and their probe suites ---------------------------------------------

UPSET_PROBES: tuple[UPSet, ...] = (
    EVENS,
    ODDS,
    UPSet.from_residues(4, {0}),
    UPSet.from_residues(4, {2}),
    UPSet.from_residues(3, {0}),
    UPSet.from_residues(3, {1, 2}),
)

COLORING_PROBES: tuple[UPSet, ...] = UPSET_PROBES + (
    FULL,
    UPSet.from_finite({0, 1, 2}),
    UPSet.from_finite({0, 4}).complement(),
)

APFUNC_PROBES: tuple[APFunc, ...] = (
    ZERO,
    constant(5),
    IDENTITY,
    APFunc((), (0,), 2),
    APFunc((), (1,), 2),
    APFunc((), (1,), 1),
    APFunc((3, 1), (0, 1), 2),
)

CHAIN_FAMILY = [
    UPSet.from_residues(8, {0}),
    UPSet.from_residues(4, {0}),
    EVENS,
]


def _is_infinite_upset(x: Any) -> bool:
    return isinstance(x, UPSet) and x.is_infinite


def _is_upset_tuple(xs: Any) -> bool:
    return isinstance(xs, tuple) and all(_is_infinite_upset(x) for x in xs)


UPSET = Kind("upset", _is_infinite_upset, UPSET_PROBES)  # infinite subsets of omega
# the plus side of almost inclusion also holds glued images, which b->p pushes to
UPSET_OR_IMAGE = Kind(
    "upset", lambda y: isinstance(y, GluedImage) or _is_infinite_upset(y), UPSET_PROBES
)
IC = Kind(  # infinite, co-infinite subsets
    "ic", lambda x: isinstance(x, UPSet) and x.is_ic, UPSET_PROBES
)
COLORING = Kind(  # 2-colorings, i.e. arbitrary subsets
    "coloring", lambda x: isinstance(x, (UPSet, IterateColoring)), COLORING_PROBES
)
# the minus sides that i->r, u->r and r_sigma->r pull r's colorings into
# also hold IterateColorings
IC_OR_COLORING = Kind("ic", lambda x: COLORING.validate(x) and x.is_ic, UPSET_PROBES)
UPSET_OR_COLORING = Kind(
    "upset", lambda x: COLORING.validate(x) and x.is_infinite, UPSET_PROBES
)
APFUNC = Kind("apfunc", lambda x: isinstance(x, APFunc), APFUNC_PROBES)
UPSET_TUPLE = Kind(
    "upset_tuple", _is_upset_tuple, ((EVENS,), (EVENS, ODDS), UPSET_PROBES[:3])
)
COLORING_TUPLE = Kind(
    "coloring_tuple",
    lambda xs: isinstance(xs, tuple) and all(map(COLORING.validate, xs)),
    ((EVENS,), (EVENS, UPSet.from_residues(4, {1})), (FULL,)),
)


@functools.cache
def coloring_kind(colors: int) -> Kind:
    return Kind(
        f"coloring{colors}",
        lambda c: isinstance(c, APFunc) and is_coloring(c, colors),
        (
            APFunc((), tuple(range(colors)), 0),
            APFunc((), (0,) * (colors - 1) + (colors - 1,), 0),
            constant(colors - 1),
            APFunc((1, 0), (0, 1), 0),
        ),
    )


@functools.cache
def upset_tuple_kind(arity: int) -> Kind:
    pool = UPSET_PROBES
    return Kind(
        f"upset_tuple{arity}",
        lambda xs: _is_upset_tuple(xs) and len(xs) == arity,
        (
            tuple(pool[i % len(pool)] for i in range(arity)),
            tuple(pool[(i + 1) % len(pool)] for i in range(arity)),
        ),
    )


# -- the catalog -------------------------------------------------------------


def n_unsplitting_triple(colors: int) -> CodedTriple:
    if colors < 2:
        raise ValueError("need at least two colors")
    return CodedTriple(
        f"r_{colors}", coloring_kind(colors), UPSET, almost_constant_on,
        relation_name="is almost constant on",
    )


def nm_splitting_triple(n: int, m: int) -> CodedTriple:
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    return CodedTriple(
        f"s_{n}" if m == n else f"s_{n},{m}",
        upset_tuple_kind(n),
        COLORING,
        lambda xs, c: sum(1 for a in xs if splits_general(c, a)) >= m,
        relation_name="splits every entry of" if m == n else f"splits at least {m} entries of",
    )


def _catalog_dual(t: CodedTriple, relation_name: str) -> CodedTriple:
    d = dual(t)
    return CodedTriple(DUALS[t.name], d.minus, d.plus, d.relation, None, relation_name)


_PSEUDO_INTERSECTION = CodedTriple(
    "p", UPSET, UPSET_OR_IMAGE, not_almost_subset_general, CENTERED,
    "not almost contained in",
)
# the dual of each catalog triple whose dual is in the catalog, keyed both ways
DUALS = {x: y for pair in (("s", "r"), ("d", "b")) for x, y in (pair, pair[::-1])}
_S = CodedTriple("s", UPSET, COLORING, lambda a, c: splits_general(c, a), None, "is split by")
_R = _catalog_dual(_S, "does not split")
_D = CodedTriple("d", APFUNC, APFUNC, lambda f, g: eventually_dominates(g, f),
                 relation_name="is eventually dominated by")

# Every catalog triple in listing order; parametrized families appear
# with small default parameters alongside their factory functions.
TRIPLES: tuple[CodedTriple, ...] = (
    _PSEUDO_INTERSECTION,
    _S,
    _R,
    _catalog_dual(_D, "does not eventually dominate"),
    _D,
    CodedTriple("a", IC, IC, lambda x, y: not almost_disjoint(x, y), AD_INFINITE,
                "meets infinitely"),
    CodedTriple("i", IC_OR_COLORING, IC, _R.relation, INDEPENDENCE_DERIVED, "does not split"),
    CodedTriple("u", UPSET_OR_COLORING, UPSET, _R.relation, CENTERED, "does not split"),
    CodedTriple("t", UPSET, UPSET_OR_IMAGE, not_almost_subset_general, LINEARLY_ORDERED,
                "not almost contained in"),
    n_unsplitting_triple(3),
    n_unsplitting_triple(4),
    CodedTriple("r_sigma", COLORING_TUPLE, UPSET,
                lambda cs, b: all(not splits_general(c, b) for c in cs),
                relation_name="every listed coloring almost constant on"),
    nm_splitting_triple(2, 2),
    nm_splitting_triple(3, 3),
    nm_splitting_triple(4, 2),
    CodedTriple("s_sigma", UPSET_TUPLE, UPSET,
                lambda xs, b: all(splits(b, a) for a in xs),
                relation_name="splits every listed set"),
    CodedTriple("s_finite", UPSET_TUPLE, COLORING,
                lambda xs, c: all(splits_general(c, a) for a in xs),
                relation_name="splits every entry of the finite tuple"),
)


def catalog() -> dict[str, CodedTriple]:
    """All catalog triples, keyed by id."""
    return {t.name: t for t in TRIPLES}


# -- built-in morphism candidates --------------------------------------------


def _same(x: Any) -> Any:
    return x


def _as_infinite(x: UPSet) -> UPSet:
    return x if x.is_infinite else EVENS


def _as_ic(x: UPSet) -> UPSet:
    return x if x.is_ic else EVENS


def plus_one(f: APFunc) -> APFunc:
    return APFunc(
        tuple(v + 1 for v in f.prefix), tuple(v + 1 for v in f.base), f.drift
    )


def _next_element_plus_one(a: UPSet) -> APFunc:
    return plus_one(next_element_func(a))


def nm_partition_candidate(a_n: int, a_m: int, b_n: int, b_m: int) -> MorphismCandidate:
    """The even-partition map behind positive verdicts in the
    (n, m)-splitting order: each incoming set is cut into almost equal
    infinite pieces, remainder to the left."""
    verdict = bt_edge(SplitSpec(a_n, a_m), SplitSpec(b_n, b_m))
    if not verdict.morphism:
        raise ValueError(f"no morphism: {verdict.describe()}")
    sizes = column_sizes(a_n, b_n)

    def pull(xs: tuple[UPSet, ...]) -> tuple[UPSet, ...]:
        pieces: list[UPSet] = []
        for b, size in zip(xs, sizes):
            pieces.extend(partition_upset(b, size))
        return tuple(pieces)

    return MorphismCandidate(pull, _same, f"s_{a_n},{a_m}->s_{b_n},{b_m} even partition")


class BuiltinMorphism(Record):
    __slots__ = ("source", "target", "candidate", "families")


def builtin_morphisms() -> list[BuiltinMorphism]:
    """One row per positive edge.  The rows between two Borel
    diagram nodes are that diagram's positive edges, in order."""

    def row(source, target, label, pull, push=_same, families=()) -> BuiltinMorphism:
        candidate = MorphismCandidate(pull, push, f"{source}->{target} {label}")
        return BuiltinMorphism(source, target, candidate, families)

    d_s = row("d", "s", "next-element / block coloring", _next_element_plus_one, iterate_coloring)
    return [
        # the pull map must choose something for finite and cofinite
        # colorings; any infinite co-infinite set works there
        row("i", "r", "identity", _as_ic),
        row("u", "r", "identity", _as_infinite, families=(CHAIN_FAMILY,)),
        d_s,
        # +1 realizes "dominating families are unbounded": if x+1 is
        # eventually below y then x cannot eventually sit above y
        row("d", "b", "successor", plus_one),
        dual_row(d_s),
        row("b", "p", "glued map / trace bound", trace_bound_func, GluedImage,
            ((IDENTITY, APFunc((), (0,), 2)), (ZERO, constant(3)))),
        row("a", "p", "complement", _as_ic, UPSet.complement,
            (tuple(dyadic_family(4)), (EVENS,))),
        row("t", "p", "identity", _same, families=(CHAIN_FAMILY,)),
        row("r_sigma", "r", "constant sequence", lambda c: (c,)),
        # a 4-coloring's two bit colorings: each almost constant on a
        # set makes the coloring almost constant there
        row("r_sigma", "r_4", "bit colorings",
            lambda c: (bit_coloring(c, 0), bit_coloring(c, 1))),
        row("r_4", "r_3", "inclusion", _same),
        row("s_sigma", "s", "singleton", lambda a: (a,)),
        # a coloring splitting both sets of a pair splits the pair with
        # its last set repeated
        row("s_3", "s_2", "padding", lambda xs: xs + (xs[-1],) * (3 - len(xs))),
        row("s_finite", "s_3", "inclusion", _same),
    ]


def default_probe_check(entry: BuiltinMorphism):
    """Check one row on its two triples' probes and its families."""
    cat = catalog()
    return check_morphism(entry.candidate, cat[entry.source], cat[entry.target], entry.families)


def dual_row(row: BuiltinMorphism) -> BuiltinMorphism:
    """The row dual B -> dual A of a row A -> B: its maps swapped, no families."""
    if missing := [x for x in (row.source, row.target) if x not in DUALS]:
        raise ContractBreach(f"{missing[0]} has no dual in the catalog")
    source, target, c = DUALS[row.target], DUALS[row.source], row.candidate
    label = f"{source}->{target} dual of {row.source}->{row.target}"
    return BuiltinMorphism(source, target, MorphismCandidate(c.push, c.pull, label), ())


def compose(first: BuiltinMorphism, second: BuiltinMorphism) -> BuiltinMorphism:
    """The row first;second, with no families; the rows must meet."""
    if first.target != second.source:
        raise ContractBreach(
            f"cannot compose {first.source}->{first.target} with {second.source}->{second.target}"
        )
    c1, c2 = first.candidate, second.candidate
    candidate = MorphismCandidate(
        lambda x: c1.apply_pull(c2.apply_pull(x)),
        lambda y: c2.apply_push(c1.apply_push(y)),
        f"{c1.name};{c2.name}",
    )
    return BuiltinMorphism(first.source, second.target, candidate, ())


# -- diagrams ------------------------------------------------------------------


CLASSICAL_EDGES: tuple[tuple[str, str], ...] = (
    ("i", "d"),
    ("i", "r"),
    ("u", "r"),
    ("d", "s"),
    ("d", "b"),
    ("r", "b"),
    ("a", "b"),
    ("s", "p"),
    ("b", "p"),
)

# Edges of the classical picture that fail definably, plus the open and
# incomparability annotations.
BOREL_NEGATIVE_EDGES: tuple[EdgeRecord, ...] = (
    EdgeRecord(
        "i",
        "d",
        "no-BT-morphism",
        "forcing: such maps would compare unsplitting with dominating, "
        "which the Miller model separates",
    ),
    EdgeRecord(
        "r",
        "d",
        "no-BT-morphism",
        "forcing: fails in the Miller model and both triples are simple",
    ),
    EdgeRecord(
        "a",
        "b",
        "no-morphism-at-all",
        "gadget: parity max over a complementary pair refutes every map pair",
    ),
    EdgeRecord(
        "s",
        "p",
        "no-BT-morphism",
        "forcing: restricted Mathias forcing keeps the ground model splitting",
    ),
    EdgeRecord(
        "p",
        "t",
        "no-BT-morphism",
        "gadget: three sets with empty triple intersection but infinite "
        "pairwise intersections",
    ),
    EdgeRecord("b", "t", "open", "open question"),
) + tuple(
    EdgeRecord(
        x,
        y,
        "no-BT-morphism",
        "forcing: would yield a definable comparison with the unsplitting "
        "triple that forcing separates",
    )
    for x, y in itertools.permutations(("i", "u", "a"), 2)
)


def vd_diagram(kind: str) -> Diagram:
    """The two comparison diagrams over the nine catalog invariants."""
    if kind == "classical":
        nodes = ("i", "u", "d", "r", "a", "s", "b", "p")
        edges = tuple(
            EdgeRecord(s, t, "zfc-inequality", "classical diagram")
            for s, t in CLASSICAL_EDGES
        )
        return Diagram("classical_diagram", nodes, edges)
    if kind == "borel":
        nodes = ("i", "u", "d", "r", "a", "s", "b", "p", "t")
        positives = tuple(
            EdgeRecord(
                b.source, b.target, "BT-morphism", f"built-in candidate: {b.candidate.name}"
            )
            for b in builtin_morphisms()
            if b.source in nodes and b.target in nodes
        )
        negatives = tuple(
            e for e in BOREL_NEGATIVE_EDGES if e.source in nodes and e.target in nodes
        )
        return Diagram("borel_diagram", nodes, positives + negatives)
    raise ValueError("diagram kind must be classical or borel")
