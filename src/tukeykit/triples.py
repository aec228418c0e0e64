"""Relational triples, duality, norms, and probe-checked morphisms.

A triple is a relation between a minus side and a plus side; its norm
is the least size of a plus-side family relating to everything on the
minus side, optionally constrained by a property of families.  A
morphism candidate is a pair of total maps pulling minus elements back
and pushing plus elements forward.  Finite triples are checked
exhaustively; coded triples (carriers standing for spaces of reals) are
checked against finite probe lists, and reports say so.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from .errors import KindMismatch, MachineBudgetError, SearchBoundExceeded


# -- finite triples ------------------------------------------------------


@dataclass(frozen=True)
class FiniteTriple:
    """A finite relation given by labels and a boolean matrix."""

    minus: tuple[str, ...]
    plus: tuple[str, ...]
    relation: tuple[tuple[bool, ...], ...]

    def __post_init__(self) -> None:
        minus = tuple(self.minus)
        plus = tuple(self.plus)
        rel = tuple(tuple(bool(v) for v in row) for row in self.relation)
        if len(set(minus)) != len(minus) or len(set(plus)) != len(plus):
            raise ValueError("labels must be unique")
        if len(rel) != len(minus) or any(len(row) != len(plus) for row in rel):
            raise ValueError("relation shape must match the carriers")
        object.__setattr__(self, "minus", minus)
        object.__setattr__(self, "plus", plus)
        object.__setattr__(self, "relation", rel)

    def holds(self, x: str, y: str) -> bool:
        return self.relation[self.minus.index(x)][self.plus.index(y)]


# -- coded triples -------------------------------------------------------


@dataclass(frozen=True)
class FamilyProperty:
    """A predicate on finite families of plus-side values."""

    name: str
    check: Callable[[list], bool]
    note: str = ""

    def __call__(self, family: list) -> bool:
        return self.check(family)


@dataclass(frozen=True)
class Kind:
    """A carrier kind: its printed name, the test a value must pass to
    sit on a side of this kind, and the probe list that stands in for
    the whole carrier when a morphism is checked."""

    name: str
    validate: Callable[[Any], bool] = field(repr=False)
    probes: tuple = field(repr=False)


@dataclass(frozen=True)
class CodedTriple:
    """A triple whose carriers are decidable stand-ins for real spaces."""

    name: str
    minus: Kind
    plus: Kind
    relation: Callable[[Any, Any], bool]
    property: FamilyProperty | None = None
    relation_name: str = ""

    def holds(self, x: Any, y: Any) -> bool:
        if not self.minus.validate(x):
            raise ValueError(f"{x!r} is not a valid minus value for {self.name}")
        if not self.plus.validate(y):
            raise ValueError(f"{y!r} is not a valid plus value for {self.name}")
        return self.relation(x, y)


Triple = FiniteTriple | CodedTriple


def dual(t: Triple) -> Triple:
    """Swap the sides and negate-transpose the relation.  Defined only
    for simple triples; properties do not dualize."""
    if isinstance(t, FiniteTriple):
        rel = tuple(
            tuple(not t.relation[j][i] for j in range(len(t.minus)))
            for i in range(len(t.plus))
        )
        return FiniteTriple(t.plus, t.minus, rel)
    if t.property is not None:
        raise ValueError(f"{t.name} carries a family property and is not simple")
    return CodedTriple(
        name=f"{t.name}^dual",
        minus=t.plus,
        plus=t.minus,
        relation=lambda x, y, _r=t.relation: not _r(y, x),
        relation_name=f"not converse {t.relation_name}".strip(),
    )


def is_dominating(
    family: Sequence[Any], t: Triple, probes: Sequence[Any] | None = None
) -> bool:
    """Does every (probed) minus element relate to some family member?

    Exhaustive for finite triples; coded triples are judged relative to
    the supplied probe list.
    """
    if isinstance(t, FiniteTriple):
        xs = t.minus if probes is None else probes
        return all(any(t.holds(x, y) for y in family) for x in xs)
    if not probes:
        raise ValueError("coded triples need a nonempty probe list")
    return all(any(t.holds(x, y) for y in family) for x in probes)


_NORM_SEARCH_BOUND = 20


def finite_norm(
    t: FiniteTriple, prop: Callable[[tuple], bool] | None = None
) -> int | None:
    """Exact least size of a dominating family satisfying ``prop``,
    searched by increasing size; None encodes "no such family"."""
    if len(t.plus) > _NORM_SEARCH_BOUND:
        raise SearchBoundExceeded(
            f"plus side has {len(t.plus)} elements, "
            f"search bound is {_NORM_SEARCH_BOUND}"
        )
    for size in range(len(t.plus) + 1):
        for family in itertools.combinations(t.plus, size):
            if prop is not None and not prop(family):
                continue
            if is_dominating(family, t):
                return size
    return None


# -- morphism candidates --------------------------------------------------


@dataclass(frozen=True)
class MorphismCandidate:
    """A pair of total maps: ``pull`` takes target-minus values to
    source-minus values, ``push`` takes source-plus to target-plus."""

    pull: Callable[[Any], Any]
    push: Callable[[Any], Any]
    # None: the candidate declares no kinds, and composes with anything
    source_kinds: tuple[Kind, Kind] | None = None
    target_kinds: tuple[Kind, Kind] | None = None
    name: str = ""

    def apply_pull(self, x: Any) -> Any:
        return _apply("pull map", self.pull, x)

    def apply_push(self, y: Any) -> Any:
        return _apply("push map", self.push, y)


def _apply(role: str, fn: Callable[[Any], Any], value: Any) -> Any:
    # only a map that gives no answer is a budget verdict; what it raises propagates
    out = fn(value)
    if out is None:
        raise MachineBudgetError(role, value)
    return out


def compose(c1: MorphismCandidate, c2: MorphismCandidate) -> MorphismCandidate:
    """Composite of a morphism source->mid with one mid->target."""
    if None not in (c1.target_kinds, c2.source_kinds) and c1.target_kinds != c2.source_kinds:
        raise KindMismatch(
            f"cannot compose: {c1.target_kinds} does not match {c2.source_kinds}"
        )
    return MorphismCandidate(
        pull=lambda x: c1.apply_pull(c2.apply_pull(x)),
        push=lambda y: c2.apply_push(c1.apply_push(y)),
        source_kinds=c1.source_kinds,
        target_kinds=c2.target_kinds,
        name=f"{c1.name};{c2.name}",
    )


def dual_morphism(c: MorphismCandidate) -> MorphismCandidate:
    """Swapping the maps turns a morphism between simple triples into a
    morphism between the duals, in the opposite direction."""
    return MorphismCandidate(
        pull=c.push,
        push=c.pull,
        source_kinds=None if c.target_kinds is None else c.target_kinds[::-1],
        target_kinds=None if c.source_kinds is None else c.source_kinds[::-1],
        name=f"dual({c.name})",
    )


# -- probe-relative checking ----------------------------------------------


@dataclass(frozen=True)
class Violation:
    condition: str  # "family" or "relation"
    detail: str
    data: tuple = ()


@dataclass(frozen=True)
class MorphismReport:
    candidate: str
    source: str
    target: str
    violations: tuple[Violation, ...]
    relation_checks: int
    nonvacuous_checks: int
    family_checks: int

    @property
    def consistent(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.consistent:
            return (
                f"{self.candidate}: consistent on probes "
                f"({self.nonvacuous_checks}/{self.relation_checks} relation "
                f"checks engaged, {self.family_checks} family checks)"
            )
        head = self.violations[0]
        return f"{self.candidate}: {len(self.violations)} violation(s), first: {head.detail}"


def check_morphism(
    candidate: MorphismCandidate,
    source: Triple,
    target: Triple,
    *,
    target_minus_probes: Sequence[Any] | None = None,
    source_plus_probes: Sequence[Any] | None = None,
    families: Sequence[Sequence[Any]] = (),
) -> MorphismReport:
    """Check both morphism conditions on finite data.

    For finite triples omitted probe lists default to the whole
    carriers, making the check exhaustive.  For coded triples the
    verdict is only ever "consistent on probes"; the genuine conditions
    quantify over uncountable carriers.
    """
    if isinstance(target, FiniteTriple) and target_minus_probes is None:
        target_minus_probes = target.minus
    if isinstance(source, FiniteTriple) and source_plus_probes is None:
        source_plus_probes = source.plus
    if target_minus_probes is None or source_plus_probes is None:
        raise ValueError("coded triples need explicit probe lists")

    violations: list[Violation] = []
    checks = 0
    engaged = 0

    src_prop = source.property if isinstance(source, CodedTriple) else None
    tgt_prop = target.property if isinstance(target, CodedTriple) else None
    family_checks = 0
    for fam in families:
        family_checks += 1
        fam = list(fam)
        if src_prop is not None and not src_prop(fam):
            continue
        image = [candidate.apply_push(y) for y in fam]
        if tgt_prop is not None and not tgt_prop(image):
            violations.append(
                Violation(
                    "family",
                    f"image of a {src_prop.name if src_prop else 'probe'} family "
                    f"fails {tgt_prop.name}",
                    (tuple(fam), tuple(image)),
                )
            )

    for x in target_minus_probes:
        pulled = candidate.apply_pull(x)
        for y in source_plus_probes:
            checks += 1
            if not source.holds(pulled, y):
                continue
            engaged += 1
            pushed = candidate.apply_push(y)
            if not target.holds(x, pushed):
                violations.append(
                    Violation(
                        "relation",
                        "pulled element relates in the source but the original "
                        "does not relate to the pushed element",
                        (x, y, pulled, pushed),
                    )
                )

    src_name = source.name if isinstance(source, CodedTriple) else "finite"
    tgt_name = target.name if isinstance(target, CodedTriple) else "finite"
    return MorphismReport(
        candidate.name or "candidate",
        src_name,
        tgt_name,
        tuple(violations),
        checks,
        engaged,
        family_checks,
    )
