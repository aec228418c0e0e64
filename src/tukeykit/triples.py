"""Relational triples, duality, norms, and probe-checked morphisms.

A triple is a relation between a minus side and a plus side; its norm
is the least size of a plus-side family relating to everything on the
minus side, optionally constrained by a property of families.  A
morphism candidate is a pair of total maps pulling minus elements back
and pushing plus elements forward.  Both kinds of triple give a name, a
property and a probe list per side, which is all a check reads: a finite
triple's probes are its whole carriers, so its checks are exhaustive; a
coded triple's (carriers standing for spaces of reals) are its kinds'
probe lists, and reports say the verdict holds on probes.
"""

from __future__ import annotations

import itertools
from operator import attrgetter
from typing import Any, Callable, Sequence

from .errors import ContractBreach, EnumerationBudget, MachineBudgetError
from .records import Record, set_field


# -- finite triples ------------------------------------------------------


class FiniteTriple(Record):
    """A finite relation given by labels and a boolean matrix.  It
    carries no property, and each side is its own probe list."""

    __slots__ = ("minus", "plus", "relation")

    def __init__(self, minus: tuple[str, ...], plus: tuple[str, ...],
                 relation: tuple[tuple[bool, ...], ...]) -> None:
        minus = tuple(minus)
        plus = tuple(plus)
        rel = tuple(tuple(bool(v) for v in row) for row in relation)
        if len(set(minus)) != len(minus) or len(set(plus)) != len(plus):
            raise ValueError("labels must be unique")
        if len(rel) != len(minus) or any(len(row) != len(plus) for row in rel):
            raise ValueError("relation shape must match the carriers")
        set_field(self, "minus", minus)
        set_field(self, "plus", plus)
        set_field(self, "relation", rel)

    def holds(self, x: str, y: str) -> bool:
        return self.relation[self.minus.index(x)][self.plus.index(y)]

    minus_probes = property(attrgetter("minus"))
    plus_probes = property(attrgetter("plus"))
    # set last, since in the class body ``property`` hides the builtin
    name, property = "finite", None


# -- coded triples -------------------------------------------------------


class FamilyProperty(Record):
    """A predicate on finite families of plus-side values."""

    __slots__ = ("name", "check", "note")

    def __call__(self, family: list) -> bool:
        return self.check(family)


class Kind(Record):
    """A carrier kind: its printed name, the test a value must pass to
    sit on a side of this kind, and the probe list that stands in for
    the whole carrier when a morphism is checked."""

    __slots__ = ("name", "validate", "probes")

    def __repr__(self) -> str:
        # the name alone: the validator prints with a memory address and
        # the probe list at length, so a triple's repr would be neither
        # stable nor short
        return f"Kind(name={self.name!r})"


class CodedTriple(Record):
    """A triple whose carriers are decidable stand-ins for real spaces."""

    __slots__ = ("name", "minus", "plus", "relation", "property", "relation_name")

    def __init__(self, name: str, minus: Kind, plus: Kind, relation: Callable[[Any, Any], bool],
                 property: FamilyProperty | None = None, relation_name: str = "") -> None:
        set_field(self, "name", name)
        set_field(self, "minus", minus)
        set_field(self, "plus", plus)
        set_field(self, "relation", relation)
        set_field(self, "property", property)
        set_field(self, "relation_name", relation_name)

    def holds(self, x: Any, y: Any) -> bool:
        if not self.minus.validate(x):
            raise ContractBreach(f"{x!r} is not a valid minus value for {self.name}")
        if not self.plus.validate(y):
            raise ContractBreach(f"{y!r} is not a valid plus value for {self.name}")
        return self.relation(x, y)

    minus_probes = property(attrgetter("minus.probes"))
    plus_probes = property(attrgetter("plus.probes"))


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


def is_dominating(family: Sequence[Any], t: Triple) -> bool:
    """Does every minus probe relate to some family member?  Exhaustive
    for finite triples; coded triples are judged on their probes."""
    return all(any(t.holds(x, y) for y in family) for x in t.minus_probes)


_NORM_SEARCH_BOUND = 20


def finite_norm(
    t: FiniteTriple, prop: Callable[[tuple], bool] | None = None
) -> int | None:
    """Exact least size of a dominating family satisfying ``prop``,
    searched by increasing size; None encodes "no such family"."""
    if len(t.plus) > _NORM_SEARCH_BOUND:
        raise EnumerationBudget(
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


class MorphismCandidate(Record):
    """A pair of total maps: ``pull`` takes target-minus values to
    source-minus values, ``push`` takes source-plus to target-plus."""

    __slots__ = ("pull", "push", "name")

    def __init__(self, pull: Callable[[Any], Any], push: Callable[[Any], Any],
                 name: str = "") -> None:
        set_field(self, "pull", pull)
        set_field(self, "push", push)
        set_field(self, "name", name)

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


# -- probe-relative checking ----------------------------------------------


class Violation(Record):
    # condition: "family" or "relation"
    __slots__ = ("condition", "detail", "data")


class MorphismReport(Record):
    __slots__ = ("candidate", "source", "target", "violations", "relation_checks",
                 "nonvacuous_checks", "family_checks")

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
    families: Sequence[Sequence[Any]] = (),
) -> MorphismReport:
    """Check both morphism conditions on the triples' probes.

    For finite triples the probes are the whole carriers, so the check
    is exhaustive.  For coded triples the verdict is only ever
    "consistent on probes"; the genuine conditions quantify over
    uncountable carriers.  A family that fails the source's property is
    refused with a ``ValueError``, since checking its image says nothing.
    """
    violations: list[Violation] = []
    checks = 0
    engaged = 0

    src_prop, tgt_prop = source.property, target.property
    for position, fam in enumerate(families):
        fam = list(fam)
        if src_prop is not None and not src_prop(fam):
            raise ValueError(
                f"family {position} fails {src_prop.name}, the property of {source.name}"
            )
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

    for x in target.minus_probes:
        pulled = candidate.apply_pull(x)
        for y in source.plus_probes:
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

    return MorphismReport(
        candidate.name or "candidate",
        source.name,
        target.name,
        tuple(violations),
        checks,
        engaged,
        len(families),
    )
