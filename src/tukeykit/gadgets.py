"""Refutation gadgets: small concrete inputs that defeat entire classes
of candidate morphisms, with certificates the core decision procedures
re-verify.

Both gadgets run arbitrary user-supplied map pairs (budgeted machines)
and return a violation whose clauses are checked exactly, so a returned
certificate is a proof about the supplied candidate, not a sample.
"""

from __future__ import annotations

from dataclasses import dataclass

from .apfuncs import APFunc, eventually_dominates, pointwise_max
from .triples import MorphismCandidate
from .upsets import (
    EVENS,
    ODDS,
    UPSet,
    almost_subset,
    intersection_of,
    is_linearly_ordered,
)


class ContractBreach(ValueError):
    """A candidate map returned a value outside its declared carrier."""


@dataclass(frozen=True)
class MaxPairViolation:
    """Witness that a pull/push pair cannot satisfy
    "pull(f) meets A infinitely => f does not eventually dominate push(A)".

    ``combined`` dominates both pushed complementary halves at once, and
    ``side`` is a half that pull(combined) meets infinitely.
    """

    combined: APFunc
    side_name: str
    side: UPSet
    pulled: UPSet
    pushed_side: APFunc

    def verify(self) -> bool:
        meets = (self.pulled & self.side).is_infinite
        dominates = eventually_dominates(self.combined, self.pushed_side)
        return meets and dominates


def refute_filterclass_to_unbounded(
    candidate: MorphismCandidate,
    *,
    halves: tuple[tuple[str, UPSet], tuple[str, UPSet]] = (("O", ODDS), ("E", EVENS)),
) -> MaxPairViolation:
    """Defeat any candidate from a filter-style inclusion triple to the
    unbounded triple.

    The pull map takes functions to sets, the push map takes sets to
    functions.  Pushing both halves of a complementary pair and taking
    the pointwise maximum yields one function dominating both pushed
    values; whichever half the pulled set meets infinitely gives the
    violation.
    """
    (name_a, set_a), (name_b, set_b) = halves
    if not (set_a | set_b).is_cofinite or not (set_a & set_b).is_finite:
        raise ValueError("the gadget needs an almost complementary pair")
    if not set_a.is_infinite or not set_b.is_infinite:
        raise ValueError("both halves must be infinite")
    pushed = {name_a: candidate.apply_push(set_a), name_b: candidate.apply_push(set_b)}
    for name, val in pushed.items():
        if not isinstance(val, APFunc):
            raise ContractBreach(f"push map must produce functions, got {val!r} on {name}")
    combined = pointwise_max(pushed[name_a], pushed[name_b])
    pulled = candidate.apply_pull(combined)
    if not isinstance(pulled, UPSet):
        raise ContractBreach(f"pull map must produce sets, got {pulled!r}")
    if pulled.is_finite:
        raise ContractBreach("pull map must land in infinite co-infinite sets")
    for name, half in ((name_a, set_a), (name_b, set_b)):
        if (pulled & half).is_infinite:
            violation = MaxPairViolation(combined, name, half, pulled, pushed[name])
            if not violation.verify():
                raise AssertionError("max-pair certificate failed re-verification")
            return violation
    raise AssertionError("an infinite set meets one half of a complementary pair")


@dataclass(frozen=True)
class ThreeSetsViolation:
    """Violation found by the three-sets gadget.

    ``kind`` is "family" when two centered inputs have incomparable
    images, and "relation" when the common image intersection pulls
    back outside one of the three sets.
    """

    kind: str
    detail: str
    # family case: the centered pair and its images
    pair: tuple[UPSet, UPSet] | None = None
    images: tuple[UPSet, UPSet] | None = None
    # relation case: the witnessing instance
    common: UPSet | None = None
    culprit: UPSet | None = None
    culprit_image: UPSet | None = None
    pulled: UPSet | None = None

    def verify(self) -> bool:
        if self.kind == "family":
            a, b = self.pair
            return (
                (a & b).is_infinite
                and not is_linearly_ordered(list(self.images))
            )
        return (
            almost_subset(self.common, self.culprit_image)
            and not almost_subset(self.pulled, self.culprit)
        )


def _default_three_sets() -> tuple[UPSet, UPSet, UPSet]:
    return (
        UPSet.from_residues(3, {0, 1}),
        UPSet.from_residues(3, {1, 2}),
        UPSet.from_residues(3, {0, 2}),
    )


def refute_pseudo_intersection_to_tower(
    candidate: MorphismCandidate,
    sets: tuple[UPSet, UPSet, UPSet] | None = None,
) -> ThreeSetsViolation:
    """Defeat any candidate from the pseudo-intersection triple to the
    tower triple.

    Three infinite sets with infinite pairwise but empty triple
    intersection make the conditions collide: pairs are centered, so
    their images must be chains, so the full image intersection is an
    infinite set almost inside every image; pulling it back cannot stay
    almost inside all three originals.
    """
    trio = sets if sets is not None else _default_three_sets()
    a, b, c = trio
    if not intersection_of([a, b]).is_infinite or not intersection_of(
        [a, c]
    ).is_infinite or not intersection_of([b, c]).is_infinite:
        raise ValueError("pairwise intersections must be infinite")
    if intersection_of([a, b, c]).is_infinite:
        raise ValueError("the triple intersection must be finite")
    images = {}
    for s in trio:
        out = candidate.apply_push(s)
        if not isinstance(out, UPSet) or not out.is_infinite:
            raise ContractBreach(f"push map must produce infinite sets, got {out!r}")
        images[s] = out
    for x, y in ((a, b), (a, c), (b, c)):
        ix, iy = images[x], images[y]
        if not (almost_subset(ix, iy) or almost_subset(iy, ix)):
            violation = ThreeSetsViolation(
                "family",
                "a centered pair has images incomparable under almost inclusion",
                pair=(x, y),
                images=(ix, iy),
            )
            if not violation.verify():
                raise AssertionError("three-sets family certificate failed re-verification")
            return violation
    common = intersection_of(list(images.values()))
    if not common.is_infinite:
        raise AssertionError("a chain of infinite sets meets in an infinite set")
    pulled = candidate.apply_pull(common)
    if not isinstance(pulled, UPSet) or not pulled.is_infinite:
        raise ContractBreach(f"pull map must produce infinite sets, got {pulled!r}")
    for s in trio:
        if not almost_subset(pulled, s):
            violation = ThreeSetsViolation(
                "relation",
                "the common image intersection is almost inside every image "
                "but its pullback escapes one of the three sets",
                common=common,
                culprit=s,
                culprit_image=images[s],
                pulled=pulled,
            )
            if not violation.verify():
                raise AssertionError("three-sets relation certificate failed re-verification")
            return violation
    raise AssertionError(
        "an infinite set cannot be almost inside three sets with finite "
        "triple intersection"
    )
