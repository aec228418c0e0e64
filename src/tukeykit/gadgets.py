"""Refutation gadgets: small concrete inputs that defeat entire classes
of candidate morphisms, with certificates the core decision procedures
re-verify.

Each gadget refutes one non-edge of the Borel diagram, a->b or p->t,
and checks through that row's catalog triples.

Both gadgets run arbitrary user-supplied map pairs (budgeted machines)
and return a violation whose clauses are checked exactly, so a returned
certificate is a proof about the supplied candidate, not a sample.
"""

from __future__ import annotations

from .apfuncs import pointwise_max
from .catalog import UPSET, catalog
from .errors import CertificateError, ContractBreach
from .records import Record, set_field
from .triples import MorphismCandidate
from .upsets import EVENS, ODDS, UPSet, intersection_of

# the triples of the two refuted rows, a->b and p->t
_A, _B, _P, _T = map(catalog().get, "abpt")


class MaxPairViolation(Record):
    """Witness that a pull/push pair cannot satisfy
    "pull(f) meets A infinitely => f does not eventually dominate push(A)".

    ``combined`` dominates both pushed complementary halves at once, and
    ``side`` is a half that pull(combined) meets infinitely.  ``verify``
    reads a and b, so a value off their carriers raises ``ContractBreach``.
    """

    __slots__ = ("combined", "side_name", "side", "pulled", "pushed_side")

    def verify(self) -> bool:
        return _A.holds(self.pulled, self.side) and not _B.holds(self.combined, self.pushed_side)


def refute_filterclass_to_unbounded(candidate: MorphismCandidate) -> MaxPairViolation:
    """Defeat any candidate from the almost-disjointness triple a to the
    unbounding triple b.

    The pull map takes functions to sets, the push map takes sets to
    functions.  Pushing both halves of the complementary pair (O, E) of
    odd and even numbers and taking the pointwise maximum yields one
    function dominating both pushed values; whichever half the pulled
    set meets infinitely gives the violation.
    """
    halves = (("O", ODDS), ("E", EVENS))
    pushed = {name: candidate.apply_push(half) for name, half in halves}
    for name, val in pushed.items():
        if not _B.plus.validate(val):
            raise ContractBreach(f"push map must produce functions, got {val!r} on {name}")
    combined = pointwise_max(pushed["O"], pushed["E"])
    pulled = candidate.apply_pull(combined)
    if not _A.minus.validate(pulled):
        raise ContractBreach("pull map must land in infinite co-infinite sets")
    for name, half in halves:
        if _A.holds(pulled, half):
            violation = MaxPairViolation(combined, name, half, pulled, pushed[name])
            if not violation.verify():
                raise CertificateError("max-pair certificate failed re-verification")
            return violation
    raise CertificateError("an infinite set meets one half of a complementary pair")


class ThreeSetsViolation(Record):
    """Violation found by the three-sets gadget.

    ``kind`` is "family" when two centered inputs have incomparable
    images, and "relation" when the common image intersection pulls
    back outside one of the three sets.  ``verify`` reads p and t, so in
    the relation case a value off their carriers raises ``ContractBreach``.
    """

    # family case: ``pair`` and its ``images``; relation case: the
    # witnessing ``common``, ``culprit``, ``culprit_image`` and ``pulled``
    __slots__ = ("kind", "detail", "pair", "images", "common", "culprit", "culprit_image",
                 "pulled")

    def __init__(self, kind: str, detail: str, pair: tuple[UPSet, UPSet] | None = None,
                 images: tuple[UPSet, UPSet] | None = None, common: UPSet | None = None,
                 culprit: UPSet | None = None, culprit_image: UPSet | None = None,
                 pulled: UPSet | None = None) -> None:
        set_field(self, "kind", kind)
        set_field(self, "detail", detail)
        set_field(self, "pair", pair)
        set_field(self, "images", images)
        set_field(self, "common", common)
        set_field(self, "culprit", culprit)
        set_field(self, "culprit_image", culprit_image)
        set_field(self, "pulled", pulled)

    def verify(self) -> bool:
        if self.kind == "family":
            return _P.property(list(self.pair)) and not _T.property(list(self.images))
        return _P.holds(self.pulled, self.culprit) and not _T.holds(self.common, self.culprit_image)


def refute_pseudo_intersection_to_tower(candidate: MorphismCandidate) -> ThreeSetsViolation:
    """Defeat any candidate from the pseudo-intersection triple p to the
    tower triple t.

    Three infinite sets with infinite pairwise but empty triple
    intersection make the conditions collide: pairs are centered, so
    their images must be chains, so the full image intersection is an
    infinite set almost inside every image; pulling it back cannot stay
    almost inside all three originals.  The three sets are the residue
    pairs {0, 1}, {1, 2} and {0, 2} mod 3.
    """
    trio = tuple(UPSet.from_residues(3, r) for r in ({0, 1}, {1, 2}, {0, 2}))
    a, b, c = trio
    images = {}
    for s in trio:
        out = candidate.apply_push(s)
        # narrower than t's plus side: glued images have no intersection
        if not UPSET.validate(out):
            raise ContractBreach(f"push map must produce infinite sets, got {out!r}")
        images[s] = out
    for x, y in ((a, b), (a, c), (b, c)):
        ix, iy = images[x], images[y]
        if not _T.property([ix, iy]):
            violation = ThreeSetsViolation(
                "family",
                "a centered pair has images incomparable under almost inclusion",
                pair=(x, y),
                images=(ix, iy),
            )
            if not violation.verify():
                raise CertificateError("three-sets family certificate failed re-verification")
            return violation
    common = intersection_of(list(images.values()))
    if not _T.minus.validate(common):
        raise CertificateError("a chain of infinite sets meets in an infinite set")
    pulled = candidate.apply_pull(common)
    if not _P.minus.validate(pulled):
        raise ContractBreach(f"pull map must produce infinite sets, got {pulled!r}")
    for s in trio:
        if _P.holds(pulled, s):
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
                raise CertificateError("three-sets relation certificate failed re-verification")
            return violation
    raise CertificateError(
        "an infinite set cannot be almost inside three sets with finite "
        "triple intersection"
    )
