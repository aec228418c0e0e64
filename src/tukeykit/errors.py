"""The errors the command line reports, and how it reports them.

Each class is re-exported by the module that raises it (``triples``,
``adversary``, ``apfuncs``, ``branchmap``, ``gadgets``).  This module
imports nothing from the package, so ``cli.main`` maps an error to its
exit status without loading the modules behind other verbs.

Exit statuses: ``USAGE_ERRORS`` print ``error: ...`` and exit 2,
``BUDGET_ERRORS`` print ``budget: ...`` and exit 3; anything else
propagates.
"""

from __future__ import annotations


class KindMismatch(ValueError):
    pass


class ContractBreach(ValueError):
    """A candidate map returned a value outside its declared carrier."""


class MachineFault(RuntimeError):
    """A machine contradicted one of its recorded decided answers."""


class CertificateError(RuntimeError):
    """A certificate failed its re-verification, or an invariant the
    mathematics guarantees did not hold.  Like a ``MachineFault`` it
    points at a misbehaving map or machine (or a fault in the package),
    never at a verdict."""


class SearchBoundExceeded(RuntimeError):
    pass


# characters of a request's repr that a MachineBudgetError message shows
_SHOWN = 200


class MachineBudgetError(RuntimeError):
    """A candidate map failed to answer within its budget.  ``value`` is
    the request; the message shows the first ``_SHOWN`` characters of its
    repr and the full length, so a large request prints a short line."""

    def __init__(self, role: str, value: object):
        self.role = role
        self.value = value
        shown = repr(value)
        if len(shown) > _SHOWN:
            shown = f"{shown[:_SHOWN]}... ({len(shown)} characters)"
        super().__init__(f"{role} gave no answer on {shown}")


class BudgetExhausted(RuntimeError):
    """``build_adversary`` ran out of machine queries; ``progress`` says
    where, and ``partial`` holds the levels completed (both types live
    in ``adversary``)."""

    def __init__(self, progress: "PartialProgress", certificate: "AdversaryCertificate | None"):
        self.progress = progress
        self.partial = certificate
        super().__init__(
            f"query budget exhausted at level {progress.level}, "
            f"history {progress.history!r}, pivot {progress.pivot_tried}"
        )


class PrefixBudget(RuntimeError):
    """A window of values would exceed ``apfuncs._PREFIX_GUARD``."""


class EnumerationBudget(RuntimeError):
    """An enumeration would exceed its size guard."""


USAGE_ERRORS = (ValueError, OSError, MachineFault, CertificateError)
BUDGET_ERRORS = (
    MachineBudgetError,
    SearchBoundExceeded,
    EnumerationBudget,
    PrefixBudget,
    BudgetExhausted,
)
