"""The errors the command line reports, and how it reports them.

Each class is re-exported by the module that raises it (``triples``,
``adversary``, ``apfuncs``, ``branchmap``, ``catalog``, ``gadgets``,
``splitorder``, ``wire``).  This module imports nothing from the
package, so ``cli.main`` maps an error to its exit status without
loading the modules behind other verbs.

Five classes, one per cause.  Exit 2, with an ``error: ...`` line
(``USAGE_ERRORS``, beside ``ValueError`` and ``OSError``):
``ContractBreach``, a value or candidate outside its declared carriers,
and ``CertificateError``, a recorded fact that failed re-verification.
Exit 3, with a ``budget: ...`` line (``BUDGET_ERRORS``):
``MachineBudgetError``, a map that gave no answer, ``BudgetExhausted``,
an adversary out of queries, and ``EnumerationBudget``, a size guard
that refused work before starting it.  Anything else propagates.
"""

from __future__ import annotations


class ContractBreach(ValueError):
    """A candidate map returned a value outside its declared carrier, or
    a candidate does not respect the carriers it declares."""


class CertificateError(RuntimeError):
    """A certificate failed its re-verification: a machine contradicted
    one of its recorded decided answers, or an invariant the mathematics
    guarantees did not hold.  It points at a misbehaving map or machine
    (or a fault in the package), never at a verdict."""


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
    """``build_adversary`` ran out of machine queries at ``level``, while
    extending ``history`` and trying ``pivot``; ``partial`` is the
    certificate of the levels completed, or None before the first."""

    def __init__(self, level: int, history: str, pivot: int, certificate: object):
        self.level = level
        self.history = history
        self.pivot = pivot
        self.partial = certificate
        super().__init__(
            f"query budget exhausted at level {level}, "
            f"history {history!r}, pivot {pivot}"
        )


class EnumerationBudget(RuntimeError):
    """An enumeration, search or window of values would exceed its size
    guard; raised before the work starts."""


USAGE_ERRORS = (ValueError, OSError, CertificateError)
BUDGET_ERRORS = (MachineBudgetError, EnumerationBudget, BudgetExhausted)
