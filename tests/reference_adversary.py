"""Reference adversary engine: the level construction with one search
call per history, a fresh word per candidate and every history of a
level enumerated from scratch.  The differential tests compare
``tukeykit.adversary.build_adversary`` against it."""

import itertools

from tukeykit.adversary import (
    AdversaryCertificate,
    ContinuousMachine,
    Predictor,
)
from tukeykit.errors import BudgetExhausted, CertificateError, MachineBudgetError


class Meter:
    """The oracle's own budget: a query past it raises
    ``MachineBudgetError``, so the library's meter is not shared."""

    def __init__(self, machine: ContinuousMachine, budget: int) -> None:
        self.machine = machine
        self.budget = budget
        self.used = 0

    def query(self, prefix: str, m: int) -> int | None:
        if self.used >= self.budget:
            raise MachineBudgetError("reference meter", (prefix, m))
        self.used += 1
        return self.machine.query(prefix, m)


def histories(width: int):
    for bits in itertools.product("01", repeat=width):
        yield "".join(bits)


def find_extension(
    machine: Meter, stem: str, pivot: int, max_len: int
) -> str | None:
    """Shortest-then-lexicographically-least extension making the
    machine decide 1 at the pivot."""
    for length in range(max(0, max_len) + 1):
        for bits in itertools.product("01", repeat=length):
            ext = "".join(bits)
            if machine.query(stem + ext, pivot) == 1:
                return ext
    return None


def build_adversary(
    machine: ContinuousMachine, depth: int, budget: int = 10**6
) -> AdversaryCertificate:
    metered = Meter(machine, budget)
    cuts = [0]
    pivots: list[int] = []
    tables: list[dict[str, str]] = []

    def fail(level: int, history: str, pivot: int):
        partial = None
        if level > 0:
            partial = AdversaryCertificate(
                machine.name,
                Predictor(tuple(cuts), tuple(tables)),
                tuple(pivots),
                metered.used,
            )
        return BudgetExhausted(level, history, pivot, partial)

    for level in range(depth):
        width = cuts[-1]
        level_histories = list(histories(width))
        pivot = (pivots[-1] + 1) if pivots else 0
        found: dict[str, str] | None = None
        while found is None:
            attempt: dict[str, str] = {}
            try:
                for history in level_histories:
                    ext = find_extension(metered, history, pivot, pivot + 2 - width)
                    if ext is None:
                        attempt = {}
                        break
                    attempt[history] = ext
                else:
                    found = attempt
                    break
            except MachineBudgetError:
                raise fail(level, history, pivot) from None
            pivot += 1
        block = max(1, max(len(v) for v in found.values()))
        table = {}
        for history, ext in found.items():
            padded = ext + "0" * (block - len(ext))
            table[history] = padded
            try:
                answer = metered.query(history + padded, pivot)
            except MachineBudgetError:
                raise fail(level, history, pivot) from None
            if answer != 1:
                raise CertificateError(
                    "a decided answer did not persist under padding; the "
                    "machine is not monotone"
                )
        cuts.append(cuts[-1] + block)
        pivots.append(pivot)
        tables.append(table)

    return AdversaryCertificate(
        machine.name,
        Predictor(tuple(cuts), tuple(tables)),
        tuple(pivots),
        metered.used,
    )
