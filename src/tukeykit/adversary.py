"""The adversary engine: predictors (interval cuts and forecast tables)
built against a continuous machine, predicted families, and
non-splitting certificates for their images.

A continuous machine answers queries "given this bit prefix, what is
the output's value at m?" with 0, 1, or undecided, and decided answers
must persist under prefix extension.  Level by level the engine finds a
fresh pivot position and, for every history over the intervals built so
far, an extension forcing the machine's output to 1 at that pivot.  The
extensions, padded to a common length, become the next interval and the
predictor's forecasts.  Elements predicted on a fixed residue class of
levels keep their free intervals fully flexible (so they can split
anything living there), while their images are pinned to 1 on the whole
pivot class, which is the finite obstruction the certificates record.

Cost: a depth-d construction against the identity machine makes
4 * 2^d - 4 queries, and each is one meter step and one machine answer.
``MeteredMachine.query`` checks and counts the budget and calls the inner
``query``, bound once when the meter is built; the built-in identity and
flip machines answer by one table lookup.  That method is the one point
where queries are counted, until a package-level counter takes over
(ROADMAP.md, ``Stats``).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Mapping, Protocol

from .errors import BudgetExhausted, CertificateError, MachineBudgetError
from .records import Record, set_field

if TYPE_CHECKING:
    from .upsets import UPSet


class ContinuousMachine(Protocol):
    name: str

    def query(self, prefix: str, m: int) -> int | None: ...


class FunctionMachine(Record):
    """A machine whose ``query`` is a total bit-prefix rule."""

    __slots__ = ("name", "query")


# bit m's answer by its character, for the identity and flip machines
_BITS = {"0": 0, "1": 1}
_FLIPPED_BITS = {"0": 1, "1": 0}


def _bit_machine(name: str, answers: Mapping[str, int]) -> FunctionMachine:
    """A machine answering bit m of the prefix through ``answers``, by
    lookup rather than ``int()``; undecided past the prefix."""

    def query(prefix: str, m: int) -> int | None:
        if m >= len(prefix):
            return None
        try:
            return answers[prefix[m]]
        except KeyError:
            raise ValueError(f"prefix holds {prefix[m]!r} at {m}, not a bit") from None

    return FunctionMachine(name, query)


def identity_machine() -> FunctionMachine:
    return _bit_machine("identity", _BITS)


def constant_machine(bit: int) -> FunctionMachine:
    return FunctionMachine(f"constant-{bit}", lambda prefix, m: bit)


def flip_machine() -> FunctionMachine:
    return _bit_machine("flip", _FLIPPED_BITS)


class MeteredMachine:
    """Budget wrapper; every query decrements the remaining budget.  The
    inner machine's ``query`` is bound once, here."""

    __slots__ = ("_query", "budget", "used")

    def __init__(self, inner: ContinuousMachine, budget: int) -> None:
        self._query = inner.query
        self.budget = budget
        self.used = 0

    def query(self, prefix: str, m: int) -> int | None:
        if self.used >= self.budget:
            raise _BudgetSignal("metered machine", (prefix, m))
        self.used += 1
        return self._query(prefix, m)


class _BudgetSignal(MachineBudgetError):
    """The metered machine's budget ran out; ``build_adversary`` turns
    this into a ``BudgetExhausted`` naming the level, history and pivot
    it stopped at."""


def _bit_words(words, width: int) -> bool:
    """Is each string of ``words`` a bit string of length ``width``?
    Joined by commas, they are: the line's length is that of the commas
    plus ``width`` per word, its every (width + 1)-th character from
    ``width`` on is a comma, and deleting the bits leaves only those
    commas.  Each check is one pass in C, where a set of the words'
    lengths would call ``len`` once per word."""
    line = ",".join(words)
    commas = "," * (len(words) - 1)
    return (
        len(line) == len(commas) + len(words) * width
        and line[width :: width + 1] == commas
        and line.encode().translate(None, b"01") == commas.encode()
    )


class Predictor(Record):
    """Consecutive finite intervals [cuts[k], cuts[k+1]) and total
    forecast tables, one per interval: level k maps each history over
    the earlier intervals to a block over interval k."""

    __slots__ = ("cuts", "tables")

    def __init__(self, cuts: tuple[int, ...],
                 tables: tuple[Mapping[str, str], ...]) -> None:
        if not cuts or cuts[0] != 0:
            raise ValueError("cuts start at 0")
        if any(a >= b for a, b in zip(cuts, cuts[1:])):
            raise ValueError("intervals must be nonempty")
        if len(tables) != len(cuts) - 1:
            raise ValueError(f"{len(cuts) - 1} intervals need as many tables, got {len(tables)}")
        for k, table in enumerate(tables):
            width = cuts[k]
            block = cuts[k + 1] - width
            # 2^width distinct width-bit keys are exactly the histories
            if len(table) != 2**width:
                raise ValueError(f"table {k} is not total over 2^{width} histories")
            if not _bit_words(table, width):
                raise ValueError(f"table {k} keys must be the {width}-bit histories")
            if not _bit_words(table.values(), block):
                raise ValueError(f"table {k} forecasts must be bit strings of length {block}")
        set_field(self, "cuts", cuts)
        set_field(self, "tables", tables)

    @property
    def depth(self) -> int:
        return len(self.tables)

    def interval(self, k: int) -> range:
        return range(self.cuts[k], self.cuts[k + 1])

    def forecast(self, history: str, k: int) -> str:
        return self.tables[k][history]


class DecidedFact(Record):
    # every input extending ``history`` by level ``level``'s forecast
    # makes the machine decide 1 at ``pivot``
    __slots__ = ("level", "history", "pivot")


class AdversaryCertificate(Record):
    # pivots[k]: the level-k pivot; queries_used: the machine queries spent
    __slots__ = ("machine_name", "predictor", "pivots", "queries_used")

    def __init__(self, machine_name: str, predictor: Predictor,
                 pivots: tuple[int, ...], queries_used: int) -> None:
        if len(pivots) != predictor.depth:
            raise ValueError(f"{predictor.depth} levels need as many pivots, got {len(pivots)}")
        super().__init__(machine_name, predictor, pivots, queries_used)

    @property
    def depth(self) -> int:
        return self.predictor.depth

    @property
    def facts(self) -> tuple[DecidedFact, ...]:
        """The decided answers the tables record: at each level, every
        history's cylinder decides 1 at that level's pivot."""
        return tuple(
            DecidedFact(level, history, pivot)
            for level, (table, pivot) in enumerate(zip(self.predictor.tables, self.pivots))
            for history in table
        )

    def to_json(self) -> dict:
        return {
            "machine": self.machine_name,
            "cuts": list(self.predictor.cuts),
            "pivots": list(self.pivots),
            "tables": [dict(sorted(t.items())) for t in self.predictor.tables],
            "facts": [
                {"level": f.level, "history": f.history, "pivot": f.pivot}
                for f in self.facts
            ],
            "queries_used": self.queries_used,
        }


def verify_certificate(cert: AdversaryCertificate, machine: ContinuousMachine) -> int:
    """Re-run every decided fact against a fresh machine; returns the
    number of confirmed facts and raises on any contradiction."""
    confirmed = 0
    for level, (table, pivot) in enumerate(zip(cert.predictor.tables, cert.pivots)):
        for history, block in table.items():
            answer = machine.query(history + block, pivot)
            if answer != 1:
                raise CertificateError(
                    f"machine answered {answer!r} at pivot {pivot} on a "
                    f"recorded level-{level} cylinder"
                )
        confirmed += len(table)
    return confirmed


# _WORDS[n]: the words of length n, lexicographically, for n <= 8 (511
# strings); _UP_TO[n]: the words of length at most n, shortest first and
# then lexicographically, sharing those strings
_WORDS = [
    tuple(map("".join, itertools.product("01", repeat=n))) for n in range(9)
]
_UP_TO = list(itertools.accumulate(_WORDS))


def _words(length: int):
    """The words of the given length, lexicographically; longer ones
    than the table holds are streamed, never listed."""
    if length < len(_WORDS):
        return _WORDS[length]
    return map("".join, itertools.product("01", repeat=length))


def _long_extensions(max_len: int):
    """Every word of length at most ``max_len``, past the table's
    lengths, shortest first and then lexicographically, streamed."""
    longer = range(len(_WORDS), max_len + 1)
    return itertools.chain(
        _UP_TO[-1], itertools.chain.from_iterable(map(_words, longer))
    )


def build_adversary(
    machine: ContinuousMachine, depth: int, budget: int = 10**6
) -> AdversaryCertificate:
    """Run the level construction to the requested depth.

    Per level the engine dovetails over pivots; for each pivot every
    history, in lexicographic order, takes its first extension, in
    (length, lexicographic) order, on which the machine decides 1 at
    the pivot, with the allowed extension length growing with the
    pivot.  The first pivot where every history succeeds becomes the
    level's pivot, and the per-history extensions (padded to a common
    length) become the next interval and the forecasts.  Exhaustion
    raises with the failing frontier and the completed levels as a
    partial certificate; it is never retried silently.
    """
    if depth < 0:
        raise ValueError(f"depth must be a natural, got {depth}")
    if budget < 0:
        raise ValueError(f"budget must be a natural, got {budget}")
    metered = MeteredMachine(machine, budget)
    query = metered.query
    cuts = [0]
    pivots: list[int] = []
    tables: list[dict[str, str]] = []
    histories = [""]
    # where the budget ran out: the level, the history and the pivot
    stop: tuple[int, str, int] | None = None

    for level in range(depth):
        width = cuts[-1]
        if level:
            block = width - cuts[-2]
            histories = [h + tail for h in histories for tail in _words(block)]
        pivot = (pivots[-1] + 1) if pivots else 0
        try:
            while True:
                # candidate extensions, shortest first and then
                # lexicographically; a stream past the table's lengths is
                # used up by one history, so each history starts its own.
                # max_len >= 1: a level's first pivot is at least its
                # width - 1, as the previous block ends at most 2 past
                # the previous pivot
                max_len = pivot + 2 - width
                short = _UP_TO[max_len] if max_len < len(_UP_TO) else None
                # exts[i] is the extension found for histories[i]
                exts: list[str] = []
                for history in histories:
                    for ext in short or _long_extensions(max_len):
                        if query(history + ext, pivot) == 1:
                            exts.append(ext)
                            break
                    else:
                        break
                if len(exts) == len(histories):
                    break
                pivot += 1
            block = max(1, max(map(len, exts)))
            padded = [ext + "0" * (block - len(ext)) for ext in exts]
            for history, ext in zip(histories, padded):
                if query(history + ext, pivot) != 1:
                    raise CertificateError(
                        "a decided answer did not persist under padding; the "
                        "machine is not monotone"
                    )
        except _BudgetSignal:
            stop = level, history, pivot
            break
        cuts.append(width + block)
        pivots.append(pivot)
        tables.append(dict(zip(histories, padded)))

    cert = AdversaryCertificate(
        machine.name,
        Predictor(tuple(cuts), tuple(tables)),
        tuple(pivots),
        metered.used,
    )
    if stop is not None:
        raise BudgetExhausted(*stop, cert if tables else None)
    return cert


# -- predicted families -------------------------------------------------------


def _check_class(n: int, r: int) -> None:
    """Refuse a residue class r mod n of levels unless 0 <= r < n."""
    if not 0 <= r < n:
        raise ValueError("need 0 <= r < n")


def predicted_element(
    cert: AdversaryCertificate,
    n: int,
    r: int,
    free_bits: Mapping[int, str] | None = None,
    fill: str = "0",
) -> str:
    """An element predicted at every level congruent to r mod n, with
    the remaining intervals taken from ``free_bits`` (default: fill)."""
    _check_class(n, r)
    if fill not in ("0", "1"):
        raise ValueError("fill must be a bit")
    cuts = cert.predictor.cuts
    out = ""
    for k in range(cert.depth):
        block = cuts[k + 1] - cuts[k]
        if k % n == r:
            out += cert.predictor.forecast(out, k)
        else:
            bits = (free_bits or {}).get(k, fill * block)
            if len(bits) != block or set(bits) - {"0", "1"}:
                raise ValueError(f"free bits for level {k} must be {block} bits")
            out += bits
    return out


class SplitterTrace(Record):
    # hits: (position, assigned bit) on the target
    __slots__ = ("element", "n", "r", "hits")

    @property
    def ones(self) -> int:
        return sum(1 for _, b in self.hits if b == 1)

    @property
    def zeros(self) -> int:
        return sum(1 for _, b in self.hits if b == 0)


def splitter_from_free_class(
    cert: AdversaryCertificate, n: int, r: int, target: UPSet
) -> SplitterTrace:
    """A predicted element alternating its free bits on the target, so
    both colors hit the target inside the free region."""
    _check_class(n, r)
    free = [
        p
        for k in range(cert.depth)
        if k % n != r
        for p in cert.predictor.interval(k)
        if p in target
    ]
    if len(free) < 2:
        raise ValueError(
            "target meets the free region fewer than twice within the "
            "constructed depth"
        )
    assignment = {p: (1 - i % 2) for i, p in enumerate(free)}
    free_bits = {}
    for k in range(cert.depth):
        if k % n == r:
            continue
        free_bits[k] = "".join(
            str(assignment.get(p, 0)) for p in cert.predictor.interval(k)
        )
    element = predicted_element(cert, n, r, free_bits)
    hits = tuple((p, assignment[p]) for p in free)
    for p, b in hits:
        if int(element[p]) != b:
            raise CertificateError(f"predicted element misses bit {b} at free point {p}")
    return SplitterTrace(element, n, r, hits)


class ImagePinning(Record):
    """Certified machine answers: the image of the element is 1 at every
    pivot of the predicted residue class, so within the constructed
    depth it cannot take the value 0 there."""

    __slots__ = ("element", "n", "r", "pinned_pivots")


def image_nonsplit_certificate(
    cert: AdversaryCertificate,
    machine: ContinuousMachine,
    element: str,
    n: int,
    r: int,
) -> ImagePinning:
    """Re-query the machine along the element's predicted levels and
    confirm the recorded value-1 answers at the class pivots."""
    _check_class(n, r)
    cuts = cert.predictor.cuts
    if len(element) < cuts[-1]:
        raise ValueError("element must be determined over the whole partition")
    pinned = []
    for k in range(cert.depth):
        if k % n != r:
            continue
        history = element[: cuts[k]]
        if element[cuts[k] : cuts[k + 1]] != cert.predictor.forecast(history, k):
            raise ValueError(f"element is not predicted at level {k}")
        answer = machine.query(element[: cuts[k + 1]], cert.pivots[k])
        if answer != 1:
            raise CertificateError(
                f"machine answered {answer!r} at pivot {cert.pivots[k]}, "
                f"contradicting the level-{k} decided fact"
            )
        pinned.append(cert.pivots[k])
    return ImagePinning(element, n, r, tuple(pinned))


class FamilyReport(Record):
    # spec: the residue class (n, r) of levels; skipped_targets: indices of
    # the targets the free region meets fewer than twice
    __slots__ = ("spec", "representative", "splits", "pinnings", "skipped_targets")


def multiclass_family(
    cert: AdversaryCertificate,
    machine: ContinuousMachine,
    specs: list[tuple[int, int]],
    targets: list[UPSet] | None = None,
) -> list[FamilyReport]:
    """One report per residue class: a representative predicted element,
    splitter traces for the targets its free region can reach, and the
    pinned-image certificates pairing them."""
    reports = []
    for n, r in specs:
        rep = predicted_element(cert, n, r, fill="1")
        splits = []
        pinnings = [image_nonsplit_certificate(cert, machine, rep, n, r)]
        skipped = []
        for i, target in enumerate(targets or []):
            try:
                trace = splitter_from_free_class(cert, n, r, target)
            except ValueError:
                skipped.append(i)
                continue
            splits.append(trace)
            pinnings.append(
                image_nonsplit_certificate(cert, machine, trace.element, n, r)
            )
        reports.append(
            FamilyReport((n, r), rep, tuple(splits), tuple(pinnings), tuple(skipped))
        )
    return reports
