"""Traced runs: spans and counters around tukeykit's public calls,
installed from the benchmark's own files (``src/`` is not edited).

A span records (name, start, end, parent, query id, time covered by
children) and stays in memory until the run ends; a layer's self time
is its span time minus the covered part.  Hot leaves get count-only
wrappers instead, so millions of calls do not pile up records;
``LineProcess.ask`` also keeps its duration, which counts as covered
time of the enclosing span.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter, defaultdict

SPAN, COUNT, TIMED = "span", "count", "timed"


def _bits(tracer, args, result):
    s = args[0]
    tracer.counts["upsets.bits_materialized"] += len(s.prefix) + len(s.period)


def _morphism_report(tracer, args, report):
    tracer.counts["triples.relation_checks"] += report.relation_checks
    tracer.counts["triples.engaged_checks"] += report.nonvacuous_checks


def _certificate(tracer, args, cert):
    tracer.counts["adversary.facts"] += len(cert.facts)


def _verified(tracer, args, ok):
    tracer.counts["gadgets.certificates_verified"] += bool(ok)


def _spawn(tracer, args):
    proc = args[0]._proc
    if proc is None or proc.poll() is not None:
        tracer.counts["wire.spawns"] += 1


# (module, attribute, trace name, mode, before hook, after hook); the
# attribute is a module-level function or Class.method
PATCHES = (
    ("branchmap", "pair", "branchmap.pair", COUNT, None, None),
    ("branchmap", "unpair", "branchmap.unpair", COUNT, None, None),
    ("branchmap", "encode_blocks", "branchmap.encode_blocks", COUNT, None, None),
    ("branchmap", "ColumnTuple.__post_init__", "branchmap.ColumnTuple.init", COUNT, None, None),
    ("branchmap", "tuple_decode", "branchmap.tuple_decode", SPAN, None, None),
    ("branchmap", "tuple_at", "branchmap.tuple_at", SPAN, None, None),
    ("branchmap", "Branch.restrict", "branchmap.Branch.restrict", SPAN, None, None),
    ("branchmap", "image_prefix", "branchmap.image_prefix", SPAN, None, None),
    ("branchmap", "image_contains", "branchmap.image_contains", SPAN, None, None),
    ("branchmap", "witness_stream", "branchmap.witness_stream", SPAN, None, None),
    ("branchmap", "exact_intersection", "branchmap.exact_intersection", SPAN, None, None),
    ("branchmap", "divergence_level", "branchmap.divergence_level", SPAN, None, None),
    ("branchmap", "bound_from_trace", "branchmap.bound_from_trace", SPAN, None, None),
    ("upsets", "UPSet.__post_init__", "upsets.UPSet.init", COUNT, None, _bits),
    ("upsets", "UPSet.__contains__", "upsets.membership", COUNT, None, None),
    ("upsets", "UPSet._combine", "upsets.combine", SPAN, None, None),
    ("upsets", "almost_subset", "upsets.relations", SPAN, None, None),
    ("upsets", "almost_disjoint", "upsets.relations", SPAN, None, None),
    ("upsets", "splits", "upsets.relations", SPAN, None, None),
    ("upsets", "intersection_of", "upsets.families", SPAN, None, None),
    ("upsets", "is_centered", "upsets.families", SPAN, None, None),
    ("upsets", "is_linearly_ordered", "upsets.families", SPAN, None, None),
    ("upsets", "is_ad_family", "upsets.families", SPAN, None, None),
    ("upsets", "slice_by_index", "upsets.slice_by_index", SPAN, None, None),
    ("apfuncs", "APFunc.__post_init__", "apfuncs.APFunc.init", COUNT, None, None),
    ("apfuncs", "APFunc.__call__", "apfuncs.evaluations", COUNT, None, None),
    ("apfuncs", "eventually_dominates", "apfuncs.eventually_dominates", SPAN, None, None),
    ("apfuncs", "pointwise_max", "apfuncs.pointwise_max", SPAN, None, None),
    ("apfuncs", "first_difference", "apfuncs.first_difference", SPAN, None, None),
    ("triples", "check_morphism", "triples.check_morphism", SPAN, None, _morphism_report),
    ("triples", "finite_norm", "triples.finite_norm", SPAN, None, None),
    ("catalog", "default_probe_check", "catalog.default_probe_check", SPAN, None, None),
    ("catalog", "GluedImage.missing_elements", "catalog.GluedImage.missing_elements", SPAN, None, None),
    ("catalog", "vd_diagram", "catalog.vd_diagram", SPAN, None, None),
    ("gadgets", "refute_filterclass_to_unbounded", "gadgets.refute", SPAN, None, None),
    ("gadgets", "refute_pseudo_intersection_to_tower", "gadgets.refute", SPAN, None, None),
    ("gadgets", "MaxPairViolation.verify", "gadgets.verify", COUNT, None, _verified),
    ("gadgets", "ThreeSetsViolation.verify", "gadgets.verify", COUNT, None, _verified),
    ("splitorder", "order_digraph", "splitorder.order_digraph", SPAN, None, None),
    ("splitorder", "bt_edge", "splitorder.bt_edge", COUNT, None, None),
    ("adversary", "build_adversary", "adversary.build_adversary", SPAN, None, _certificate),
    ("adversary", "verify_certificate", "adversary.verify_certificate", SPAN, None, None),
    ("adversary", "MeteredMachine.query", "adversary.machine_queries", COUNT, None, None),
    ("wire", "LineProcess._ensure", "wire.ensure", COUNT, _spawn, None),
    ("wire", "LineProcess.ask", "wire.ask", TIMED, None, None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.query = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------

    def _wrap(self, name, fn, mode, before, after):
        counts, spans, stack = self.counts, self.spans, self.stack
        clock = time.perf_counter
        tracer = self

        if mode == COUNT:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                if before:
                    before(tracer, args)
                result = fn(*args, **kwargs)
                if after:
                    after(tracer, args, result)
                return result
        elif mode == TIMED:
            durations = self.durations[name]

            def wrapper(*args, **kwargs):
                counts[name] += 1
                start = clock()
                try:
                    return fn(*args, **kwargs)
                except Exception:
                    counts[name + ".failures"] += 1
                    raise
                finally:
                    took = clock() - start
                    durations.append(took)
                    if stack:
                        spans[stack[-1]][5] += took
        else:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                record = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.query, 0.0]
                stack.append(len(spans))
                spans.append(record)
                record[1] = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[2] = clock()
                    stack.pop()
                    if record[3] >= 0:
                        spans[record[3]][5] += record[2] - record[1]
                if after:
                    after(tracer, args, result)
                return result

        return wrapper

    def install(self, modules: dict) -> None:
        """Patch every binding of each traced name: the defining class,
        or every ``tukeykit.*`` module that holds the function (several
        import names with ``from ... import ...``)."""
        for module, attr, name, mode, before, after in PATCHES:
            owner = modules[module]
            cls_name, _, leaf = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
                original = owner.__dict__[leaf]
                self._set(owner, leaf, self._wrap(name, original, mode, before, after))
                continue
            original = getattr(owner, leaf)
            wrapper = self._wrap(name, original, mode, before, after)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "tukeykit" or mod_name.startswith("tukeykit."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapper)

    def _set(self, owner, key, value) -> None:
        # a class's own dict holds the plain function, not a bound method
        original = owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)
        self._undo.append((owner, key, original))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    # -- results --------------------------------------------------------

    def self_times(self) -> Counter:
        out: Counter = Counter()
        for name, start, end, _, _, covered in self.spans:
            out[name] += end - start - covered
        return out


def _percentile(samples, q: int) -> float:
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, cli_log: list, extra: dict) -> dict[str, float]:
    """Every per-layer value by metric name.  ``*.calls`` and
    ``*.self_s`` resolve generically against trace names; layers a
    workload does not reach read 0."""
    counts, selfs = tracer.counts, tracer.self_times()
    asks = tracer.durations["wire.ask"]
    out = {
        "upsets.bits_materialized": counts["upsets.bits_materialized"],
        "apfuncs.evaluations": counts["apfuncs.evaluations"],
        "upsets.membership.calls": counts["upsets.membership"],
        "triples.relation_checks": counts["triples.relation_checks"],
        "triples.engaged_ratio": counts["triples.engaged_checks"] / max(1, counts["triples.relation_checks"]),
        "gadgets.certificates_verified": counts["gadgets.certificates_verified"],
        "adversary.machine_queries": counts["adversary.machine_queries"],
        "adversary.query_yield": counts["adversary.facts"] / max(1, counts["adversary.machine_queries"]),
        "wire.roundtrips": counts["wire.ask"],
        "wire.spawns": counts["wire.spawns"],
        "wire.failures": counts["wire.ask.failures"],
        "wire.ask.p50_us": _percentile(asks, 50) * 1e6,
        "wire.ask.p95_us": _percentile(asks, 95) * 1e6,
        "wire.ask.self_s": sum(asks),
        "cli.spawns": len(cli_log),
        "cli.exit_code_mismatches": sum(1 for _, _, ok in cli_log if not ok),
    }
    by_verb = defaultdict(list)
    for verb, seconds, _ in cli_log:
        by_verb[verb].append(seconds)
    for verb, seconds in by_verb.items():
        out[f"cli.{verb}.p50_ms"] = statistics.median(seconds) * 1e3
    for name, value in counts.items():
        out.setdefault(name + ".calls", value)
    for name, value in selfs.items():
        out.setdefault(name + ".self_s", value)
    out.update(extra)
    return out
