"""tukeykit benchmark: one closed-loop caller, one query at a time.

    python3 perfbench/run.py --workload glued|periodic|desk|external \
        --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.
Set-up (import of tukeykit, input generation, warm-up) is repeated and
its median reported as ``setup_s``.  With ``--trace 0`` whole passes of
the workload's seeded query list run until ``--seconds`` have passed,
and the end-to-end metrics are printed.  With ``--trace 1`` one pass runs
untraced and the same pass runs traced, giving the per-layer metrics
and the tracing overhead; the traced counts repeat exactly per seed.
Every answer is checked after the timed region.  The last stdout line
is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import golden
import speed
import tracing
import workloads

SETUPS = 11
MODULES = (
    "adversary", "apfuncs", "branchmap", "catalog", "gadgets",
    "splitorder", "triples", "upsets", "wire",
)


class Failure:
    """An answer that raised instead of returning."""

    def __init__(self, exc: BaseException) -> None:
        self.text = f"{type(exc).__name__}: {exc}"

    def __repr__(self) -> str:
        return f"Failure({self.text})"


def load_tukeykit(src: Path):
    """Import tukeykit from scratch, dropping any earlier import, so that
    each set-up pays the import again."""
    for name in [n for n in sys.modules if n == "tukeykit" or n.startswith("tukeykit.")]:
        del sys.modules[name]
    package = importlib.import_module("tukeykit")
    if not Path(package.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: tukeykit imported from {package.__file__}, not from {src}")
    for m in MODULES:
        importlib.import_module(f"tukeykit.{m}")
    # through sys.modules: the package attribute ``tukeykit.catalog`` is
    # the catalog() function, not the module
    mods = {m: sys.modules[f"tukeykit.{m}"] for m in MODULES}
    return type("TK", (), mods), mods


def setup(workload: str, seed: int, src: Path, env):
    tk, mods = load_tukeykit(src)
    rng = random.Random(f"{workload}:{seed}")
    queries, warmup = workloads.WORKLOADS[workload](rng, tk, env)
    for q in warmup:
        q.run()
    return queries, mods


def run_pass(queries, reference, mismatches, latencies, tracer=None, meter=None, wall=None) -> float:
    """One pass in order; returns its answers per second of answering
    time.  The first pass's answers are kept for the checks; later
    answers are compared with them outside the timing.  With a
    ``meter`` each latency is scaled to the reference speed by the mean
    of the meter's factors before and after the query, and the wall
    time goes to ``wall``."""
    first = not reference
    for i, q in enumerate(queries):
        if tracer:
            tracer.query += 1
        before = meter.tick() if meter else 1.0
        start = time.perf_counter()
        try:
            out = q.run()
        except Exception as exc:  # a raising query counts as failed, the run goes on
            out = Failure(exc)
        seconds = time.perf_counter() - start
        if meter:
            wall.append(seconds)
            seconds *= (before + meter.tick()) / 2
        latencies.append(seconds)
        if first:
            reference.append(out)
        elif isinstance(out, Failure) or out != reference[i]:
            mismatches[i] += 1
    return len(queries) / sum(latencies[-len(queries):])


def count_failed(queries, reference, mismatches, passes: int) -> int:
    failed = 0
    for q, ref, bad in zip(queries, reference, mismatches):
        try:
            ok = not isinstance(ref, Failure) and bool(q.check(ref))
        except Exception:
            ok = False
        failed += bad if ok else passes
    return failed


def percentile_ms(samples, q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1] * 1e3


def peak_rss_mb(children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024


def machine_info(root: Path, cpus: list[int]) -> dict:
    """The machine and the code measured.  ``git_sha`` is null outside a
    git checkout; ``src_sha256`` identifies the sources either way."""
    sha = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((root / "src" / "tukeykit").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(cpus),
        "cpu_count": os.cpu_count(),
        "pinned_cpu": cpus[0],
        "python": sys.version.split()[0],
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
    }


def baselines(mods) -> dict[str, float]:
    """The measurement spine's fixed rows, median of three."""
    bm, ap, us, cat, adv = (mods[m] for m in ("branchmap", "apfuncs", "upsets", "catalog", "adversary"))
    a = us.UPSet.from_residues(499, range(0, 499, 2))
    b = us.UPSet.from_residues(491, range(0, 491, 3))
    bp = next(e for e in cat.builtin_morphisms() if (e.source, e.target) == ("b", "p"))
    rows = {
        "branchmap.image_prefix.N500_ms": lambda: bm.image_prefix(ap.IDENTITY, 500),
        "branchmap.image_prefix.N1000_ms": lambda: bm.image_prefix(ap.IDENTITY, 1000),
        "branchmap.image_prefix.N2000_ms": lambda: bm.image_prefix(ap.IDENTITY, 2000),
        "baseline.upset_and_499x491_ms": lambda: a & b,
        "baseline.probe_check_b_p_ms": lambda: cat.default_probe_check(bp),
        "baseline.adversary_identity7_ms": lambda: adv.build_adversary(adv.identity_machine(), 7),
    }
    out = {}
    for name, fn in rows.items():
        times = []
        for _ in range(3):
            start = time.perf_counter()
            fn()
            times.append((time.perf_counter() - start) * 1e3)
        out[name] = statistics.median(times)
    out["baseline.adversary_identity7.queries"] = adv.build_adversary(adv.identity_machine(), 7).queries_used
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "tukeykit" / "__init__.py").is_file():
        print(f"perfbench: no tukeykit sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    env = workloads.Env(root, golden.load())
    # One CPU for the benchmark and every child it starts (children
    # inherit the mask): the vCPUs of a shared VM slow down apart from
    # each other, and the speed meter must time the CPU the work runs
    # on.  The loop is closed, so no two of these processes work at once.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[:1])

    meter = speed.Meter()
    setup_wall, setup_times = [], []
    for _ in range(SETUPS):
        meter.sample()
        before = meter.factor()
        start = time.perf_counter()
        queries, mods = setup(args.workload, args.seed, src, env)
        setup_wall.append(time.perf_counter() - start)
        meter.sample()
        setup_times.append(setup_wall[-1] * (before + meter.factor()) / 2)
    env.cli_log.clear()

    reference: list = []
    mismatches = [0] * len(queries)
    latencies: list[float] = []
    wall: list[float] = []
    passes = 0
    throughputs = []
    if args.trace:
        # a fixed amount of work, so that the traced counts repeat exactly
        start = time.perf_counter()
        run_pass(queries, reference, mismatches, latencies)
        untraced = time.perf_counter() - start
        env.cli_log.clear()
        tracer = tracing.Tracer()
        tracer.install(mods)
        try:
            start = time.perf_counter()
            run_pass(queries, reference, mismatches, latencies, tracer)
            traced = time.perf_counter() - start
        finally:
            tracer.uninstall()
        passes = 2
    else:
        start = time.perf_counter()
        while passes == 0 or time.perf_counter() - start < args.seconds:
            throughputs.append(run_pass(queries, reference, mismatches, latencies, meter=meter, wall=wall))
            passes += 1
        rss = peak_rss_mb(children=args.workload == "external")

    defects = workloads.known_defects(env) if args.workload == "external" else []
    if args.trace:
        extra = baselines(mods)
        extra["trace.overhead_ratio"] = traced / untraced
        values = tracing.layer_metrics(tracer, env.cli_log, extra)
        declared = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "queries_per_s": statistics.median(throughputs),
            "query_p50_ms": statistics.median(latencies) * 1e3,
            "query_p95_ms": percentile_ms(latencies, 95),
            "peak_rss_mb": rss,
        }
        declared = spec["end_to_end"]

    failed = count_failed(queries, reference, mismatches, passes)
    attempted = len(latencies)
    by_kind: dict[str, list[float]] = {}
    for i, seconds in enumerate(latencies):
        by_kind.setdefault(queries[i % len(queries)].kind, []).append(seconds)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_info(root, cpus),
        "passes": passes,
        "queries_per_pass": len(queries),
        "samples": attempted,
        "failed_share": failed / attempted,
        "setup_s_samples": setup_times,
        "setup_wall_s_samples": setup_wall,
        "speed": {
            "reference_ms": speed.REFERENCE_S * 1e3,
            "kernel_ms_quartiles": [round(v * 1e3, 4) for v in statistics.quantiles(meter.samples, n=4)],
            "kernel_samples": len(meter.samples),
        },
        "wall_query_p50_ms": statistics.median(wall) * 1e3 if wall else None,
        "wall_query_p95_ms": percentile_ms(wall, 95) if wall else None,
        "known_defects": defects,
        "kind_p50_ms": {k: round(statistics.median(v) * 1e3, 3) for k, v in sorted(by_kind.items())},
    }))
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
