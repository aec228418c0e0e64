"""Check of the benchmark's own verdict checking: a deliberately wrong
expected answer must raise the failed share.

    python3 perfbench/selfcheck.py        (from the repository root)

One pass each of ``desk`` and ``periodic`` runs with the true expected
answers (failed share must be 0).  Then, one at a time, an oracle's
expected answer is flipped or a stored golden digest is corrupted, and
the same answers are checked again (failed share must be above 0).
Exits 1 when either does not hold.
"""

from __future__ import annotations

import sys
from pathlib import Path

import golden
import run
import workloads


def flip_oracle(queries, kind):
    """Invert the expected answer of the first query of ``kind``."""
    q = next(q for q in queries if q.kind == kind)
    right = q.check
    q.check = lambda out: not right(out)
    return lambda: setattr(q, "check", right)


def corrupt_golden(env, table, key):
    right = env.golden[table][key]
    env.golden[table][key] = "0" * 64
    return lambda: env.golden[table].__setitem__(key, right)


def main() -> int:
    root = Path.cwd()
    src = root / "src"
    sys.path.insert(0, str(src))
    env = workloads.Env(root, golden.load())
    ok = True
    for name, sabotage in (
        ("desk", [("bt_edge oracle flipped", lambda qs: flip_oracle(qs, "bt_edge")),
                  ("b->p golden digest corrupted", lambda qs: corrupt_golden(env, "probe_check", "b->p"))]),
        ("periodic", [("almost_subset oracle flipped", lambda qs: flip_oracle(qs, "almost_subset"))]),
    ):
        queries, _ = run.setup(name, 1, src, env)
        reference, mismatches, latencies = [], [0] * len(queries), []
        run.run_pass(queries, reference, mismatches, latencies)

        def share():
            return run.count_failed(queries, reference, mismatches, 1) / len(queries)

        clean = share()
        for label, break_one in sabotage:
            restore = break_one(queries)
            wrong = share()
            restore()
            passed = clean == 0 and wrong > 0
            ok &= passed
            print(f"{'ok  ' if passed else 'FAIL'} {name}: failed share {clean:.4f} as expected, "
                  f"{wrong:.4f} with {label}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
