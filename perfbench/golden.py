"""Golden digests for benchmark answers that have no cheap independent
oracle: the built-in probe checks, the comparison diagrams, the
splitting-order digraphs and the CLI's diagram JSON.

``python3 perfbench/golden.py`` (from the repository root) recomputes
them from the current ``src/`` and rewrites ``golden.json``.  Run it
only on a commit whose outputs are known good; the benchmark compares
every later commit against the stored digests.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"


def digest(value) -> str:
    """sha256 of a repr string, or of canonical JSON for other values."""
    text = value if isinstance(value, str) else json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def load() -> dict:
    return json.loads(GOLDEN.read_text())


def capture(root: Path) -> dict:
    import workloads

    sys.path.insert(0, str(root / "src"))
    from tukeykit import splitorder

    cat = sys.modules["tukeykit.catalog"]
    env = workloads.Env(root, {})
    cli = {}
    for argv in (["diagram", "--kind", "borel", "--format", "json"],
                 ["diagram", "--kind", "splitting", "--limit", "4", "--hasse", "--format", "json"]):
        code, out = env.cli(argv, {0})
        if code != 0:
            raise SystemExit(f"golden: {' '.join(argv)} exited {code}")
        cli[" ".join(argv)] = digest(json.loads(out))
    return {
        "probe_check": {
            f"{e.source}->{e.target}": digest(repr(cat.default_probe_check(e)))
            for e in cat.builtin_morphisms()
        },
        "vd_diagram": {k: digest(cat.vd_diagram(k).to_json()) for k in ("classical", "borel")},
        "order_digraph": {
            str(n): digest(repr(splitorder.order_digraph(n, hasse=True)))
            for n in workloads.DIGRAPH_LIMITS
        },
        "cli": cli,
    }


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(capture(Path.cwd()), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
