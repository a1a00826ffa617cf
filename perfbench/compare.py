"""Compare two benchmark result files and flag differing environments.

    python3 perfbench/compare.py OLD.json NEW.json

The files are the ``result-seed<N>-trace<0|1>.json`` records that run.py
writes under ``.bench_out/<workload>/``.  Exits 1 when the environments
differ, since the timings of the two runs are then not comparable.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv)
    # the source digest and commit are expected to differ between commits
    differing = [
        key
        for key in sorted(set(old["env"]) | set(new["env"]))
        if key not in ("git_commit", "kzdyn_source_sha256")
        and old["env"].get(key) != new["env"].get(key)
    ]
    for key in differing:
        print(f"ENVIRONMENT DIFFERS: {key}: {old['env'].get(key)!r} -> {new['env'].get(key)!r}")
    for key in ("workload", "seed", "seconds", "trace"):
        if old.get(key) != new.get(key):
            print(f"settings differ: {key}: {old.get(key)!r} -> {new.get(key)!r}")
    print(f"{'metric':48} {'old':>12} {'new':>12} {'new/old':>8}  unit")
    for name, m in new["metrics"].items():
        before = old["metrics"].get(name, {}).get("value")
        after = m["value"]
        ratio = f"{after / before:8.3f}" if before else "       -"
        shown = "absent" if before is None else f"{before:12.6g}"
        print(f"{name:48} {shown:>12} {after:12.6g} {ratio}  {m['unit']}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
