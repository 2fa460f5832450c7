"""Record the outputs every benchmark run is checked against.

    python3 perfbench/record_reference.py

Runs each workload once on ``REFERENCE_SEED`` and writes its cost means,
closed forms and sweep rows to ``perfbench/reference.json``.  Record it on
the commit whose numbers are the reference, never on a change under test:
the file exists so that a change which moves a cost estimate fails.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import BENCH_DIR, WORK_DIR, child_env, git_revision, spawn
from workloads import REFERENCE_SEED, WORKLOADS


def main() -> int:
    env = child_env()
    refs = {"recorded_at_revision": git_revision()}
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        for name, workload in WORKLOADS.items():
            spec = {
                "workload": name,
                "seed": REFERENCE_SEED,
                "out": str(Path(tmp) / name),
                "trace": False,
                "memory": False,
            }
            record = spawn(spec, env)
            if "error" in record:
                print(f"error: {name}: {record['error']}", file=sys.stderr)
                return 1
            refs[name] = {"params": workload.params(), "seed": REFERENCE_SEED}
            refs[name].update(record["outputs"])
    (BENCH_DIR / "reference.json").write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
