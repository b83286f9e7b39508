"""Regenerate the committed reference summaries of the correctness gate.

    python3 bench/make_reference.py [WORKLOAD ...]

Runs each workload once at its default seed and writes the ``summary`` of
every suite report to ``bench/reference/<workload>.json``.  Only regenerate
after a change that is meant to alter report contents, and say so.
"""

from __future__ import annotations

import json
import sys

from gate import load_strict
from workloads import BENCH_DIR, DEFAULT_SEED, WORKLOADS, reference_path, write_config

ROOT = BENCH_DIR.parent
RTOL = 1e-9
ATOL = 1e-12


def main(names: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from mherz import cli

    for name in names or sorted(WORKLOADS):
        work = ROOT / ".bench_out" / f"reference-{name}"
        config = write_config(name, DEFAULT_SEED, work / "config.json")
        if cli.run(work / "config.json", out_dir=work / "reports") != 0:
            print(f"{name}: a suite failed; reference not written", file=sys.stderr)
            return 1
        summaries = [
            load_strict(work / "reports" / f"{i:02d}_{s['name']}.json")["report"]["summary"]
            for i, s in enumerate(config["suites"])
        ]
        doc = {"workload": name, "seed": DEFAULT_SEED, "rtol": RTOL, "atol": ATOL,
               "summaries": summaries}
        reference_path(name).parent.mkdir(exist_ok=True)
        reference_path(name).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
