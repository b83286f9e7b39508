"""Workload configs for the benchmark.

Each workload is an ``mherz run`` config; the benchmark substitutes its
``--seed`` for the config's ``seed`` field and nothing else.  Reports are
compared with ``reference/<workload>.json`` when the seed equals
``DEFAULT_SEED``.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_SEED = 2024

# the demo's exponent block, shared by most suites
BASE = {"alpha": 0.25, "p": 2, "q": 2, "lam": 0.5}
G35 = {"L_max": 3, "s": 5}  # N = 256, refined to 512

WORKLOADS = {
    # the north-star command: configs/demo.json (N=128, all seven suites)
    "demo": {
        "grid": {"L_max": 3, "s": 4},
        "suites": [
            {"name": "char_norms",
             "params": [BASE, {"alpha": 0.0, "p": 3, "q": 1.5, "lam": 0.2}]},
            {"name": "norm_duality", "params": BASE, "options": {"trials": 8}},
            {"name": "maximal_bounds", "params": BASE,
             "options": {"space": "morrey-herz", "variant": "dyadic-sides"}},
            {"name": "fefferman_stein", "params": BASE,
             "options": {"r_list": [1.5, 2, 3]}},
            {"name": "extrapolation",
             "params": {"alpha": 0.2, "p": 4, "q": 4, "lam": 0.2},
             "options": {"op": "strong-maximal", "p0": 2.0, "K": 6}},
            {"name": "john_nirenberg_bmo", "params": BASE},
            {"name": "cz_comm", "params": BASE},
        ],
    },
    # operator-bound: dyadic-sides at N=256/512 and the iterated-1d staircase
    "maximal-g35": {
        "grid": G35,
        "suites": [
            {"name": "fefferman_stein", "params": BASE,
             "options": {"r_list": [1.5, 2, 3], "family_count": 2}},
            {"name": "maximal_bounds", "params": BASE,
             "options": {"space": "herz", "variant": "iterated-1d", "refine": False}},
        ],
    },
    # norm-bound: thousands of small morrey_herz_norm calls, no maximal operator
    "norms-g35": {
        "grid": G35,
        "suites": [
            {"name": "char_norms",
             "params": [BASE, {"alpha": 0.0, "p": 3, "q": 1.5, "lam": 0.2}]},
            {"name": "norm_duality", "params": BASE, "options": {"trials": 8}},
            {"name": "john_nirenberg_bmo", "params": BASE},
        ],
    },
}


def write_config(workload: str, seed: int, path: Path) -> dict:
    """Write the workload's run config with ``seed`` substituted; returns it."""
    config = copy.deepcopy(WORKLOADS[workload])
    config.update(seed=seed, format="json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(config, indent=2) + "\n")
    return config


def reference_path(workload: str) -> Path:
    return BENCH_DIR / "reference" / f"{workload}.json"
