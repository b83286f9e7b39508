"""Correctness gate for one execution of a workload.

A suite fails the gate if its run raised, if its report is missing or is not
strict JSON (``Infinity`` and ``NaN`` are rejected), if its status is not
``pass``, or, on the workload's default seed, if its ``summary`` differs from
the committed reference beyond the reference's declared tolerance.
"""

from __future__ import annotations

import json
import math
from pathlib import Path


def _reject_constant(token: str):
    raise ValueError(f"non-finite constant {token} is not strict JSON")


def load_strict(path: Path):
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def summary_mismatches(got, want, rtol: float, atol: float, where: str = "summary") -> list[str]:
    """Paths at which ``got`` differs from ``want`` beyond the tolerance."""
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in summary_mismatches(got[k], want[k], rtol, atol, f"{where}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in summary_mismatches(g, w, rtol, atol, f"{where}[{i}]")]
    numbers = (int, float)
    if isinstance(want, numbers) and isinstance(got, numbers) and not isinstance(want, bool):
        if math.isclose(got, want, rel_tol=rtol, abs_tol=atol):
            return []
        return [f"{where}: {got!r} != {want!r}"]
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


def check_reports(config: dict, out_dir: Path, reference: dict | None) -> list[dict]:
    """One ``{"suite", "ok", "problems"}`` record per suite of ``config``."""
    results = []
    for index, suite in enumerate(config["suites"]):
        name = suite["name"]
        problems: list[str] = []
        path = out_dir / f"{index:02d}_{name}.json"
        try:
            report = load_strict(path)["report"]
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"{path.name}: {exc}")
        else:
            if report.get("status") != "pass":
                problems.append(f"status {report.get('status')!r}")
            if reference is not None:
                problems += summary_mismatches(
                    report.get("summary"),
                    reference["summaries"][index],
                    reference["rtol"],
                    reference["atol"],
                )
        results.append({"suite": name, "ok": not problems, "problems": problems})
    try:
        load_strict(out_dir / "summary_index.json")
    except (OSError, ValueError) as exc:
        for r in results:
            r["ok"] = False
            r["problems"].append(f"summary_index.json: {exc}")
    return results


def failed_all(config: dict, reason: str) -> list[dict]:
    return [{"suite": s["name"], "ok": False, "problems": [reason]} for s in config["suites"]]
