"""Benchmark for ``mherz run``: one workload, one seed, one run.

    python3 bench/run.py --workload demo --seed 2024 --seconds 10 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``).  The runner writes the workload's config with ``--seed``
substituted and executes it serially, one fresh process per execution,
through ``mherz.cli.load_config`` and ``mherz.cli.run``: a closed loop with
one client and at most ``nproc`` BLAS threads.  Executions repeat until
``--seconds`` of them have been measured (at least one).  Set-up time is
sampled in separate fresh processes as well.

With ``--trace 0`` the end-to-end metrics of ``BENCHMARK.json`` are reported
as medians over the run.  With ``--trace 1`` every execution is paired with
a traced one and the per-layer metrics are reported, together with the
tracing overhead.  Every execution's reports pass the correctness gate
(:mod:`gate`) or count as failed suites.  The last line of standard output is
the JSON result; the full record, with metadata, goes to
``.bench_out/<workload>-seed<seed>-trace<trace>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gate import check_reports, failed_all
from workloads import BENCH_DIR, DEFAULT_SEED, WORKLOADS, reference_path, write_config

ROOT = BENCH_DIR.parent
OUT_ROOT = ROOT / ".bench_out"
SETUP_REPS = 5
RUN_LIMIT_S = 170.0  # a run must end within 180 s
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    for var in BLAS_THREAD_VARS:
        env[var] = str(nproc())
    return env


class Run:
    """One benchmark run: set-up samples, executions, gate, metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.work = OUT_ROOT / f"{workload}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.config_path = self.work / "config.json"
        self.config = write_config(workload, seed, self.config_path)
        self.reference = None
        if seed == DEFAULT_SEED:
            self.reference = json.loads(reference_path(workload).read_text())
        self.gate: list[dict] = []

    def child(self, mode: str, tag: str) -> dict:
        out = self.work / tag
        out.mkdir(parents=True)
        result = out / "result.json"
        cmd = [
            sys.executable, str(BENCH_DIR / "child.py"), "--mode", mode,
            "--config", str(self.config_path), "--out", str(out / "reports"),
            "--result", str(result),
        ]
        remaining = self.deadline - time.monotonic()
        if remaining <= 1.0:
            raise BenchError(f"no time left for {tag}")
        with open(out / "child.log", "w") as log:
            try:
                proc = subprocess.run(
                    cmd, cwd=ROOT, env=child_env(), stdout=log,
                    stderr=subprocess.STDOUT, timeout=remaining,
                )
            except subprocess.TimeoutExpired:
                raise BenchError(f"{tag} exceeded the run time limit") from None
        if proc.returncode != 0 or not result.exists():
            raise BenchError(f"{tag} exited with {proc.returncode}; see {out / 'child.log'}")
        record = json.loads(result.read_text())
        if mode != "setup":
            if "error" in record:
                verdicts = failed_all(self.config, record["error"].splitlines()[-1])
            else:
                verdicts = check_reports(self.config, out / "reports", self.reference)
            self.gate += [v | {"execution": tag} for v in verdicts]
        return record

    def execute(self) -> dict:
        setups = [self.child("setup", f"setup-{k}") for k in range(SETUP_REPS)]
        plain: list[dict] = []
        traced: list[dict] = []
        started = time.monotonic()
        while True:
            t0 = time.monotonic()
            plain.append(self.child("run", f"run-{len(plain)}"))
            if self.trace:
                traced.append(self.child("trace", f"trace-{len(traced)}"))
            now = time.monotonic()
            if now - started >= self.seconds or self.deadline - now < 2 * (now - t0):
                break
        return {"setups": setups, "plain": plain, "traced": traced}


def median_of(records: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in records)


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return proc.stdout.strip() or None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def last_overhead(workload: str) -> float | None:
    """Tracing overhead of the newest traced run of ``workload`` in this checkout."""
    found = sorted(
        OUT_ROOT.glob(f"{workload}-seed*-trace1/result.json"), key=lambda p: p.stat().st_mtime
    )
    for path in reversed(found):
        value = json.loads(path.read_text())["metrics"].get("trace.overhead_ratio")
        if value is not None:
            return value["value"]
    return None


def seed_arg(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("the seed must be a non-negative integer")
    return seed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=seed_arg, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "mherz" / "__init__.py").is_file():
        print(f"error: no mherz sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        samples = run.execute()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    plain, traced = samples["plain"], samples["traced"]
    if args.trace:
        values = {
            m["name"]: statistics.median(t["layers"].get(m["name"], 0) for t in traced)
            for m in spec["per_layer"]
        }
        values["trace.overhead_ratio"] = median_of(traced, "run_s") / median_of(plain, "run_s") - 1
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {
            "setup_s": statistics.median(
                r["setup_s"] for r in samples["setups"] + plain
            ),
            "run_s": median_of(plain, "run_s"),
            "peak_rss_mb": median_of(plain, "peak_rss_mb"),
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    failed = sum(not v["ok"] for v in run.gate)
    result = {
        "correct": failed == 0,
        "attempted": len(run.gate),
        "failed": failed,
        "metrics": metrics,
    }
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "commit": git_commit(),
        "source_digest": source_digest(),
        **samples["setups"][0]["versions"],
        "nproc": nproc(),
        "blas_threads": nproc(),
        "cpu_model": cpu_model(),
        "executions": len(plain),
        "setup_samples": len(samples["setups"]) + len(plain),
        "tracing_overhead": (
            values["trace.overhead_ratio"] if args.trace else last_overhead(args.workload)
        ),
    }
    (run.work / "result.json").write_text(json.dumps(
        result | {"meta": meta, "gate": run.gate, "samples": samples}, indent=1
    ) + "\n")

    for name, m in metrics.items():
        print(f"{name:50s} {m['value']:>14.6g} {m['unit']}")
    print(f"{'failed_ratio':50s} {failed / len(run.gate):>14.6g} ({failed}/{len(run.gate)} suites)")
    for v in run.gate:
        if not v["ok"]:
            print(f"FAILED {v['execution']} {v['suite']}: {'; '.join(v['problems'])}")
    print("meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
