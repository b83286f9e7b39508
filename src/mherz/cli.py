"""Configuration-driven runner for the verification suites.

A run config is a JSON file:

    {
      "grid": {"L_max": 3, "s": 5},
      "seed": 1234,
      "out_dir": "reports",
      "format": "json",
      "suites": [
        {"name": "char_norms",
         "params": [{"alpha": 0.25, "p": 2, "q": 2, "lam": 0.5}]},
        {"name": "maximal_bounds",
         "params": {"alpha": 0.25, "p": 2, "q": 2, "lam": 0.5},
         "options": {"space": "morrey-herz", "variant": "dyadic-sides"}}
      ]
    }

The whole config is validated (suite names, option keys, exponent
predicates) before any computation starts, so long sweeps cannot die late on
a typo.  Every suite writes one report file plus a summary index; exit code 0
means every executed suite passed (suites that ran with violated hypotheses
report "out-of-hypothesis" and only fail the run under --strict).
"""

from __future__ import annotations

import argparse
import csv
import datetime
import inspect
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import __version__
from .errors import ConfigError, GridSizeError, MherzError
from .grid import GridSpec, make_grid
from .norms import ExponentParams
from .operators import estimate_block_norm_constant
from .verification import (
    HYPOTHESES,
    InequalityReport,
    check_char_norms,
    check_cz_comm,
    check_extrapolation,
    check_fefferman_stein,
    check_john_nirenberg_bmo,
    check_maximal_bounds,
    check_norm_duality,
    extrapolation_block_params,
)

WORKERS_ENV = "MHERZ_WORKERS"


# -- suite registry -----------------------------------------------------------


@dataclass(frozen=True)
class SuiteDef:
    name: str
    summary: str
    runner: Callable
    options: tuple[str, ...]
    required_options: tuple[str, ...]
    multi_params: bool
    seeded: bool


def _suite(runner: Callable, summary: str) -> SuiteDef:
    """Registry entry read off ``check_<name>(grid, params | param_sets, **options)``."""
    options = dict(inspect.signature(runner).parameters)
    del options["grid"]
    multi = "param_sets" in options
    del options["param_sets" if multi else "params"]
    return SuiteDef(
        name=runner.__name__.removeprefix("check_"),
        summary=summary,
        runner=runner,
        options=tuple(options),
        required_options=tuple(k for k, p in options.items() if p.default is p.empty),
        multi_params=multi,
        seeded="seed" in options,
    )


SUITES: dict[str, SuiteDef] = {
    sdef.name: sdef
    for sdef in (
        _suite(check_char_norms, "indicator Morrey-Herz norms vs exact closed forms"),
        _suite(check_norm_duality, "pairing bounds and indicator norm products"),
        _suite(
            check_maximal_bounds,
            "maximal operator norm ratios on herz / morrey-herz / block-upper",
        ),
        _suite(check_fefferman_stein, "vector-valued maximal inequality ratios"),
        _suite(
            check_extrapolation,
            "weighted L^p0 hypothesis layer vs Morrey-Herz conclusion layer",
        ),
        _suite(check_john_nirenberg_bmo, "level-set decay fit and bmo norm equivalence"),
        _suite(check_cz_comm, "singular operator boundedness and commutator dichotomy"),
    )
}


# -- config parsing -----------------------------------------------------------


def _params_from_dict(d: dict, path: str) -> ExponentParams:
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object with alpha/p/q fields")
    known = {"alpha", "p", "q", "lam", "n", "m"}
    unknown = set(d) - known
    if unknown:
        raise ConfigError(f"{path}: unknown exponent fields {sorted(unknown)}")
    try:
        return ExponentParams(
            alpha=float(d["alpha"]),
            p=float(d["p"]),
            q=float(d["q"]),
            lam=float(d.get("lam", 0.0)),
            n=int(d.get("n", 1)),
            m=int(d.get("m", 1)),
        )
    except KeyError as exc:
        raise ConfigError(f"{path}: missing field {exc.args[0]!r}") from None
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


@dataclass
class SuiteJob:
    index: int
    sdef: SuiteDef
    params: ExponentParams | list[ExponentParams]
    options: dict


@dataclass
class RunConfig:
    grid: GridSpec
    seed: int
    out_dir: Path
    format: str
    strict: bool
    jobs: list[SuiteJob]


def load_config(path: str | Path) -> RunConfig:
    """Parse and fully validate a run config; raises ConfigError on any flaw."""
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")

    known_top = {"grid", "seed", "out_dir", "format", "strict", "suites"}
    unknown = set(raw) - known_top
    if unknown:
        raise ConfigError(f"unknown top-level fields {sorted(unknown)}")

    gdict = raw.get("grid")
    if not isinstance(gdict, dict) or not {"L_max", "s"} <= set(gdict):
        raise ConfigError("grid: expected an object with integer L_max and s")
    try:
        grid = make_grid(int(gdict["L_max"]), int(gdict["s"]))
    except (GridSizeError, ValueError) as exc:
        raise ConfigError(f"grid: {exc}") from None

    fmt = raw.get("format", "json")
    if fmt not in ("json", "csv"):
        raise ConfigError(f"format: expected 'json' or 'csv', got {fmt!r}")

    suites = raw.get("suites")
    if not isinstance(suites, list) or not suites:
        raise ConfigError("suites: expected a non-empty list")

    jobs: list[SuiteJob] = []
    for idx, entry in enumerate(suites):
        path_i = f"suites[{idx}]"
        if not isinstance(entry, dict) or "name" not in entry:
            raise ConfigError(f"{path_i}: expected an object with a 'name'")
        name = entry["name"]
        if name not in SUITES:
            raise ConfigError(
                f"{path_i}.name: unknown suite {name!r}; known: {sorted(SUITES)}"
            )
        sdef = SUITES[name]
        unknown = set(entry) - {"name", "params", "options"}
        if unknown:
            raise ConfigError(f"{path_i}: unknown fields {sorted(unknown)}")

        pblock = entry.get("params")
        if pblock is None:
            raise ConfigError(f"{path_i}.params: required")
        if sdef.multi_params:
            if not isinstance(pblock, list):
                pblock = [pblock]
            params = [
                _params_from_dict(p, f"{path_i}.params[{k}]") for k, p in enumerate(pblock)
            ]
        else:
            params = _params_from_dict(pblock, f"{path_i}.params")

        options = dict(entry.get("options", {}))
        allow_oh = bool(options.get("allow_out_of_hypothesis", False))
        bad_opts = set(options) - set(sdef.options)
        if bad_opts:
            raise ConfigError(
                f"{path_i}.options: unknown keys {sorted(bad_opts)}; "
                f"allowed: {sorted(sdef.options)}"
            )
        missing = [k for k in sdef.required_options if k not in options]
        if missing:
            raise ConfigError(f"{path_i}.options: missing required keys {missing}")

        violations = HYPOTHESES[name](params, options)
        if violations and not allow_oh:
            raise ConfigError(
                f"{path_i}.params: exponent predicate violated: "
                + "; ".join(violations)
                + " (set options.allow_out_of_hypothesis to run anyway)"
            )
        jobs.append(SuiteJob(idx, sdef, params, options))

    return RunConfig(
        grid=grid,
        seed=int(raw.get("seed", 0)),
        out_dir=Path(raw.get("out_dir", "reports")),
        format=fmt,
        strict=bool(raw.get("strict", False)),
        jobs=jobs,
    )


# -- report emission ----------------------------------------------------------


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def emit(report: InequalityReport, fmt: str, path: str | Path) -> Path:
    """Write one report; json nests the full record, csv flattens per trial.

    File contents are stable across runs byte for byte except the
    generated_at line.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        doc = {
            "generated_at": _timestamp(),
            "tool": "mherz",
            "version": __version__,
            "report": report.to_dict(),
        }
        path.write_text(json.dumps(doc, indent=2) + "\n")
    elif fmt == "csv":
        extra_keys = sorted({k for t in report.trials for k in t.extra})
        with path.open("w", newline="") as fh:
            fh.write(f"# generated_at={_timestamp()}\n")
            fh.write(f"# tool=mherz {__version__}\n")
            fh.write(f"# params={json.dumps(report.params, sort_keys=True)}\n")
            fh.write(f"# status={report.status}\n")
            w = csv.writer(fh)
            w.writerow(["claim", "trial", "lhs", "rhs", "ratio", "note", *extra_keys])

            def cell(v):
                return v if isinstance(v, str) else repr(v)

            for t in report.trials:
                ratio = t.ratio
                w.writerow(
                    [
                        report.claim,
                        t.trial,
                        repr(t.lhs),
                        repr(t.rhs),
                        "inf" if math.isinf(ratio) else repr(ratio),
                        t.note,
                        *[cell(t.extra.get(k, "")) for k in extra_keys],
                    ]
                )
    else:
        raise ConfigError(f"unknown format {fmt!r}")
    return path


def load_report(path: str | Path) -> InequalityReport:
    doc = json.loads(Path(path).read_text())
    return InequalityReport.from_dict(doc["report"])


# -- execution ----------------------------------------------------------------


def _execute_job(cfg: RunConfig, job: SuiteJob) -> InequalityReport:
    kwargs = dict(job.options)
    if job.sdef.seeded:
        kwargs.setdefault("seed", cfg.seed + job.index)
    kwargs["param_sets" if job.sdef.multi_params else "params"] = job.params
    return job.sdef.runner(cfg.grid, **kwargs)


def run(
    config_path: str | Path,
    strict: bool | None = None,
    out_dir: str | Path | None = None,
    fmt: str | None = None,
    parallel: bool = False,
) -> int:
    """Execute all suites in a config; returns the process exit code."""
    cfg = load_config(config_path)
    if strict is not None:
        cfg.strict = strict
    if out_dir is not None:
        cfg.out_dir = Path(out_dir)
    if fmt is not None:
        if fmt not in ("json", "csv"):
            raise ConfigError(f"format: expected 'json' or 'csv', got {fmt!r}")
        cfg.format = fmt

    if parallel:
        raw = os.environ.get(WORKERS_ENV)
        try:
            workers = int(raw) if raw is not None else os.cpu_count() or 1
        except ValueError:
            raise ConfigError(
                f"{WORKERS_ENV}: expected an integer worker count, got {raw!r}"
            ) from None
        with ThreadPoolExecutor(max_workers=max(1, workers)) as pool:
            reports = list(pool.map(lambda j: _execute_job(cfg, j), cfg.jobs))
    else:
        reports = [_execute_job(cfg, job) for job in cfg.jobs]

    index = []
    ok = True
    for job, rep in zip(cfg.jobs, reports):
        fname = cfg.out_dir / f"{job.index:02d}_{job.sdef.name}.{cfg.format}"
        emit(rep, cfg.format, fname)
        index.append(
            {
                "suite": job.sdef.name,
                "claim": rep.claim,
                "status": rep.status,
                "file": fname.name,
                "summary": rep.summary,
            }
        )
        if rep.status == "fail":
            ok = False
        elif rep.status == "out-of-hypothesis" and cfg.strict:
            ok = False
        print(f"[{rep.status:>17}] {job.sdef.name}: {rep.claim}")

    idx_path = cfg.out_dir / "summary_index.json"
    idx_path.parent.mkdir(parents=True, exist_ok=True)
    idx_path.write_text(
        json.dumps(
            {"generated_at": _timestamp(), "version": __version__, "suites": index},
            indent=2,
        )
        + "\n"
    )
    print(f"reports written to {cfg.out_dir}/")
    return 0 if ok else 1


def estimate_c(config_path: str | Path) -> int:
    """Print the estimated maximal-operator block norm for extrapolation jobs."""
    cfg = load_config(config_path)
    found = False
    for job in cfg.jobs:
        if job.sdef.name != "extrapolation":
            continue
        found = True
        block = extrapolation_block_params(job.params, float(job.options["p0"]))
        variant = job.options.get("variant", "dyadic-sides")
        est = estimate_block_norm_constant(cfg.grid, block, variant)
        print(
            f"suites[{job.index}] extrapolation(op={job.options['op']}): "
            f"estimated block norm c ~= {est:.6g} (use c >= max(1, this))"
        )
    if not found:
        print("no extrapolation suites in config; nothing to estimate", file=sys.stderr)
        return 2
    return 0


def list_suites() -> int:
    for name in sorted(SUITES):
        print(f"{name:20s} {SUITES[name].summary}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mherz", description="verification suite runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute the suites in a config file")
    p_run.add_argument("config")
    p_run.add_argument("--strict", action="store_true", help="fail on out-of-hypothesis")
    p_run.add_argument("--out", default=None, help="output directory override")
    p_run.add_argument("--format", choices=("json", "csv"), default=None)
    p_run.add_argument(
        "--parallel", action="store_true",
        help=f"run suites concurrently ({WORKERS_ENV} sets the worker count)",
    )

    sub.add_parser("list-suites", help="list available suites")

    p_est = sub.add_parser("estimate-c", help="estimate the iteration constant")
    p_est.add_argument("config")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return run(
                args.config,
                strict=args.strict or None,
                out_dir=args.out,
                fmt=args.format,
                parallel=args.parallel,
            )
        if args.command == "list-suites":
            return list_suites()
        if args.command == "estimate-c":
            return estimate_c(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MherzError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
