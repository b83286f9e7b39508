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

The whole config is validated before any computation starts, so long sweeps
cannot die late on a typo.  :func:`_object` refuses every object-shaped field
that is not an object, holds an unknown key or lacks a required one; every
value goes to the library's own check (``GridSpec``, ``ExponentParams``, each
job's :func:`mherz.verification.admit`), whose refusal names its field, and
the error reads ``<config path>.<field>: ...``.
Every suite writes one report file plus a summary index; exit code 0 means
every executed suite passed (suites that ran with violated hypotheses report
"out-of-hypothesis" and only fail the run under --strict).
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .errors import ConfigError, GridSizeError, MherzError, PredicateError
from .grid import GridSpec, make_grid
from .norms import ExponentParams
from .operators import estimate_block_norm_constant
from .verification import (
    OPTION_DOMAINS,
    SUITES,
    InequalityReport,
    SuiteDef,
    _choice,
    _flag,
    admit,
    extrapolation_block_params,
)

# Not used here.  The benchmark's tracer (bench/tracer.py) rebinds a suite
# runner wherever a module imported it, and its test reads this binding.
from .verification import check_fefferman_stein  # noqa: F401


# -- config parsing -----------------------------------------------------------


def _object(path: str, value, known, required=()) -> dict:
    """``value``, refused at ``path`` unless it is an object whose keys are
    among ``known`` and include every ``required`` one."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object, got {value!r}")
    unknown = sorted(set(value) - set(known))
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}; allowed: {sorted(known)}")
    missing = [k for k in required if k not in value]
    if missing:
        raise ConfigError(f"{path}: missing required keys {missing}")
    return value


def _refused(path: str, exc: Exception) -> ConfigError:
    """A library refusal as a ConfigError at ``path``, followed by the field
    the refusal names, if any (an empty ``path`` is the config root)."""
    where = ".".join(filter(None, (path, getattr(exc, "field", None))))
    return ConfigError(f"{where}: {exc}")


def _params_from_dict(d, path: str) -> ExponentParams:
    _object(path, d, ("alpha", "p", "q", "lam", "n", "m"), required=("alpha", "p", "q"))
    # strict JSON has no infinity, so a real exponent may be the string "inf";
    # an int one is read as a float, as reports have always written it
    real = ("alpha", "p", "q", "lam")
    try:
        return ExponentParams(
            **{k: float(v) if k in real and type(v) in (int, str) else v for k, v in d.items()}
        )
    except (ValueError, OverflowError) as exc:
        raise _refused(path, exc) from None


@dataclass
class SuiteJob:
    index: int
    sdef: SuiteDef
    params: ExponentParams | list[ExponentParams]
    options: dict


@dataclass
class RunConfig:
    grid: GridSpec
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
    except ValueError as exc:  # a JSONDecodeError, or text that is not UTF-8
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    known = ("grid", "seed", "out_dir", "format", "strict", "suites")
    _object("config", raw, known, required=("grid", "suites"))
    try:
        grid = make_grid(**_object("grid", raw["grid"], ("L_max", "s"), ("L_max", "s")))
    except GridSizeError as exc:
        raise _refused("grid", exc) from None

    seed, strict = raw.get("seed", 0), raw.get("strict", False)
    try:
        OPTION_DOMAINS["seed"](seed)  # the suites' default seeds are seed + index
        _flag("strict", strict)
    except ValueError as exc:
        raise _refused("", exc) from None

    out_dir = raw.get("out_dir", "reports")
    if not isinstance(out_dir, str):
        raise ConfigError(f"out_dir: expected a path string, got {out_dir!r}")

    fmt = raw.get("format", "json")
    if fmt not in ("json", "csv"):
        raise ConfigError(f"format: expected 'json' or 'csv', got {fmt!r}")

    suites = raw.get("suites")
    if not isinstance(suites, list) or not suites:
        raise ConfigError("suites: expected a non-empty list")

    jobs: list[SuiteJob] = []
    for idx, entry in enumerate(suites):
        path_i = f"suites[{idx}]"
        name = _object(path_i, entry, ("name", "params", "options"), ("name", "params"))["name"]
        try:
            _choice("suite", name, SUITES)
        except ValueError as exc:
            raise _refused(f"{path_i}.name", exc) from None
        sdef, pblock = SUITES[name], entry["params"]
        if sdef.multi_params:
            pblock = pblock if isinstance(pblock, list) else [pblock]
            params = [_params_from_dict(p, f"{path_i}.params[{k}]") for k, p in enumerate(pblock)]
        else:
            params = _params_from_dict(pblock, f"{path_i}.params")

        required = [k for k in sdef.options if k not in sdef.defaults]
        options = _object(f"{path_i}.options", entry.get("options", {}), sdef.options, required)
        defaults = sdef.defaults | ({"seed": seed + idx} if "seed" in sdef.options else {})
        options = {k: options[k] if k in options else defaults[k] for k in sdef.options}
        try:
            admit(name, grid, params, options)
        except PredicateError as exc:
            allow = "allow_out_of_hypothesis" in options
            hint = " (set options.allow_out_of_hypothesis to run anyway)" if allow else ""
            raise ConfigError(f"{path_i}.params: exponent predicate violated: {exc}{hint}") from None
        except (ValueError, MherzError) as exc:
            raise _refused("" if exc.field == "grid" else path_i, exc) from None
        jobs.append(SuiteJob(idx, sdef, params, options))

    return RunConfig(
        grid=grid,
        out_dir=Path(out_dir),
        format=fmt,
        strict=strict,
        jobs=jobs,
    )


# -- report emission ----------------------------------------------------------


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


_NON_FINITE = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}


def _encode_non_finite(obj):
    """``obj`` with every non-finite float replaced by "inf", "-inf" or "nan"."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(float(obj))
    if isinstance(obj, dict):
        return {k: _encode_non_finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode_non_finite(v) for v in obj]
    return obj


def _decode_non_finite(obj):
    """Inverse of :func:`_encode_non_finite`."""
    if isinstance(obj, str):
        return _NON_FINITE.get(obj, obj)
    if isinstance(obj, dict):
        return {k: _decode_non_finite(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_decode_non_finite(v) for v in obj]
    return obj


def _dumps(doc, **kwargs) -> str:
    """Strict JSON (no ``Infinity``/``NaN`` tokens) with non-finite floats as strings."""
    return json.dumps(_encode_non_finite(doc), allow_nan=False, **kwargs)


def emit(report: InequalityReport, fmt: str, path: str | Path) -> Path:
    """Write one report; json nests the full record, csv flattens per trial.

    File contents are stable across runs byte for byte except the
    generated_at line.  JSON output is strict: non-finite floats are written
    as the strings "inf", "-inf" and "nan", which :func:`load_report` reads
    back as floats.
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
        path.write_text(_dumps(doc, indent=2) + "\n")
    elif fmt == "csv":
        extra_keys = sorted({k for t in report.trials for k in t.extra})
        with path.open("w", newline="") as fh:
            fh.write(f"# generated_at={_timestamp()}\n")
            fh.write(f"# tool=mherz {__version__}\n")
            fh.write(f"# params={_dumps(report.params, sort_keys=True)}\n")
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
                        "" if ratio is None else "inf" if math.isinf(ratio) else repr(ratio),
                        t.note,
                        *[cell(t.extra.get(k, "")) for k in extra_keys],
                    ]
                )
    else:
        raise ConfigError(f"unknown format {fmt!r}")
    return path


def load_report(path: str | Path) -> InequalityReport:
    doc = _decode_non_finite(json.loads(Path(path).read_text()))
    return InequalityReport.from_dict(doc["report"])


# -- execution ----------------------------------------------------------------


def _execute_job(cfg: RunConfig, job: SuiteJob) -> InequalityReport:
    params = {"param_sets" if job.sdef.multi_params else "params": job.params}
    return job.sdef.runner(cfg.grid, **params, **job.options)


def run(
    config_path: str | Path,
    strict: bool | None = None,
    out_dir: str | Path | None = None,
    fmt: str | None = None,
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
        _dumps(
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
    jobs = [job for job in cfg.jobs if job.sdef.name == "extrapolation"]
    if not jobs:
        print("no extrapolation suites in config; nothing to estimate", file=sys.stderr)
        return 2
    for job in jobs:
        block = extrapolation_block_params(job.params, job.options["p0"])
        est = estimate_block_norm_constant(cfg.grid, block, job.options["variant"])
        print(
            f"suites[{job.index}] extrapolation(op={job.options['op']}): "
            f"estimated block norm c ~= {est:.6g} (use c >= max(1, this))"
        )
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
