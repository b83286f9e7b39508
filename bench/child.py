"""One execution of a workload config, in a fresh process.

    python3 bench/child.py --mode setup|run|trace --config CFG --out DIR --result FILE

``setup`` times ``import mherz`` plus ``cli.load_config``; ``run`` also times
``cli.run`` and reads the process's peak RSS; ``trace`` does the same with
every layer function wrapped by :class:`tracer.Tracer` and adds the per-layer
statistics.  The result is written as JSON to ``FILE`` (spans of a traced run
go next to it); report files go to ``DIR``.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import time
import traceback
from pathlib import Path


def versions() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no mode="dicts"
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    t0 = time.perf_counter()
    import mherz
    from mherz import cli

    cli.load_config(args.config)
    result = {"setup_s": time.perf_counter() - t0}

    if args.mode == "setup":
        result["versions"] = versions()
    else:
        tracer = None
        if args.mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install(mherz)
        t1, c1 = time.perf_counter(), time.process_time()
        try:
            result["exit_code"] = cli.run(args.config, out_dir=args.out)
        except Exception:  # the gate counts every suite of a raising run as failed
            result["error"] = traceback.format_exc()
        finally:
            result["run_s"] = time.perf_counter() - t1
            result["run_cpu_s"] = time.process_time() - c1
            if tracer is not None:
                tracer.restore()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            result["layers"] = tracer.stats() | {
                "trace.coverage": tracer.root_seconds() / result["run_s"],
                "trace.spans": len(tracer.spans),
            }
            origin = tracer.spans[0].start if tracer.spans else 0.0
            spans_path = Path(args.result).with_name("spans.json")
            spans_path.write_text(json.dumps(
                [[s.name, s.start - origin, s.end - origin, s.parent] for s in tracer.spans]
            ))
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
