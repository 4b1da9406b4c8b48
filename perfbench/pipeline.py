"""One repetition of a workload: taskopt's stages in this process, via the CLI.

Usage (run.py starts it, one fresh process per repetition):

    python3 perfbench/pipeline.py --config CFG --jobs N --result OUT.json [--trace]

It runs the stages of ``run.STAGES`` in order. Each stage is one call
to ``taskopt.cli.main``, exactly as the ``taskopt`` console script
makes it. The result file holds each stage's exit code and wall time,
this process's and its children's peak RSS, and, with ``--trace``, the
spans and counters from ``tracing``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from taskopt import cli  # noqa: E402

import tracing  # noqa: E402
from run import STAGES  # noqa: E402


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    tracer = tracing.Tracer() if args.trace else None
    stages = []
    with tracing.installed(tracer) if tracer else nullcontext():
        for stage in STAGES:
            argv = [stage, "--config", args.config]
            if stage == "train":
                argv += ["--jobs", str(args.jobs)]
            with tracer.span(f"cli.{stage}") if tracer else nullcontext():
                start = time.perf_counter()
                code = cli.main(argv)
                end = time.perf_counter()
            stages.append({"name": stage, "exit_code": code,
                           "start": start, "end": end})
            if code != 0:
                break

    result = {
        "stages": stages,
        "pipeline_s": stages[-1]["end"] - stages[0]["start"],
        "rss_self_mb": _peak_rss_mb(resource.RUSAGE_SELF),
        "rss_children_mb": _peak_rss_mb(resource.RUSAGE_CHILDREN),
    }
    if tracer:
        result["spans"] = tracer.spans
        result["counters"] = dict(tracer.counters)
        result["jobs"] = args.jobs
        result["payload_mb"] = tracing.payload_mb(tracer)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
