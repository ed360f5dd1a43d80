"""One workload in one fresh single-threaded process.

Started by ``run.py``; prints a single JSON line on stdout.  Times are in
reference seconds (see ``speed.py``) unless named wall.

  worker.py setup WORKLOAD SEED
      import icodes and generate the specs; report how long that took.
  worker.py run WORKLOAD SEED SECONDS TRACE META_JSON
      run whole passes over the specs in a closed loop with one caller,
      ending at the pass boundary nearest to SECONDS (at least two passes
      untraced); check every result;
      report per-code and per-pass times, failures and peak RSS.  With
      TRACE = 1 every code also runs traced, and the spans are summarized
      and written to ``perfbench/out/``.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
from pathlib import Path

# Modules that import icodes (specgen, checks, tracing) are imported inside
# functions: set-up must time the first import of icodes.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
#: Fewest passes in a run, untraced (False) and traced (True).
MIN_PASSES = {False: 2, True: 1}


def _setup(workload: str, seed: int):
    """Import icodes and generate the specs: (specs, wall s, reference s)."""
    from speed import SpeedProbe

    with SpeedProbe(interval_s=0.005) as probe:
        start = time.perf_counter()
        sys.path.insert(0, str(ROOT / "src"))
        import icodes
        import specgen

        specs = specgen.generate(workload, seed)
        end = time.perf_counter()
    source = Path(icodes.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"icodes imported from {source}, not from {ROOT / 'src'}")
    return specs, end - start, probe.reference(start, end)


def _operations(workload: str):
    """(run one code, check its result) for a workload.

    Each run looks its entry point up on the module at call time, so the
    traced run sees the wrapped function.
    """
    from icodes import analysis, cli

    import checks

    if workload == "sweep":
        return (lambda spec: analysis.verify_against_prediction(spec)), checks.check_sweep
    if workload == "certify":
        return (lambda spec: analysis.analyze(spec)), checks.check_certify

    def dump(spec):
        buffer = io.StringIO()
        argv = [
            "construct",
            "--variant", spec.variant.value,
            "--m", str(spec.m),
            "--M", ",".join(map(str, sorted(spec.M))),
            "--N", ",".join(map(str, sorted(spec.N))),
            "--format", "json",
            "--dump-ring-codewords",
            "--dump-gray-codewords",
        ]
        return cli.main(argv, out=buffer), buffer.getvalue()

    return dump, lambda spec, result: checks.check_dump(spec, *result)


def run_pass(specs, run, check, workload: str, tracer=None, tag: str = ""):
    """One closed-loop pass over every spec; failed codes are not timed.

    Returns the pass's (start, end) and each checked code's (start, end).
    With a tracer, each code runs twice, untraced and traced, in alternating
    order, so that both timings see the machine at the same moment.
    """
    import checks

    times: dict[int, tuple[float, float]] = {}
    traced_times: dict[int, tuple[float, float]] = {}
    failures: list[str] = []
    degenerate = 0
    clock = time.perf_counter
    start = clock()
    for i, spec in enumerate(specs):
        order = (None,) if tracer is None else ((None, tracer) if i % 2 else (tracer, None))
        for active in order:
            if active is not None:
                active.code = f"{tag}c{i}"
                active.install()
            began = clock()
            try:
                result = run(spec)
            except Exception as exc:  # a raising code is a failed code; keep measuring
                result, problems = None, [f"raised {exc!r}"]
            else:
                problems = None
            finally:
                ended = clock()
                if active is not None:
                    active.restore()
            if problems is None:
                problems = check(spec, result)
            if problems:
                failures.append(f"code {i} {spec}: {problems}")
                continue
            if active is None:
                times[i] = (began, ended)
                degenerate += bool(getattr(result, "degenerate", False))
            else:
                traced_times[i] = (began, ended)
    span = (start, clock())
    problems = []
    if workload == "sweep":
        problems = checks.check_sweep_totals(len(times), degenerate)
    return {"span": span, "times": times, "traced_times": traced_times,
            "failures": failures, "problems": problems}


def main(argv: list[str]) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    specs, setup_wall_s, setup_s = _setup(workload, seed)
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
        return 0
    seconds, traced = float(argv[3]), argv[4] == "1"
    meta = json.loads(argv[5])
    run, check = _operations(workload)
    from speed import SpeedProbe

    tracer = None
    if traced:
        import icodes
        from icodes import analysis, cli, construction, geometry

        from tracing import Tracer

        tracer = Tracer({
            "icodes": icodes,
            "geometry": geometry,
            "construction": construction,
            "analysis": analysis,
            "cli": cli,
        })

    passes = []
    with SpeedProbe() as probe:
        started = time.perf_counter()
        while True:
            passes.append(run_pass(specs, run, check, workload, tracer, f"p{len(passes)}"))
            # Stop at the pass boundary nearest to SECONDS, so runs average
            # SECONDS; an untraced run makes at least two passes, so that
            # every code has a second time to fall back on.
            start, end = passes[-1]["span"]
            at_nearest_boundary = end - started + (end - start) / 2 > seconds
            if at_nearest_boundary and len(passes) >= MIN_PASSES[traced]:
                break
        ended = time.perf_counter()

    def reference(intervals):
        return {i: probe.reference(*interval) for i, interval in intervals.items()}

    result = {
        "workload": workload,
        "codes": len(specs),
        "passes": [
            {
                "wall": probe.reference(*p["span"]),
                "wall_clock": p["span"][1] - p["span"][0],
                "times": reference(p["times"]),
            }
            for p in passes
        ],
        "speed_factor": probe.factor(started, ended),
        "attempted": len(specs) * len(passes) * (2 if traced else 1),
        "failures": [f for p in passes for f in p["failures"]],
        "problems": [q for p in passes for q in p["problems"]],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if traced:
        result["trace"] = _trace_summary(
            tracer, [(reference(p["times"]), reference(p["traced_times"])) for p in passes],
            result["speed_factor"], meta, workload, seed,
        )
    print(json.dumps(result))
    return 0


def _trace_summary(tracer, paired, factor, meta, workload, seed) -> dict:
    """Per-layer self times and counts per pass, and the tracing overhead.

    Span times are scaled to reference seconds by the run's speed factor;
    the overhead compares each traced code with its untraced twin.
    """
    from tracing import summarize

    count = len(paired)
    self_s, calls, counts = summarize(tracer.spans)
    untraced_s = sum(t[i] for t, tt in paired for i in t.keys() & tt.keys()) / count
    traced_s = sum(tt[i] for t, tt in paired for i in t.keys() & tt.keys()) / count
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    with path.open("w", encoding="utf-8") as handle:
        json.dump(
            {"meta": meta, "passes": count, "speed_factor": factor,
             "spans": [span.to_dict() for span in tracer.spans]},
            handle,
        )
    return {
        "passes": count,
        "self_s": {k: v / count / factor for k, v in self_s.items()},
        "calls": {k: v // count for k, v in calls.items()},
        "counts": {k: v if k.endswith("ratio") else v // count
                   for k, v in counts.items()},
        "traced_wall_s": traced_s,
        "untraced_wall_s": untraced_s,
        "spans_file": str(path.relative_to(ROOT)),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
