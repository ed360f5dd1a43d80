"""icodes benchmark: one command for the sweep, certify and dump workloads.

    python3 perfbench/run.py --workload sweep|certify|dump|all --seed N \
        --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src/``.
Each workload runs in its own fresh single-threaded process (``worker.py``),
one at a time.  Set-up (importing ``icodes`` and generating the specs) is
timed in SETUP_RUNS further fresh processes after one warm-up, half before
and half after the workload so that they see the machine at different
times, and the median is reported.  Times are in reference seconds, which
``speed.py`` defines and measures.  With ``--trace 0`` the end-to-end
metrics listed in ``BENCHMARK.json`` are printed; with ``--trace 1`` the
per-layer ones, from a run in which every code runs both untraced and
traced.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 only if every
code was checked correct against the closed forms.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "certify", "dump")
SETUP_RUNS = 12
#: A benchmark run must end within 180 s; leave room for the set-up processes.
RUN_DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def source_meta(seed: int) -> dict:
    """What a result must be labelled with so runs are compared like for like."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "icodes").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, check=False,
        )
        commit = proc.stdout.strip() or None
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "icodes_commit": commit,
        "icodes_source_sha256": digest.hexdigest(),
    }


def _worker(args: list[str], deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            capture_output=True, text=True, timeout=remaining, env=env, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[:2]} did not finish in time") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(
            f"worker {args[:2]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def e2e_metrics(result: dict, setup_samples: list[float]) -> dict[str, float]:
    """End-to-end metrics from the passes of one untraced worker."""
    passes = result["passes"]
    per_code: dict[str, list[float]] = {}
    for p in passes:
        for code, seconds in p["times"].items():
            per_code.setdefault(code, []).append(seconds)
    # Each code's fastest pass, and the fastest pass for throughput, so that
    # a slow spell of the host in one pass moves no metric.
    times = sorted(min(v) for v in per_code.values()) or [0.0]
    p99 = (
        statistics.quantiles(times, n=100, method="inclusive")[98]
        if len(times) > 1 else times[0]
    )
    return {
        "setup_s": statistics.median(setup_samples),
        "codes_per_s": max(len(p["times"]) / p["wall"] for p in passes),
        "code_p50_s": statistics.median(times),
        "code_p99_s": p99,
        "code_max_s": times[-1],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics from a traced run: self time per pass, counts per pass."""
    metrics: dict[str, float] = {
        "trace.overhead_s": trace["traced_wall_s"] - trace["untraced_wall_s"],
    }
    for key, seconds in trace["self_s"].items():
        metrics[f"{key}.self_s"] = seconds
    metrics.update(trace["counts"])
    return metrics


def _print_trace(trace: dict) -> None:
    wall = trace["traced_wall_s"]
    print(f"per pass: codes traced {wall:.4f} s, the same codes untraced "
          f"{trace['untraced_wall_s']:.4f} s, overhead {wall - trace['untraced_wall_s']:+.4f} s "
          f"({trace['passes']} pass(es); spans in {trace['spans_file']})")
    print(f"{'layer':<48} {'calls/pass':>10} {'self s/pass':>12} {'share':>7}")
    for key, seconds in sorted(trace["self_s"].items(), key=lambda kv: -kv[1]):
        print(f"{key:<48} {trace['calls'][key]:>10} {seconds:>12.4f} "
              f"{seconds / wall:>7.1%}")
    for key, value in sorted(trace["counts"].items()):
        print(f"{key} = {value}")


def run_workload(workload: str, seed: int, seconds: int, traced: bool,
                 bench: dict) -> tuple[dict, int, int, bool]:
    """Run one workload; print its report; return (metrics, attempted, failed, correct)."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    meta = {"workload": workload, "seconds": seconds, "trace": int(traced),
            **source_meta(seed)}
    print(f"# meta {json.dumps(meta, sort_keys=True)}")
    setup_args = ["setup", workload, str(seed)]
    _worker(setup_args, deadline)  # warm-up: byte-code caches, file cache
    # Set-up is an end-to-end metric only; a traced run skips its samples.
    half = 0 if traced else SETUP_RUNS // 2
    setups = [_worker(setup_args, deadline) for _ in range(half)]
    result = _worker(
        ["run", workload, str(seed), str(seconds), str(int(traced)), json.dumps(meta)],
        deadline,
    )
    setups += [_worker(setup_args, deadline) for _ in range(half)]
    attempted, failures = result["attempted"], result["failures"]
    correct = not failures and not result["problems"]
    for line in failures[:20] + result["problems"]:
        print(f"FAILED {line}", file=sys.stderr)

    names = bench["per_layer"] if traced else bench["end_to_end"]
    if traced:
        _print_trace(result["trace"])
        computed = layer_metrics(result["trace"])
    else:
        computed = e2e_metrics(result, [s["setup_s"] for s in setups])
    metrics = {}
    for entry in names:
        # A layer a workload never calls reads 0 on that workload.
        value = computed.get(entry["name"], 0.0)
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{workload} {entry['name']} = {value:.6g} {entry['unit']}")
    if not traced:
        passes = result["passes"]
        checked = sum(len(p["times"]) for p in passes)
        print(f"{workload} samples: {len(passes)} pass(es) x "
              f"{result['codes']} codes; percentiles over {result['codes']} per-code "
              f"minima ({checked} timed calls)")
        print(f"{workload} wall clock, all passes: codes_per_s = "
              f"{checked / sum(p['wall_clock'] for p in passes):.6g} 1/s, setup_s = "
              f"{statistics.median(s['setup_wall_s'] for s in setups):.6g} s; "
              f"speed factor {result['speed_factor']:.4f} (probe median / nominal)")
    print(f"{workload} error_rate = {len(failures) / attempted:.6g} "
          f"({len(failures)} of {attempted} codes failed)")
    return metrics, attempted, len(failures), correct


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "icodes" / "__init__.py").is_file():
        print(f"error: no icodes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed, correct = {}, 0, 0, True
    try:
        for workload in workloads:
            got, tried, lost, ok = run_workload(
                workload, args.seed, args.seconds, bool(args.trace), bench
            )
            prefix = "" if len(workloads) == 1 else f"{workload}."
            metrics.update({prefix + name: value for name, value in got.items()})
            attempted, failed, correct = attempted + tried, failed + lost, correct and ok
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
