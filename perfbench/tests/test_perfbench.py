"""Tests of the benchmark itself: inputs, checks, spans and metric names.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter
from pathlib import Path

import pytest

import icodes
from icodes import DefiningSetSpec, Variant, analysis, cli, construction, geometry

import checks
import run
import specgen
import worker
from speed import NOMINAL_PROBE_S, SpeedProbe
from tracing import LAYERS, Span, Tracer, self_times, summarize

ROOT = Path(__file__).resolve().parents[2]
MODULES = {
    "icodes": icodes,
    "geometry": geometry,
    "construction": construction,
    "analysis": analysis,
    "cli": cli,
}


def _shape(spec):
    return (spec.variant, spec.m, len(spec.M), len(spec.N))


# -- seeded inputs ----------------------------------------------------------


@pytest.mark.parametrize("workload", specgen.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(workload):
    assert specgen.generate(workload, 7) == specgen.generate(workload, 7)


@pytest.mark.parametrize("workload", specgen.WORKLOADS)
def test_seeds_change_draws_and_order_but_not_shapes(workload):
    one, two = specgen.generate(workload, 1), specgen.generate(workload, 2)
    assert one != two
    assert sorted(map(_shape, one)) == sorted(map(_shape, two))


def test_sweep_covers_every_pair_once():
    specs = specgen.generate("sweep", 3)
    assert len(specs) == specgen.SWEEP_PAIRS == 1700
    assert len(set(specs)) == len(specs)
    assert sum(map(specgen.expected_empty, specs)) == specgen.SWEEP_DEGENERATE == 120


def test_expected_empty_agrees_with_the_library():
    for spec in specgen.generate("sweep", 0):
        try:
            construction.defining_set_length(spec)
            empty = False
        except icodes.EmptyDefiningSetError:
            empty = True
        assert specgen.expected_empty(spec) == empty, spec


def _rung_counts(spec):
    """n, |C| and the two work counts of one rung, from a traced enumeration."""
    tracer = Tracer(MODULES)
    tracer.install()
    try:
        table = construction.enumerate_code(construction.build_defining_set(spec))
    finally:
        tracer.restore()
    _, _, counts = summarize(tracer.spans)
    return (
        table.length,
        len(table.codewords),
        counts["construction.encode.coords"],
        counts["construction.enumerate_code.parities"],
    )


def test_two_seeds_do_identical_work_on_every_rung():
    for workload in ("certify", "dump"):
        one = sorted((_shape(s), _rung_counts(s)) for s in specgen.generate(workload, 11))
        two = sorted((_shape(s), _rung_counts(s)) for s in specgen.generate(workload, 12))
        assert one == two


# -- result checks ----------------------------------------------------------

SMALL_T2 = DefiningSetSpec(variant=Variant.T2, m=5, M=frozenset({1, 2, 3}), N=frozenset({4}))


def test_sweep_check_accepts_real_and_rejects_tampered_profile():
    spec = DefiningSetSpec(variant=Variant.T2, m=3, M=frozenset({1}), N=frozenset({2}))
    match = analysis.verify_against_prediction(spec)
    assert checks.check_sweep(spec, match) == []
    profile = dict(match.actual_profile)
    profile[12] += 1
    assert checks.check_sweep(spec, dataclasses.replace(match, actual_profile=profile))
    assert checks.check_sweep(spec, dataclasses.replace(match, degenerate=True))


def test_sweep_totals_must_be_exact():
    assert checks.check_sweep_totals(1700, 120) == []
    assert checks.check_sweep_totals(1699, 120)
    assert checks.check_sweep_totals(1700, 119)


def test_certify_check_rejects_one_changed_weight_row():
    report = analysis.analyze(SMALL_T2)
    assert checks.check_certify(SMALL_T2, report) == []
    rows = dict(report.lee_weight_distribution)
    rows[48] -= 1
    rows[64] += 1
    tampered = dataclasses.replace(report, lee_weight_distribution=rows)
    assert checks.check_certify(SMALL_T2, tampered)
    assert checks.check_certify(SMALL_T2, dataclasses.replace(report, minimal="yes-AB"))


def test_dump_check_rejects_tampered_output():
    dump, _ = worker._operations("dump")
    code, text = dump(SMALL_T2)
    assert checks.check_dump(SMALL_T2, code, text) == []
    assert checks.check_dump(SMALL_T2, 1, text)
    assert checks.check_dump(SMALL_T2, code, text[:-10])

    doc = json.loads(text)
    word = doc["gray_codewords"][1]
    doc["gray_codewords"][1] = ("1" if word[0] == "0" else "0") + word[1:]
    assert checks.check_dump(SMALL_T2, code, json.dumps(doc))

    doc = json.loads(text)
    doc["lee_weight_distribution"]["48"] += 1
    assert checks.check_dump(SMALL_T2, code, json.dumps(doc))


def test_a_tampered_result_is_a_failed_code_and_not_timed():
    specs = [SMALL_T2, SMALL_T2]
    results = iter([
        analysis.analyze(SMALL_T2),
        dataclasses.replace(analysis.analyze(SMALL_T2), code_size=16),
    ])
    out = worker.run_pass(specs, lambda spec: next(results), checks.check_certify, "certify")
    assert list(out["times"]) == [0]
    assert len(out["failures"]) == 1


def test_a_raising_code_is_a_failed_code():
    def boom(spec):
        raise icodes.BudgetExceededError(2, 1)

    out = worker.run_pass([SMALL_T2], boom, checks.check_certify, "certify")
    assert out["times"] == {} and len(out["failures"]) == 1


# -- reference seconds ------------------------------------------------------


def test_reference_seconds_scale_by_the_probes_around_an_interval():
    probe = SpeedProbe()
    probe.stamps = [0.0, 1.0, 2.0, 3.0, 10.0]
    probe.probes = [s * NOMINAL_PROBE_S for s in (1.0, 2.0, 2.0, 1.0, 4.0)]
    assert probe.factor(1.0, 2.0) == 2.0
    assert probe.reference(1.0, 2.0) == pytest.approx(0.5)
    assert probe.reference(2.9, 3.1) == pytest.approx(0.2)  # widened to [2.5, 3.5]
    assert probe.factor(5.0, 6.0) == 2.0  # no probe in the window: all probes


def test_probe_samples_while_entered_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe(interval_s=0.002) as probe:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(probe.probes) >= 10 and all(p > 0 for p in probe.probes)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# -- spans ------------------------------------------------------------------


def test_self_time_on_a_hand_built_tree():
    spans = [
        Span("root", 0.0, 10.0, None, "c0"),
        Span("a", 1.0, 4.0, 0, "c0"),
        Span("b", 3.0, 6.0, 0, "c0"),  # overlaps a
        Span("a.child", 2.0, 3.0, 1, "c0"),
        Span("late", 9.0, 12.0, 0, "c0"),  # runs past its parent's end
        Span("other", 20.0, 21.0, None, "c1"),
    ]
    # root: 10 minus the union [1, 6] + [9, 10] of its children.
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0, 1.0])


def test_tracer_records_nesting_and_restores_originals():
    originals = {
        (name, fname): getattr(module, fname)
        for name, module in MODULES.items()
        for _, fname, _ in LAYERS
        if hasattr(module, fname)
    }
    tracer = Tracer(MODULES)
    tracer.install()
    try:
        tracer.code = "c0"
        analysis.analyze(SMALL_T2)
    finally:
        tracer.restore()
    assert originals == {key: getattr(MODULES[key[0]], key[1]) for key in originals}

    names = Counter(span.name for span in tracer.spans)
    assert names["analysis.analyze"] == 1 and names["construction.encode"] > 0
    by_index = dict(enumerate(tracer.spans))
    for span in tracer.spans:
        assert span.code == "c0" and span.start <= span.end
        if span.name == "construction.encode":
            assert by_index[span.parent].name == "construction.enumerate_code"
    self_s, calls, _ = summarize(tracer.spans)
    assert "analysis.is_self_orthogonal.direct-pairs" in self_s


def test_benchmark_json_names_only_metrics_the_benchmark_computes():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layers = {f"{module}.{fname}" for module, fname, _ in LAYERS}
    counts = {
        "construction.encode.coords",
        "construction.enumerate_code.parities",
        "construction.enumerate_code.useful_ratio",
        "cli.output_bytes",
        "trace.overhead_s",
    }
    for entry in spec["per_layer"]:
        name = entry["name"]
        if name.endswith(".self_s"):
            base = name.removesuffix(".self_s")
            assert base in layers or base.rsplit(".", 1)[0] in layers, name
        else:
            assert name in counts, name
    fake = {
        "passes": [
            {"wall": 2.0, "times": {"0": 0.5, "1": 1.5}},
            {"wall": 4.0, "times": {"0": 0.7, "1": 1.2}},
        ],
        "peak_rss_mb": 20.0,
    }
    computed = run.e2e_metrics(fake, [0.1, 0.3])
    assert {m["name"] for m in spec["end_to_end"]} == set(computed)
    assert computed["codes_per_s"] == 1.0 and computed["code_max_s"] == 1.2
    assert computed["code_p50_s"] == pytest.approx(0.85)
    assert computed["setup_s"] == pytest.approx(0.2)
