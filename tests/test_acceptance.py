"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Criteria (and their runtime ceilings) in brief:
  1. ring tables, commutativity, non-unitality (< 1 s)
  2. the six reference example codes, bit-exact (heavy one < 60 s)
  3. exhaustive m <= 4 sweep of all five variants vs the closed forms (< 5 min)
  4. character-sum / counting / complement / generating-function identities (< 1 min)
  5. Gray isometry, exhaustive m <= 4 plus 10^4 random distance pairs (< 10 s)
  6. implication chain and self-orthogonality condition across all codes
  7. every 1-weight image decomposes as a replicated simplex code
  8. closed-form optimality predictor vs Griesmer status for T2, m <= 5
"""

import random
import time
from dataclasses import dataclass

import pytest

from icodes import (
    BitVector,
    DefiningSetSpec,
    ELEMENTS,
    RingVector,
    Variant,
    all_vectors,
    analyze,
    binary_params,
    build_defining_set,
    character_sum,
    complex_from_generator,
    complex_from_maximal_faces,
    enumerate_code,
    generating_function,
    gray_image,
    griesmer_check,
    support_disjoint,
    theta_conditions,
)
from test_construction import gray_bits, lee_weight

ADDITION_ROWS = ["0abc", "a0cb", "bc0a", "cba0"]
MULTIPLICATION_ROWS = ["0000", "0b0b", "0000", "0b0b"]

REFERENCE_EXAMPLES = [
    # variant, m, M, N, enumerator, [n, k, d], certified-optimal expected?
    (Variant.T1, 6, {2, 3}, {4, 5}, "X^32 + 3X^16Y^16", [32, 2, 16], None),
    (Variant.T2, 5, {1, 2, 3}, {4}, "X^96 + 28X^48Y^48 + 3X^32Y^64", [96, 5, 48], True),
    (
        Variant.T2, 9, {1, 2, 3, 4, 7, 8, 9}, {5, 6},
        "X^3072 + 508X^1536Y^1536 + 3X^1024Y^2048", [3072, 9, 1536], True,
    ),
    (Variant.T3, 3, {1, 2, 3}, {1, 2}, "X^64 + 7X^32Y^32", [64, 3, 32], None),
    (Variant.T4, 5, {2, 3, 4}, {1, 2, 4, 5}, "X^768 + 28X^384Y^384 + 3X^256Y^512", [768, 5, 384], None),
    (Variant.T5, 4, {2, 3, 4}, {1, 2, 4}, "X^384 + 14X^192Y^192 + X^128Y^256", [384, 4, 192], None),
]


def report_line(capsys, number: int, label: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {number} ({label}): {detail}")
    assert ok, f"criterion {number} ({label}): {detail}"


def subsets_of(m: int):
    for mask in range(1 << m):
        yield frozenset(i + 1 for i in range(m) if mask >> i & 1)


@dataclass
class Sweep:
    reports: list
    elapsed: float


@pytest.fixture(scope="module")
def sweep_m4() -> Sweep:
    """All five variants over every (M, N) pair for m in 1..4, fully analyzed."""
    start = time.perf_counter()
    reports = []
    for variant in (Variant.T1, Variant.T2, Variant.T3, Variant.T4, Variant.T5):
        for m in range(1, 5):
            for M in subsets_of(m):
                for N in subsets_of(m):
                    spec = DefiningSetSpec(variant=variant, m=m, M=M, N=N)
                    reports.append(analyze(spec))
    return Sweep(reports, time.perf_counter() - start)


@pytest.fixture(scope="module")
def example_reports() -> list:
    return [
        analyze(DefiningSetSpec(variant=v, m=m, M=frozenset(M), N=frozenset(N)))
        for v, m, M, N, _, _, _ in REFERENCE_EXAMPLES
    ]


def test_criterion_1_ring_fidelity(capsys):
    start = time.perf_counter()
    ok = True
    for i, x in enumerate(ELEMENTS):
        for j, y in enumerate(ELEMENTS):
            ok = ok and (x + y).symbol == ADDITION_ROWS[i][j]
            ok = ok and (x * y).symbol == MULTIPLICATION_ROWS[i][j]
            ok = ok and x + y == y + x and x * y == y * x
    ok = ok and all(any(e * x != x for x in ELEMENTS) for e in ELEMENTS)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report_line(
        capsys, 1, "ring fidelity",
        ok, f"32 table entries, commutativity, non-unitality in {elapsed:.3f}s (< 1s)",
    )


def test_criterion_2_reference_examples(capsys, example_reports):
    problems = []
    heavy_elapsed = None
    for (variant, m, M, N, enumerator, params, optimal), report in zip(
        REFERENCE_EXAMPLES, example_reports
    ):
        label = f"{variant.value} m={m}"
        if report.lee_enumerator != enumerator:
            problems.append(f"{label}: enumerator {report.lee_enumerator}")
        if report.params.as_list() != params:
            problems.append(f"{label}: params {report.params}")
        if report.minimal != "yes-exhaustive":
            problems.append(f"{label}: minimal={report.minimal}")
        if report.self_orthogonal != "yes-direct":
            problems.append(f"{label}: self-orthogonal={report.self_orthogonal}")
        if optimal and report.optimality != "certified-optimal":
            problems.append(f"{label}: optimality={report.optimality}")
        if report.prediction_diffs:
            problems.append(f"{label}: {report.prediction_diffs}")

    # the 2a Griesmer sums are pinned to 93 vs 98
    two_a = example_reports[1]
    if (two_a.griesmer_sum_at_d, two_a.griesmer_sum_at_d_plus_1) != (93, 98):
        problems.append(
            f"2a sums {two_a.griesmer_sum_at_d}/{two_a.griesmer_sum_at_d_plus_1}"
        )

    # the heavy m=9 case must run end to end inside 60 s
    start = time.perf_counter()
    spec = DefiningSetSpec(
        variant=Variant.T2, m=9, M=frozenset({1, 2, 3, 4, 7, 8, 9}), N=frozenset({5, 6})
    )
    heavy = analyze(spec)
    heavy_elapsed = time.perf_counter() - start
    if heavy.params.as_list() != [3072, 9, 1536] or heavy_elapsed >= 60:
        problems.append(f"m=9 rerun {heavy.params} in {heavy_elapsed:.1f}s")

    report_line(
        capsys, 2, "reference examples",
        not problems,
        problems or f"6 codes bit-exact; m=9 analysis in {heavy_elapsed:.2f}s (< 60s)",
    )


def test_criterion_3_distribution_sweep(capsys, sweep_m4):
    bad = [
        f"{r.variant.value} m={r.m} M={list(r.M)} N={list(r.N)}: {r.prediction_diffs}"
        for r in sweep_m4.reports
        if r.prediction_match is not True and not r.degenerate
    ]
    bad += [
        f"degenerate disagreement at {r.variant.value} m={r.m}"
        for r in sweep_m4.reports
        if r.degenerate and r.prediction_match is False
    ]
    count = len(sweep_m4.reports)
    ok = not bad and count == 5 * sum(4**m for m in range(1, 5)) and sweep_m4.elapsed < 300
    report_line(
        capsys, 3, "theorem sweep",
        ok,
        bad[:3] or f"{count} parameter pairs match the tables in {sweep_m4.elapsed:.1f}s (< 300s)",
    )


def test_criterion_4_lemma_suite(capsys):
    start = time.perf_counter()
    problems = []

    # character sum over a generated complex vs 2^|M| * indicator, all m <= 5
    for m in range(1, 6):
        for M in subsets_of(m):
            cx = complex_from_generator(m, M)
            members = cx.members()
            for alpha in all_vectors(m):
                direct = sum(-1 if alpha.dot(t) else 1 for t in members)
                if direct != (1 << len(M)) * support_disjoint(alpha, M):
                    problems.append(f"char sum at m={m} M={sorted(M)} a={alpha}")
                if character_sum(alpha, members) != direct:
                    problems.append(f"char sum impl at m={m}")

    # indicator counts, both parts, all m <= 5
    for m in range(1, 6):
        for M in subsets_of(m):
            ones = sum(support_disjoint(v, M) for v in all_vectors(m))
            if ones != 1 << (m - len(M)):
                problems.append(f"count(=1) at m={m} M={sorted(M)}")
            if (1 << m) - ones != ((1 << len(M)) - 1) * (1 << (m - len(M))):
                problems.append(f"count(=0) at m={m} M={sorted(M)}")

    # complement identity by direct summation, all m <= 5
    for m in range(1, 6):
        for M in subsets_of(m):
            cx = complex_from_generator(m, M)
            comp = list(cx.complement())
            for alpha in all_vectors(m):
                lhs = sum(-1 if alpha.dot(t) else 1 for t in comp)
                rhs = ((1 << m) if alpha.bits == 0 else 0) - character_sum(alpha, cx.members())
                if lhs != rhs:
                    problems.append(f"complement identity at m={m} M={sorted(M)}")

    # generating function vs direct enumeration: all generated complexes
    # for m <= 5, then 120 random multi-face complexes up to m = 10
    def direct_coeffs(cx):
        out = {}
        for v in cx.members():
            out[v.bits] = out.get(v.bits, 0) + 1
        return out

    for m in range(1, 6):
        for M in subsets_of(m):
            cx = complex_from_generator(m, M)
            poly = generating_function(cx)
            if poly.coeffs != direct_coeffs(cx) or poly.evaluate_all_ones() != len(cx):
                problems.append(f"generating function at m={m} M={sorted(M)}")
    rng = random.Random(2024)
    for _ in range(120):
        m = rng.randint(1, 10)
        faces = [BitVector(m, rng.randrange(1, 1 << m)) for _ in range(rng.randint(1, 4))]
        cx = complex_from_maximal_faces(m, faces)
        poly = generating_function(cx)
        if poly.coeffs != direct_coeffs(cx) or poly.evaluate_all_ones() != len(cx):
            problems.append(f"generating function on random complex m={m}")

    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 60
    report_line(
        capsys, 4, "lemma suite",
        ok, problems[:3] or f"identities exhaustive m<=5 plus 120 random complexes in {elapsed:.1f}s (< 60s)",
    )


def test_criterion_5_gray_isometry(capsys):
    start = time.perf_counter()
    problems = []
    for m in range(1, 5):
        for s in range(1 << m):
            for t in range(1 << m):
                v = RingVector(m, s, t)
                if gray_bits(v).bit_count() != lee_weight(v):
                    problems.append(f"weight at m={m} s={s} t={t}")
    rng = random.Random(99)
    for _ in range(10_000):
        m = rng.randint(1, 12)
        x = RingVector(m, rng.randrange(1 << m), rng.randrange(1 << m))
        y = RingVector(m, rng.randrange(1 << m), rng.randrange(1 << m))
        if (gray_bits(x) ^ gray_bits(y)).bit_count() != lee_weight(x + y):
            problems.append(f"distance at m={m}")
    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 10
    report_line(
        capsys, 5, "Gray isometry",
        ok, problems[:3] or f"exhaustive m<=4 and 10^4 random pairs in {elapsed:.1f}s (< 10s)",
    )


def test_criterion_6_property_implications(capsys, sweep_m4, example_reports):
    problems = []
    for r in sweep_m4.reports + example_reports:
        label = f"{r.variant.value} m={r.m} M={list(r.M)} N={list(r.N)}"
        if r.weights_div4 and r.self_orthogonal != "yes-direct":
            problems.append(f"div4 without self-orthogonality: {label}")
        if r.ab_holds and r.minimal not in ("yes-exhaustive", "yes-AB"):
            problems.append(f"weight-ratio condition without minimality: {label}")
        if (
            len(r.M) + len(r.N) >= 2
            and r.self_orthogonal is not None
            and r.self_orthogonal != "yes-direct"
        ):
            problems.append(f"|M|+|N| >= 2 but not self-orthogonal: {label}")
    checked = len(sweep_m4.reports) + len(example_reports)
    report_line(
        capsys, 6, "property implications",
        not problems, problems[:3] or f"implication chain holds on {checked} codes",
    )


def test_criterion_7_one_weight_simplex_structure(capsys, sweep_m4, example_reports):
    problems = []
    checked = 0
    for r in sweep_m4.reports + example_reports:
        if r.simplex is None or r.simplex.kind == "not-one-weight":
            continue
        checked += 1
        label = f"{r.variant.value} m={r.m} M={list(r.M)} N={list(r.N)}"
        if r.simplex.kind != "replicated-simplex":
            problems.append(f"not a replicated simplex: {label}")
            continue
        if r.simplex.replication * (1 << (r.params.k - 1)) != r.params.d:
            problems.append(f"replication inconsistent with weight: {label}")
    ok = not problems and checked > 0
    report_line(
        capsys, 7, "1-weight simplex structure",
        ok, problems[:3] or f"{checked} one-weight images decompose as replicated simplex codes",
    )


def test_criterion_8_theta_agreement(capsys, no_spot_check):
    start = time.perf_counter()
    problems = []
    checked = 0
    for m in range(1, 6):
        for M in subsets_of(m):
            if not 1 <= len(M) <= m - 1:
                continue
            for N in subsets_of(m):
                spec = DefiningSetSpec(variant=Variant.T2, m=m, M=M, N=N)
                table = enumerate_code(build_defining_set(spec))
                params = binary_params(gray_image(table))
                status = griesmer_check(params.n, params.k, params.d)
                predicted = theta_conditions(m, len(M), len(N)).predicts_optimal
                checked += 1
                if predicted != status.certified_optimal:
                    problems.append(
                        f"m={m} M={sorted(M)} N={sorted(N)}: predictor {predicted}, "
                        f"Griesmer {status.status.value}"
                    )
    elapsed = time.perf_counter() - start
    report_line(
        capsys, 8, "theta agreement",
        not problems,
        problems[:3] or f"{checked} T2 parameter sets agree (m <= 5) in {elapsed:.1f}s",
    )
