"""Predicted distributions, verification sweeps, and the certificates."""

import dataclasses
import io
import json
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from icodes import analysis, construction
from icodes.geometry import bit_string, gf2_basis
from icodes.analysis import ALL_ANALYSES, has_weight_triple
from icodes.cli import main
from icodes import (
    Alphabet,
    CodeTable,
    DefiningSetSpec,
    EmptyDefiningSetError,
    GriesmerStatus,
    Variant,
    ab_condition,
    analyze,
    binary_params,
    build_defining_set,
    enumerate_code,
    gray_image,
    griesmer_check,
    is_minimal_exhaustive,
    is_self_orthogonal,
    predicted_distribution,
    simplex_structure,
    theta_conditions,
    verify_against_prediction,
    weights_divisible_by_4,
)
from test_construction import generic_sets_with_zero_and_repeats


def spec(variant, m, M=(), N=()):
    return DefiningSetSpec(variant=variant, m=m, M=frozenset(M), N=frozenset(N))


def binary_table(n: int, words) -> CodeTable:
    """The table whose rows are the words: a linear word set, with its
    distribution counted from the words."""
    from collections import Counter

    return CodeTable(
        Alphabet.BINARY, n, tuple(words), 1, dict(Counter(w.bit_count() for w in words))
    )


def span(generators, n):
    """The span of the generators as a table whose rows are every word of it."""
    words = {0}
    for g in generators:
        words |= {w ^ g for w in words}
    return binary_table(n, sorted(words))


def rows_table(generators, n) -> CodeTable:
    """The span of the generators as a table that keeps only its rows."""
    words = span(generators, n)
    return CodeTable(Alphabet.BINARY, n, tuple(generators), 1, words.weight_distribution)


def assert_same_certificates(table, other):
    """Minimality, self-orthogonality and, on 1-weight codes, the simplex
    check give one verdict on two tables of one code."""
    assert is_minimal_exhaustive(table) == is_minimal_exhaustive(other)
    assert is_self_orthogonal(table).self_orthogonal == is_self_orthogonal(other).self_orthogonal
    if table.num_weights == 1:
        assert simplex_structure(table) == simplex_structure(other)


# --- predicted distributions -----------------------------------------------


def test_predicted_t2_rows():
    pred = predicted_distribution(Variant.T2, 5, {1, 2, 3}, {4})
    assert pred.rows == {64: 96, 48: 896, 0: 32}
    assert pred.length == 48
    assert pred.code_size == 32
    assert (pred.binary_n, pred.binary_k, pred.binary_d) == (96, 5, 48)


def test_predicted_degenerate_t1_collapses_to_zero_row():
    pred = predicted_distribution(Variant.T1, 3, set(), set())
    assert pred.rows == {0: 4**3}
    assert pred.num_weights == 0
    assert pred.zero_code and not pred.empty


def test_predicted_t5_rows():
    pred = predicted_distribution(Variant.T5, 4, {1, 2, 3}, {1, 2, 3})
    assert pred.rows == {256: 16, 192: 224, 0: 16}


def test_predicted_rows_always_sum_to_message_count():
    for variant in (Variant.T1, Variant.T2, Variant.T3, Variant.T4, Variant.T5):
        for m in range(1, 5):
            for a in range(m + 1):
                pred = predicted_distribution(
                    variant, m, set(range(1, a + 1)), set(range(1, m + 1))
                )
                assert sum(pred.rows.values()) == 4**m


def test_predicted_empty_defining_set():
    pred = predicted_distribution(Variant.T2, 3, {1, 2, 3}, {1})
    assert pred.empty
    assert pred.rows == {0: 4**3}


# --- verification ------------------------------------------------------------


def test_verify_reference_t3_and_t4():
    r = verify_against_prediction(spec(Variant.T3, 3, {1, 2, 3}, {1, 2}))
    assert r.matched and not r.degenerate
    assert r.actual_profile == {0: 8, 32: 56}
    r = verify_against_prediction(spec(Variant.T4, 5, {2, 3, 4}, {1, 2, 4, 5}))
    assert r.matched
    assert r.actual_profile == {0: 32, 384: 896, 512: 96}


def test_verify_sweep_m_up_to_3():
    for variant in (Variant.T1, Variant.T2, Variant.T3, Variant.T4, Variant.T5):
        for m in range(1, 4):
            for mm in range(1 << m):
                for nn in range(1 << m):
                    M = frozenset(i + 1 for i in range(m) if mm >> i & 1)
                    N = frozenset(i + 1 for i in range(m) if nn >> i & 1)
                    r = verify_against_prediction(spec(variant, m, M, N))
                    assert r.matched, (variant, m, sorted(M), sorted(N), r.diffs)


def test_verify_degenerate_empty_agreement():
    r = verify_against_prediction(spec(Variant.T2, 3, {1, 2, 3}, {2}))
    assert r.matched and r.degenerate and r.actual_profile is None


def test_verify_rejects_generic():
    from icodes import BitVector

    generic = DefiningSetSpec(
        variant=Variant.GENERIC, m=2, d1=(BitVector(2, 1),), d2=(BitVector(2, 0),)
    )
    with pytest.raises(ValueError):
        verify_against_prediction(generic)


# --- self-orthogonality --------------------------------------------------------


def test_self_orthogonal_repetition_codes():
    assert is_self_orthogonal(binary_table(2, [0b00, 0b11])).self_orthogonal
    finding = is_self_orthogonal(binary_table(3, [0b000, 0b111]))
    assert not finding.self_orthogonal
    assert finding.witness == (0b111, 0b111)


def test_self_orthogonal_zero_code():
    assert is_self_orthogonal(binary_table(4, [0])).self_orthogonal


def test_self_orthogonal_reference_example():
    table = enumerate_code(build_defining_set(spec(Variant.T1, 6, {2, 3}, {4, 5})))
    assert is_self_orthogonal(gray_image(table)).self_orthogonal


def test_self_orthogonal_basis_path_matches_direct():
    def all_pairs_even(table):
        # oracle: every pair of codewords, each word with itself included
        words = table.codewords
        return all(not (u & v).bit_count() & 1 for u in words for v in words)

    tables = [
        gray_image(enumerate_code(build_defining_set(spec(variant, m, M, N))))
        for variant, m, M, N in [
            (Variant.T1, 2, {1}, {2}),
            (Variant.T2, 3, {1}, {2}),
            (Variant.T2, 4, {1}, {2, 3}),
            (Variant.T5, 3, {1, 2}, {3}),
        ]
    ]
    rng = random.Random(11)
    for n in (3, 5, 8, 70):
        for _ in range(20):
            tables.append(span([rng.randrange(1 << n) for _ in range(rng.randint(1, 4))], n))
    tables.append(span([0b011, 0b110], 3))  # every word even, 011.110 odd
    verdicts = set()
    for table in tables:
        finding = is_self_orthogonal(table)
        assert finding.method == "spanning-basis"
        assert finding.self_orthogonal == all_pairs_even(table)
        verdicts.add(finding.self_orthogonal)
        if finding.witness is not None:
            u, v = finding.witness
            assert u in table.codewords and v in table.codewords
            assert (u & v).bit_count() & 1
    assert verdicts == {True, False}


def test_weights_divisible_by_4_examples():
    t2 = gray_image(enumerate_code(build_defining_set(spec(Variant.T2, 5, {1, 2, 3}, {4}))))
    assert weights_divisible_by_4(t2)
    assert is_self_orthogonal(t2).self_orthogonal
    assert not weights_divisible_by_4(binary_table(3, [0b000, 0b111]))


# --- minimality -----------------------------------------------------------------


def pairwise_minimality(table: CodeTable) -> tuple[bool, tuple[int, int] | None]:
    """Brute-force oracle: the first ordered pair of distinct nonzero
    codewords, in table order, whose second support contains the first."""
    nonzero = [w for w in table.codewords if w]
    for u in nonzero:
        for v in nonzero:
            if u != v and u & v == u:
                return False, (u, v)
    return True, None


def test_one_weight_codes_are_minimal():
    table = gray_image(enumerate_code(build_defining_set(spec(Variant.T1, 4, {1, 2}, {3}))))
    assert is_minimal_exhaustive(table).minimal


def test_reference_t5_image_is_minimal():
    table = gray_image(enumerate_code(build_defining_set(spec(Variant.T5, 4, {2, 3, 4}, {1, 2, 4}))))
    assert is_minimal_exhaustive(table).minimal


def test_non_minimal_witness():
    table = binary_table(4, [0b0000, 0b0011, 0b1100, 0b1111])
    finding = is_minimal_exhaustive(table)
    assert not finding.minimal
    covered, covering = finding.witness
    assert covered & covering == covered
    assert covered != covering
    # random spans give covered words with several covers, so the
    # witness order is pinned against the pairwise oracle
    rng = random.Random(11)
    non_minimal = 0
    for _ in range(300):
        n = rng.choice((4, 6, 9, 70))
        generators = [rng.randrange(1 << n) for _ in range(rng.randint(1, 5))]
        table = span(generators, n)
        finding = is_minimal_exhaustive(table)
        assert (finding.minimal, finding.witness) == pairwise_minimality(table)
        # the same span kept as its (possibly dependent) generator rows
        assert_same_certificates(rows_table(generators, n), table)
        non_minimal += not finding.minimal
    assert 0 < non_minimal < 300


def test_minimality_decides_large_spans_and_rejects_non_linear_tables():
    k = 12
    rows = [
        sum(1 << (x - 1) for x in range(1, 1 << k) if x >> i & 1) for i in range(k)
    ]
    simplex = span(rows, (1 << k) - 1)
    assert len(simplex) == 4096
    finding = is_minimal_exhaustive(simplex)
    assert finding.minimal and finding.witness is None
    # a word set that is not a subspace is rejected when the table is built
    with pytest.raises(AssertionError, match="2\\^rank"):
        binary_table(2, [0, 1, 2])


def test_ab_condition_cases():
    one_weight = gray_image(enumerate_code(build_defining_set(spec(Variant.T1, 4, {1, 2}, {3}))))
    finding = ab_condition(one_weight)
    assert finding.holds and finding.ratio == 1

    wide = gray_image(enumerate_code(build_defining_set(spec(Variant.T2, 4, {1, 2}, {3}))))
    finding = ab_condition(wide)
    assert finding.holds and finding.ratio == Fraction(3, 4)

    # |M| = m-1 pins the ratio at exactly 1/2: the sufficient test fails
    edge = gray_image(enumerate_code(build_defining_set(spec(Variant.T2, 3, {1, 2}, {3}))))
    finding = ab_condition(edge)
    assert not finding.holds and finding.ratio == Fraction(1, 2)


def test_ab_condition_zero_code_rejected():
    with pytest.raises(ValueError):
        ab_condition(binary_table(2, [0]))


def minimality_paths(ds):
    """The image of ds and the rank scan's finding on it (None for a zero
    code).  The finding must equal the pairwise oracle's, verdict and
    witness, and be minimal when the weights have no triple; the same code
    as a built word list must get the same certificates."""
    image = gray_image(enumerate_code(ds))
    if image.min_nonzero_weight() is None:
        return None
    finding = is_minimal_exhaustive(image)
    assert (finding.minimal, finding.witness) == pairwise_minimality(image)
    assert finding.minimal or has_weight_triple(ds.lee_weights)
    # the image keeps its rows; the same code as a built word list
    assert_same_certificates(image, binary_table(image.length, image.codewords))
    return image, finding


def test_ab_implies_exhaustive_minimality_on_sweep(no_spot_check):
    decided = non_minimal = 0
    for variant in (Variant.T1, Variant.T2, Variant.T3, Variant.T4, Variant.T5):
        for m in range(1, 5):
            for mm in range(1 << m):
                for nn in range(1 << m):
                    M = frozenset(i + 1 for i in range(m) if mm >> i & 1)
                    N = frozenset(i + 1 for i in range(m) if nn >> i & 1)
                    try:
                        ds = build_defining_set(spec(variant, m, M, N))
                    except EmptyDefiningSetError:
                        continue
                    found = minimality_paths(ds)
                    if found is None:
                        continue
                    image, finding = found
                    # on T1-T5 a weight triple occurs exactly in the non-minimal codes
                    assert has_weight_triple(ds.lee_weights) is not finding.minimal
                    decided += 1
                    non_minimal += not finding.minimal
                    if ab_condition(image).holds:
                        assert finding.minimal
    assert (decided, non_minimal) == (1524, 192)
    # GENERIC sets with zero and repeated members have many more weights
    verdicts = Counter(
        found[1].minimal
        for found in map(minimality_paths, generic_sets_with_zero_and_repeats(14))
        if found is not None
    )
    assert verdicts[True] and verdicts[False]


@pytest.mark.parametrize("m", [12, 14])
def test_weight_function_and_rank_scan_agree_on_large_non_minimal_codes(m):
    # |M| = m-1: one a-part weighs twice the others, a triple a + a = 2a
    s = spec(Variant.T2, m, set(range(1, m)), {m})
    ds = build_defining_set(s)
    image = gray_image(enumerate_code(ds))
    assert has_weight_triple(ds.lee_weights)
    finding = is_minimal_exhaustive(image)
    assert not finding.minimal
    covered, covering = finding.witness
    assert covered & covering == covered and covered != covering
    report = analyze(s, analyses=["minimal"])
    assert report.minimal == "no"
    assert report.minimal_witness == tuple(bit_string(w, image.length) for w in finding.witness)


# --- Griesmer ---------------------------------------------------------------------


def test_griesmer_reference_sums():
    finding = griesmer_check(96, 5, 48)
    assert (finding.sum_at_d, finding.sum_at_d_plus_1) == (93, 98)
    assert finding.status is GriesmerStatus.CERTIFIED_OPTIMAL

    finding = griesmer_check(3072, 9, 1536)
    assert finding.status is GriesmerStatus.CERTIFIED_OPTIMAL
    assert finding.sum_at_d == 3066 and finding.sum_at_d_plus_1 == 3075


def test_griesmer_simplex_meets_bound():
    finding = griesmer_check(7, 3, 4)
    assert finding.sum_at_d == 7
    assert finding.status is GriesmerStatus.GRIESMER_CODE
    assert finding.certified_optimal


def test_griesmer_inconclusive_and_infeasible():
    assert griesmer_check(8, 2, 4).status is GriesmerStatus.INCONCLUSIVE
    assert griesmer_check(7, 3, 5).status is GriesmerStatus.INFEASIBLE


def test_griesmer_validation():
    with pytest.raises(ValueError):
        griesmer_check(8, 0, 4)
    with pytest.raises(ValueError):
        griesmer_check(8, 2, 0)


# --- the closed-form optimality predictor -------------------------------------


def test_theta_small_band():
    finding = theta_conditions(5, 3, 1)
    assert finding.theta1 == 3 and finding.theta2 is None
    assert finding.predicts_optimal


def test_theta_large_band():
    finding = theta_conditions(9, 7, 2)
    assert finding.theta1 is None and finding.theta2 == 6
    assert finding.predicts_optimal


def test_theta_boundary_not_optimal():
    finding = theta_conditions(5, 3, 2)
    assert finding.theta2 == 6
    assert not finding.predicts_optimal


def test_theta_outside_applicable_band():
    with pytest.raises(ValueError):
        theta_conditions(4, 0, 2)
    with pytest.raises(ValueError):
        theta_conditions(4, 4, 1)


def test_theta_agrees_with_griesmer_on_actual_codes():
    for m in range(2, 5):
        for mm in range(1 << m):
            for nn in range(1 << m):
                M = frozenset(i + 1 for i in range(m) if mm >> i & 1)
                N = frozenset(i + 1 for i in range(m) if nn >> i & 1)
                if not 1 <= len(M) <= m - 1:
                    continue
                table = enumerate_code(build_defining_set(spec(Variant.T2, m, M, N)))
                params = binary_params(gray_image(table))
                finding = griesmer_check(params.n, params.k, params.d)
                predicted = theta_conditions(m, len(M), len(N)).predicts_optimal
                assert predicted == finding.certified_optimal, (m, sorted(M), sorted(N))


# --- simplex structure ----------------------------------------------------------


def test_standard_simplex_code():
    generators = [0b0001111, 0b0110011, 0b1010101]
    table = span(generators, 7)
    finding = simplex_structure(table)
    assert finding.kind == "replicated-simplex"
    assert finding.replication == 1
    assert finding.zero_columns == 0


def test_reference_one_weight_images():
    t1 = gray_image(enumerate_code(build_defining_set(spec(Variant.T1, 6, {2, 3}, {4, 5}))))
    finding = simplex_structure(t1)
    assert finding.kind == "replicated-simplex"
    assert finding.replication == 8 and finding.zero_columns == 8

    t3 = gray_image(enumerate_code(build_defining_set(spec(Variant.T3, 3, {1, 2, 3}, {1, 2}))))
    finding = simplex_structure(t3)
    assert finding.replication == 8 and finding.zero_columns == 8


def test_simplex_rejects_multi_weight_codes():
    t2 = gray_image(enumerate_code(build_defining_set(spec(Variant.T2, 4, {1, 2}, {3}))))
    with pytest.raises(ValueError):
        simplex_structure(t2)


# --- full analysis driver --------------------------------------------------------


def test_analyze_reference_t2_report():
    report = analyze(spec(Variant.T2, 5, {1, 2, 3}, {4}))
    assert report.params.as_list() == [96, 5, 48]
    assert report.minimal == "yes-exhaustive"
    assert report.self_orthogonal == "yes-direct"
    assert report.optimality == "certified-optimal"
    assert report.theta1 == 3 and report.theta_predicts_optimal
    assert report.prediction_match
    assert report.prediction_diffs == ()
    assert report.lee_enumerator == "X^96 + 28X^48Y^48 + 3X^32Y^64"


def test_analyze_t4_reports_optimality_without_gating():
    report = analyze(spec(Variant.T4, 5, {2, 3, 4}, {1, 2, 4, 5}))
    assert report.minimal == "yes-exhaustive"
    assert report.self_orthogonal == "yes-direct"
    assert report.optimality in ("certified-optimal", "inconclusive", "griesmer-code")
    assert report.theta1 is None and report.theta2 is None
    assert report.prediction_diffs == ()


def test_analyze_one_weight_reports_simplex():
    report = analyze(spec(Variant.T1, 6, {2, 3}, {4, 5}))
    assert report.num_weights == 1
    assert report.simplex.kind == "replicated-simplex"
    assert report.simplex.replication * 2 ** (report.params.k - 1) == report.params.d
    assert report.prediction_diffs == ()


def test_analyze_degenerate_zero_code():
    report = analyze(spec(Variant.T1, 3, set(), set()))
    assert report.degenerate
    assert report.params.k == 0
    assert report.minimal is None and report.optimality is None
    assert report.prediction_diffs == ()


def test_analyze_degenerate_empty_set():
    report = analyze(spec(Variant.T2, 3, {1, 2, 3}, {1}))
    assert report.degenerate
    assert report.length is None
    assert report.prediction_match is True
    assert report.prediction_diffs == ()


def test_prediction_match_is_none_unless_verify_was_requested():
    for s in (spec(Variant.T2, 3, {1, 2, 3}, {1}), spec(Variant.T2, 3, {1, 2}, {3})):
        assert analyze(s, analyses=["weights"]).prediction_match is None
        assert analyze(s, analyses=["weights", "verify"]).prediction_match is True
    out = io.StringIO()
    argv = "analyze --variant T2 --m 3 --M 1,2,3 --N 1 --analyses weights --format json"
    assert main(argv.split(), out=out) == 0
    assert json.loads(out.getvalue())["reports"][0]["prediction_match"] is None


def test_analyze_eliminates_each_image_once(monkeypatch):
    calls = []

    def counting_basis(words):
        words = tuple(words)
        calls.append(words)
        return gf2_basis(words)

    # a 1-weight T1 image (simplex check included), a two-weight T2 one
    # and a non-minimal T2 one (witness included)
    for s in (
        spec(Variant.T1, 4, {1, 2}, {3}),
        spec(Variant.T2, 5, {1, 2, 3}, {4}),
        spec(Variant.T2, 4, {1, 2, 3}, {4}),
    ):
        ds = build_defining_set(s)
        image = gray_image(enumerate_code(ds))
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(construction, "gf2_basis", counting_basis)
            report = analyze(s)
        assert report.prediction_diffs == ()
        # only the m rows are eliminated, once each: the code's generator
        # rows, and the images of its basis, which are the image's basis
        assert sorted(calls) == sorted([ds.rows, image.rows])


def test_analyze_builds_the_defining_set_once(monkeypatch):
    calls = []
    blocks = construction._blocks
    monkeypatch.setattr(construction, "_blocks", lambda s: calls.append(s) or blocks(s))
    s = spec(Variant.T2, 5, {1, 2, 3}, {4})
    assert analyze(s).prediction_diffs == ()
    assert calls == [s]


def test_tampered_weight_list_fails_the_rank_scan(monkeypatch):
    real = analysis.enumerate_code

    def tampering(ds, **options):
        # non-minimal, k = 4: its one word of weight 32 moved down to 16
        # leaves no triple, so the weights alone call it minimal
        table = real(ds, **options)
        weights = list(ds.lee_weights)
        weights[weights.index(32)] = 16
        object.__setattr__(ds, "lee_weights", tuple(weights))
        return table

    monkeypatch.setattr(analysis, "enumerate_code", tampering)
    # an explicit raise, so it also holds under python -O
    with pytest.raises(AssertionError, match="weight function and the rank scan disagree"):
        analyze(spec(Variant.T2, 4, {1, 2, 3}, {4}))


def test_analyze_transforms_mu_once_and_skips_the_rank_scan_above_rank_8(monkeypatch):
    transformed = []
    real = construction.walsh_hadamard
    monkeypatch.setattr(
        construction, "walsh_hadamard", lambda v: transformed.append(len(v)) or real(v)
    )

    def refuse(table):
        raise AssertionError("rank scan ran")

    monkeypatch.setattr(analysis, "is_minimal_exhaustive", refuse)
    assert analysis.RANK_SCAN_CROSS_CHECK_K == 8
    # k = 9 and 10, two weights without a triple: decided by the weights alone
    for s in (spec(Variant.T2, 9, {1, 2, 3, 4, 5, 6, 7}, {1, 2}), spec(Variant.T2, 10, {1, 2, 3}, {4})):
        transformed.clear()
        report = analyze(s)
        assert report.minimal == "yes-exhaustive" and report.params.k == s.m
        assert transformed == [1 << s.m]
    # k = 8: the minimal verdict is cross-checked by the rank scan
    with pytest.raises(AssertionError, match="rank scan ran"):
        analyze(spec(Variant.T2, 8, {1, 2, 3}, {4}))


@pytest.mark.parametrize(
    "length",
    [
        analysis._COLUMN_SLICE - 1,
        analysis._COLUMN_SLICE,
        analysis._COLUMN_SLICE + 1,
        2 * analysis._COLUMN_SLICE + 3,
    ],
)
def test_column_counts_agree_across_slice_boundaries(length):
    rng = random.Random(length)
    rows = tuple(rng.getrandbits(length) for _ in range(5))
    expected = Counter()
    for j in range(length):
        column = sum((row >> j & 1) << i for i, row in enumerate(rows))
        if column:
            expected[column] += 1
    assert sum(expected.values()) < length  # some zero columns are dropped
    assert analysis._column_counts(rows, length) == expected
    assert analysis._column_counts((), length) == Counter()


def test_analyze_builds_no_codeword_list(monkeypatch):
    def refuse(table):
        raise AssertionError("codewords built")

    monkeypatch.setattr(CodeTable, "codewords", property(refuse))
    for s in (
        spec(Variant.T1, 4, {1, 2}, {3}),
        spec(Variant.T2, 5, {1, 2, 3}, {4}),
        spec(Variant.T2, 4, {1, 2, 3}, {4}),
    ):
        report = analyze(s)
        assert report.code_size == 1 << report.params.k
    assert report.minimal == "no" and report.minimal_witness is not None


def test_analyze_memory_stays_below_half_of_the_word_lists():
    # Full analyze of T2 m=10 (4096 codewords of length 1984) peaked at
    # 2.15 MB under tracemalloc when it built every ring and Gray codeword.
    s = spec(Variant.T2, 10, {1, 2, 3, 4, 5}, {6, 7})
    tracemalloc.start()
    try:
        report = analyze(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.prediction_diffs == () and report.minimal == "yes-exhaustive"
    assert peak < 2.15e6 / 2, peak


def test_certificates_reject_non_linear_tables():
    # one weight, but not closed under addition: no table has these words,
    # nor does a table of their span whose distribution is replaced by theirs
    with pytest.raises(AssertionError, match="2\\^rank"):
        binary_table(3, [0, 3, 5])
    closed = binary_table(3, [0, 3, 5, 6])
    with pytest.raises(AssertionError, match="2\\^rank"):
        dataclasses.replace(closed, weight_distribution={0: 1, 2: 2})
    assert simplex_structure(closed).kind == "replicated-simplex"


def test_certificates_reject_repeated_codewords():
    # 2^rank words, all nonzero ones of weight 1, but 1 listed twice and 3
    # missing: the size law holds, the total weight of the span does not
    with pytest.raises(AssertionError, match="weights must total"):
        binary_table(2, [0, 1, 1, 2])


def test_analyze_respects_requested_analyses():
    report = analyze(spec(Variant.T2, 4, {1, 2}, {3}), analyses=["weights"])
    assert report.params is None and report.minimal is None
    report = analyze(spec(Variant.T2, 4, {1, 2}, {3}), analyses=["minimal"])
    assert report.minimal is not None and report.self_orthogonal is None


def test_analyze_report_serialization_is_stable():
    report = analyze(spec(Variant.T2, 4, {1, 2}, {3}))
    doc = report.to_dict()
    assert doc["variant"] == "T2"
    assert doc["params"] == [48, 4, 24]
    assert doc["lee_weight_distribution"] == {"0": 1, "24": 12, "32": 3}
    import json

    assert json.dumps(doc, sort_keys=True) == json.dumps(report.to_dict(), sort_keys=True)


def test_report_serialization_converts_each_value_type():
    doc = analyze(spec(Variant.T1, 6, {2, 3}, {4, 5})).to_dict()
    assert doc["simplex"] == {"kind": "replicated-simplex", "replication": 8, "zero_columns": 8}
    assert doc["analyses"] == list(ALL_ANALYSES) and doc["M"] == [2, 3]
    doc = analyze(spec(Variant.T2, 3, {1, 2}, {3})).to_dict()
    assert doc["minimal"] == "no" and isinstance(doc["minimal_witness"], list)
    assert len(doc["minimal_witness"]) == 2 and doc["prediction_diffs"] == []
    assert set(doc) == {f.name for f in dataclasses.fields(analysis.AnalysisReport)}


# --- each closed-form fact compared once -------------------------------------------


def tamper_prediction(monkeypatch, **changes):
    """Patch the closed forms: changes maps a field to a function of its true value."""
    real = analysis.predicted_distribution

    def tampered(*args):
        pred = real(*args)
        return dataclasses.replace(
            pred, **{name: change(getattr(pred, name)) for name, change in changes.items()}
        )

    monkeypatch.setattr(analysis, "predicted_distribution", tampered)


def test_each_diff_line_is_reported_once(monkeypatch):
    tamper_prediction(
        monkeypatch,
        length=lambda n: n + 1,
        code_size=lambda size: 2 * size,
        rows=lambda rows: {**rows, max(rows): rows[max(rows)] + 1},
    )
    s = spec(Variant.T2, 4, {1, 2}, {3})
    expected = {
        "length 24 != predicted 25",
        "code size 16 != predicted 32",
        "weight 32: 48 messages, predicted 49",
    }
    report = analyze(s)
    assert len(set(report.prediction_diffs)) == len(report.prediction_diffs)
    assert set(report.prediction_diffs) == expected
    assert report.prediction_match is False
    match = verify_against_prediction(s)
    assert not match.matched and not match.degenerate
    assert len(set(match.diffs)) == len(match.diffs)
    assert set(match.diffs) == expected
    out = io.StringIO()
    assert main(["verify", "--m", "4", "--variants", "T2", "--sample", "3"], out=out) == 1
    blocks = out.getvalue().split("MISMATCH ")[1:]
    assert len(blocks) == 3
    for block in blocks:
        lines = [line for line in block.splitlines() if line.startswith("  - ")]
        assert lines and len(set(lines)) == len(lines), block


def test_prediction_of_an_empty_set_disagrees_in_one_line(monkeypatch):
    tamper_prediction(monkeypatch, length=lambda n: 0)
    s = spec(Variant.T2, 4, {1, 2}, {3})
    line = "prediction is empty but construction has length 24"
    report = analyze(s)
    assert report.prediction_diffs == (line,) and report.prediction_match is False
    match = verify_against_prediction(s)
    assert match.diffs == (line,) and not match.matched and not match.degenerate


def test_empty_construction_disagrees_in_one_line(monkeypatch):
    tamper_prediction(monkeypatch, length=lambda n: n + 7)
    s = spec(Variant.T2, 3, {1, 2, 3}, {1})
    line = "construction is empty but prediction has length 7"
    report = analyze(s)
    assert report.prediction_diffs == (line,) and report.prediction_match is False
    match = verify_against_prediction(s)
    assert match.diffs == (line,) and not match.matched and match.degenerate
    assert match.actual_profile is None
