"""Certification of code properties against closed-form predictions.

Provides the predicted Lee weight distributions for the five defining-set
variants, the individual certificates (exact minimality on the points of
the code, the minimum/maximum weight-ratio sufficient condition for
minimality, exact self-orthogonality on a spanning basis, the
divisible-by-4 sufficient condition, Griesmer sums with an optimality
verdict, the closed-form optimality predictor for T2 parameters, and the
replicated-simplex structure check for 1-weight codes), and ``analyze``,
the one per-code entry point that builds, enumerates, certifies and compares
each closed-form fact once.  ``analyze`` reads every Lee fact off one
table, the enumerated binary code c, whose Gray image (c, c) has c's
points, each taken twice, and runs the certificates on it.  They read no
codeword list: they work on c's :attr:`~icodes.construction.CodeTable.rows`,
the canonical reduced echelon basis every table is reduced to once, on
construction (for an enumerated code, from its m generator rows).
Minimality comes first from the weight function W(alpha) = n -
mu_hat(alpha) that the defining set holds: a code whose weights have no
triple a + b = c (:func:`has_weight_triple`) is minimal without touching
a codeword.  The rank scan on the distinct nonzero columns of the basis,
the points of the code (:func:`is_minimal_exhaustive`, the
cutting-blocking-set criterion), is the independent slow path: in
``analyze`` it decides every code with a weight triple and supplies the
witness of every non-minimal one, the only pair ever built as words, and
cross-checks a triple-free code when c has rank at most
RANK_SCAN_CROSS_CHECK_K.  The simplex check counts the same columns: both
read the table's one census of them, which ``analyze`` checks against mu.
Self-orthogonality is structural, (c, c) . (c', c') = 2 (c . c') = 0:
:func:`is_self_orthogonal` is the tests' reference.
``analyze`` judges each certificate against its closed-form expectation
where it computes it.  ``verify_against_prediction`` is ``analyze``'s weight-profile
comparison: ``analyze`` restricted to the ``verify`` analysis, projected
to a ``PredictionMatch``.
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable

from .construction import (
    CodeParams,
    CodeTable,
    DefiningSetSpec,
    Variant,
    _check,
    _combine,
    _lee_facts,
    build_defining_set,
    enumerate_code,
)
from .errors import EmptyDefiningSetError
from .geometry import bit_string

#: Everything cmd_analyze knows how to run.
ALL_ANALYSES = (
    "weights",
    "gray",
    "minimal",
    "self-orthogonal",
    "griesmer",
    "simplex",
    "verify",
)

@dataclass(frozen=True)
class PredictedDistribution:
    """Closed-form prediction for one variant and parameter choice.

    rows maps Lee weight to message frequency (frequencies sum to 4^m);
    rows with frequency zero are dropped and equal weights merged, which
    is what degenerate parameter choices collapse to.  empty means the
    defining set itself has no elements, so no code exists at all.
    """

    variant: Variant
    m: int
    size_m: int
    size_n: int
    length: int
    rows: dict[int, int]
    code_size: int
    kernel_size: int
    num_weights: int
    binary_n: int
    binary_k: int
    binary_d: int | None

    @property
    def empty(self) -> bool:
        return self.length == 0

    @property
    def zero_code(self) -> bool:
        return self.num_weights == 0


def predicted_distribution(
    variant: Variant, m: int, M: Iterable[int], N: Iterable[int]
) -> PredictedDistribution:
    """Tabulated Lee weight distribution and binary parameters.

    Every frequency is an exact integer expression in m, |M|, |N|; the
    binary [n, k, d] follows from the merged rows (k from the kernel row,
    d as the least nonzero predicted weight).
    """
    variant = Variant(variant)
    if variant is Variant.GENERIC:
        raise ValueError("no closed-form prediction for GENERIC defining sets")
    checked = DefiningSetSpec(variant=variant, m=m, M=frozenset(M), N=frozenset(N))
    a, b = len(checked.M), len(checked.N)
    full = 1 << m
    messages = 1 << (2 * m)

    if variant is Variant.T1:
        length = 1 << (a + b)
        raw = [
            (1 << (a + b), (1 << (2 * m - a)) * ((1 << a) - 1)),
            (0, 1 << (2 * m - a)),
        ]
    elif variant is Variant.T2:
        length = (full - (1 << a)) << b
        raw = [
            (1 << (m + b), full * ((1 << (m - a)) - 1)),
            (length, (1 << (2 * m - a)) * ((1 << a) - 1)),
            (0, full),
        ]
    elif variant is Variant.T3:
        length = (1 << a) * (full - (1 << b))
        raw = [
            (length, (1 << (2 * m - a)) * ((1 << a) - 1)),
            (0, 1 << (2 * m - a)),
        ]
    elif variant is Variant.T4:
        length = (full - (1 << a)) * (full - (1 << b))
        raw = [
            (full * (full - (1 << b)), full * ((1 << (m - a)) - 1)),
            (length, (1 << (2 * m - a)) * ((1 << a) - 1)),
            (0, full),
        ]
    elif variant is Variant.T5:
        length = (full * full) - (1 << (a + b))
        raw = [
            (full * full, full * ((1 << (m - a)) - 1)),
            (length, (1 << (2 * m - a)) * ((1 << a) - 1)),
            (0, full),
        ]
    else:  # pragma: no cover - exhaustive over the named variants
        raise AssertionError(f"unhandled variant {variant}")

    merged: Counter[int] = Counter()
    for weight, frequency in raw:
        if frequency:
            merged[weight] += frequency
    rows = {w: merged[w] for w in sorted(merged)}
    if sum(rows.values()) != messages:
        raise AssertionError("table frequencies must sum to 4^m")
    code_size, remainder = divmod(messages, rows[0])
    if remainder:
        raise AssertionError("the kernel row must divide 4^m")
    nonzero = [w for w in rows if w]
    return PredictedDistribution(
        variant=variant,
        m=m,
        size_m=a,
        size_n=b,
        length=length,
        rows=rows,
        code_size=code_size,
        kernel_size=rows[0],
        num_weights=len(nonzero),
        binary_n=2 * length,
        binary_k=code_size.bit_length() - 1,
        binary_d=min(nonzero) if nonzero else None,
    )


@dataclass(frozen=True)
class PredictionMatch:
    """Outcome of comparing a brute-force profile with its prediction."""

    variant: Variant
    m: int
    M: tuple[int, ...]
    N: tuple[int, ...]
    matched: bool
    degenerate: bool
    diffs: tuple[str, ...]
    actual_profile: dict[int, int] | None


def verify_against_prediction(
    spec: DefiningSetSpec, *, work_budget: int | None = None
) -> PredictionMatch:
    """The weight-profile comparison of ``analyze``, and nothing else.

    degenerate means an empty defining set; it matches when the
    prediction is empty too.
    """
    if spec.variant is Variant.GENERIC:
        raise ValueError("GENERIC defining sets have no closed-form prediction")
    report = analyze(spec, analyses=("verify",), work_budget=work_budget)
    return PredictionMatch(
        variant=report.variant,
        m=report.m,
        M=report.M,
        N=report.N,
        matched=not report.prediction_diffs,
        degenerate=report.length is None,
        diffs=report.prediction_diffs,
        actual_profile=report.message_profile,
    )


# ---------------------------------------------------------------------------
# individual certificates on binary code tables


@dataclass(frozen=True)
class OrthogonalityFinding:
    self_orthogonal: bool
    witness: tuple[int, int] | None
    method: str  # always "spanning-basis"


def is_self_orthogonal(table: CodeTable) -> OrthogonalityFinding:
    """Check that every pair of codewords has even overlap.

    Checks every pair of a spanning basis, each basis word against itself
    included; by bilinearity of the inner product that decides all pairs
    of codewords exactly.
    """
    rows = table.rows
    for i, u in enumerate(rows):
        for v in rows[i:]:
            if (u & v).bit_count() & 1:
                return OrthogonalityFinding(False, (u, v), "spanning-basis")
    return OrthogonalityFinding(True, None, "spanning-basis")


def weights_divisible_by_4(table: CodeTable) -> bool:
    """True iff every nonzero weight is a multiple of 4 (forces
    self-orthogonality)."""
    return all(w % 4 == 0 for w in table.weight_distribution if w)


@dataclass(frozen=True)
class MinimalityFinding:
    minimal: bool
    witness: tuple[int, int] | None  # (covered, covering) codeword pair


#: Fixes the order in which the minimality test scans the points of a code.
_POINT_ORDER_SEED = 0x1C0DE5
#: Largest rank k of c, which its image shares, at which the rank scan cross-checks
#: a code the weights alone call minimal (it decides every code with a weight triple).
RANK_SCAN_CROSS_CHECK_K = 8


def has_weight_triple(weights: Iterable[int]) -> bool:
    """Whether some nonzero weights a, b and a + b all occur in the code.

    weights are the code's weights; repeats are ignored, so the Lee
    weights W of every a-part and the table's weight distribution (the
    weights of c, each W halved) give the same answer: a triple a + b = c
    survives halving.  A nonzero codeword u_x lies inside the support of
    another, u_x ^ u_y with u_y nonzero, iff u_x and u_y have disjoint
    supports, iff W(x) + W(y) = W(x ^ y) (Cohen, Mesnager and Patey,
    IMACC 2013).  So a code without such a triple of weights is minimal;
    one with a triple may be either, and :func:`is_minimal_exhaustive`
    decides it.  The paper's few-weight minimal codes have no triple.
    """
    levels = set(weights) - {0}
    return any(a + b in levels for a in levels for b in levels)


def is_minimal_exhaustive(table: CodeTable) -> MinimalityFinding:
    """No nonzero codeword's support may contain another's.

    The slow path beside :func:`has_weight_triple`, sharing nothing with
    it: ``analyze`` runs it on every code whose weights have a triple,
    which it decides and whose witness it supplies, and cross-checks a
    triple-free code with it when c has rank at most
    RANK_SCAN_CROSS_CHECK_K.  Decided on the points of the code,
    the distinct nonzero columns S of its rows (cutting blocking sets:
    Alfarano, Borello and Neri, Adv. Math. Commun. 16 (2022); Tang, Qiu,
    Liao and Zhou, IEEE Trans. Inf. Theory 67(6) (2021)).  The table's
    rows are in reduced echelon form, so x in F_2^k selects the x-th
    smallest codeword u_x, whose support is the coordinates whose column
    p has odd x . p.  u_x is covered iff some nonzero codeword avoids its
    support, iff the points off the hyperplane x^perp fail to span F_2^k:
    one early-exit rank test per x, over S in a fixed shuffled order.
    The witness is the smallest covered word and the smallest other word
    covering it, in increasing order (the table order), and only those
    two words are built.
    """
    rows = table.rows
    k = len(rows)
    points = sorted(table.points)
    random.Random(_POINT_ORDER_SEED).shuffle(points)
    for x in range(1, 1 << k):
        if not _spans_off_hyperplane(points, x, k):
            off = [p for p in points if (p & x).bit_count() & 1]
            z = next(
                z for z in range(1, 1 << k)
                if z != x and all((p & z).bit_count() & 1 for p in off)
            )
            return MinimalityFinding(False, (_combine(rows, x), _combine(rows, z)))
    return MinimalityFinding(True, None)


def _spans_off_hyperplane(points: list[int], x: int, k: int) -> bool:
    """Whether the points p with odd x . p span F_2^k: pivots indexed by
    leading bit, stopping as soon as k are found."""
    pivots = [0] * k
    rank = 0
    for p in points:
        if (p & x).bit_count() & 1:
            while p:
                lead = p.bit_length() - 1
                if pivots[lead]:
                    p ^= pivots[lead]
                else:
                    pivots[lead] = p
                    rank += 1
                    if rank == k:
                        return True
                    break
    return False


@dataclass(frozen=True)
class AbFinding:
    holds: bool
    ratio: Fraction
    min_weight: int
    max_weight: int


def ab_condition(table: CodeTable) -> AbFinding:
    """Minimum/maximum nonzero weight ratio test: a ratio above 1/2
    suffices for minimality over F_2 (sufficient, not necessary)."""
    low = table.min_nonzero_weight()
    if low is None:
        raise ValueError("the zero code has no nonzero weights")
    high = table.max_weight()
    ratio = Fraction(low, high)
    return AbFinding(ratio > Fraction(1, 2), ratio, low, high)


class GriesmerStatus(str, Enum):
    GRIESMER_CODE = "griesmer-code"
    CERTIFIED_OPTIMAL = "certified-optimal"
    INCONCLUSIVE = "inconclusive"
    INFEASIBLE = "infeasible-parameters"


@dataclass(frozen=True)
class GriesmerFinding:
    n: int
    k: int
    d: int
    sum_at_d: int
    sum_at_d_plus_1: int
    status: GriesmerStatus

    @property
    def certified_optimal(self) -> bool:
        return self.status in (
            GriesmerStatus.GRIESMER_CODE,
            GriesmerStatus.CERTIFIED_OPTIMAL,
        )


def griesmer_sum(k: int, d: int) -> int:
    """Sum over i < k of ceil(d / 2^i)."""
    return sum((d + (1 << i) - 1) >> i for i in range(k))


def griesmer_check(n: int, k: int, d: int) -> GriesmerFinding:
    """Griesmer sums at d and d+1 with the optimality verdict.

    Meeting the bound with equality makes a Griesmer code; if d is
    admissible but d+1 is not, the code is certified distance optimal;
    if d+1 is also admissible the bound alone cannot decide.
    """
    if k < 1 or d < 1 or n < 1:
        raise ValueError(f"need n, k, d >= 1, got ({n}, {k}, {d})")
    at_d = griesmer_sum(k, d)
    at_d1 = griesmer_sum(k, d + 1)
    if at_d > n:
        status = GriesmerStatus.INFEASIBLE
    elif at_d == n:
        status = GriesmerStatus.GRIESMER_CODE
    elif at_d1 > n:
        status = GriesmerStatus.CERTIFIED_OPTIMAL
    else:
        status = GriesmerStatus.INCONCLUSIVE
    return GriesmerFinding(n, k, d, at_d, at_d1, status)


@dataclass(frozen=True)
class ThetaFinding:
    theta1: int | None
    theta2: int | None
    predicts_optimal: bool


def theta_conditions(m: int, size_m: int, size_n: int) -> ThetaFinding:
    """Closed-form distance-optimality predictor for T2 parameters.

    For 1 <= |M|+|N| <= m-1 the Griesmer slack is theta1 = 2^(|N|+1) - 1
    and the image is optimal iff theta1 < |M|+|N|+1; for m <= |M|+|N| <=
    2m-1 the slack is theta2 = 2^(|M|+|N|+1-m) * (2^(m-|M|) - 1) and the
    image is optimal iff theta2 < m.  Requires 1 <= |M| <= m-1: outside
    that band the T2 code is empty or collapses to one weight and the
    predicted [n, k, d] no longer applies.
    """
    if not 0 <= size_n <= m:
        raise ValueError(f"|N| = {size_n} outside 0..{m}")
    if not 1 <= size_m <= m - 1:
        raise ValueError(
            f"predictor needs 1 <= |M| <= m-1, got |M| = {size_m}, m = {m}"
        )
    total = size_m + size_n
    if total <= m - 1:
        theta1 = (1 << (size_n + 1)) - 1
        return ThetaFinding(theta1, None, 0 < theta1 < total + 1)
    theta2 = (1 << (total + 1 - m)) * ((1 << (m - size_m)) - 1)
    return ThetaFinding(None, theta2, 0 < theta2 < m)


@dataclass(frozen=True)
class SimplexFinding:
    kind: str  # "replicated-simplex", "structure-check-failed", "not-one-weight"
    replication: int | None
    zero_columns: int | None


def simplex_structure(table: CodeTable) -> SimplexFinding:
    """Decompose a 1-weight binary code as a replicated simplex code.

    Drops identically-zero coordinates, takes the table's rows as the
    generator matrix, and demands that the remaining columns form r
    copies of every nonzero vector of F_2^k, with the common weight equal
    to r * 2^(k-1).
    """
    nonzero_weights = [w for w in table.weight_distribution if w]
    if len(nonzero_weights) != 1:
        raise ValueError("not a 1-weight code")
    common = nonzero_weights[0]
    k = len(table.rows)
    zero_columns = table.length - sum(table.points.values())
    replication, remainder = divmod(table.length - zero_columns, (1 << k) - 1)
    ok = (
        remainder == 0
        and len(table.points) == (1 << k) - 1
        and all(count == replication for count in table.points.values())
        and common == replication << (k - 1)
    )
    if not ok:
        return SimplexFinding("structure-check-failed", None, zero_columns)
    return SimplexFinding("replicated-simplex", replication, zero_columns)


# ---------------------------------------------------------------------------
# full analysis driver


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the analyzer found for one defining-set spec.

    prediction_diffs lists every requested certificate whose outcome
    contradicts its closed-form expectation; an empty tuple means all
    expectations (where any exist) were met.
    """

    variant: Variant
    m: int
    M: tuple[int, ...]
    N: tuple[int, ...]
    analyses: tuple[str, ...]
    degenerate: bool = False
    degenerate_reason: str | None = None
    length: int | None = None
    code_size: int | None = None
    kernel_size: int | None = None
    lee_weight_distribution: dict[int, int] | None = None
    message_profile: dict[int, int] | None = None
    lee_enumerator: str | None = None
    params: CodeParams | None = None
    num_weights: int | None = None
    minimal: str | None = None
    minimal_witness: tuple[str, str] | None = None
    ab_ratio: str | None = None
    ab_holds: bool | None = None
    self_orthogonal: str | None = None
    self_orthogonal_witness: tuple[str, str] | None = None
    weights_div4: bool | None = None
    griesmer_sum_at_d: int | None = None
    griesmer_sum_at_d_plus_1: int | None = None
    optimality: str | None = None
    theta1: int | None = None
    theta2: int | None = None
    theta_predicts_optimal: bool | None = None
    simplex: SimplexFinding | None = None
    prediction_match: bool | None = None
    prediction_diffs: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {f.name: _jsonable(getattr(self, f.name)) for f in dataclasses.fields(self)}


def _jsonable(value):
    """One JSON conversion rule per report value type."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, dict):
        return _str_keys(value)
    if isinstance(value, CodeParams):
        return value.as_list()
    if isinstance(value, SimplexFinding):
        return dataclasses.asdict(value)
    return value


def _str_keys(mapping: dict[int, int]) -> dict[str, int]:
    return {str(k): mapping[k] for k in sorted(mapping)}


def _normalize_analyses(analyses: Iterable[str] | None) -> tuple[str, ...]:
    if analyses is None:
        return ALL_ANALYSES
    chosen = []
    for name in analyses:
        if name not in ALL_ANALYSES:
            raise ValueError(f"unknown analysis {name!r}; valid: {ALL_ANALYSES}")
        if name not in chosen:
            chosen.append(name)
    if not chosen:
        raise ValueError("no analyses requested")
    # keep canonical order and pull in prerequisites of the certificates
    needs_gray = {"gray", "minimal", "self-orthogonal", "griesmer", "simplex"}
    if needs_gray & set(chosen):
        chosen.append("gray")
    chosen.append("weights")
    return tuple(name for name in ALL_ANALYSES if name in chosen)


def analyze(
    spec: DefiningSetSpec,
    *,
    analyses: Iterable[str] | None = None,
    work_budget: int | None = None,
) -> AnalysisReport:
    """Construct, enumerate, and certify the code of one spec.

    Degenerate parameter choices (an empty defining set, or a zero code)
    produce a structured degenerate report instead of raising, so sweeps
    can walk every parameter combination.  Each certificate is judged
    where it is computed, in the order the diffs list them.  Only the
    paper's sufficient conditions are gated: where the tables make no
    claim (e.g. optimality of T4/T5 images) the finding is reported
    ungated.
    """
    requested = _normalize_analyses(analyses)
    pred = (
        None
        if spec.variant is Variant.GENERIC
        else predicted_distribution(spec.variant, spec.m, spec.M, spec.N)
    )
    ctx = dict(
        variant=spec.variant,
        m=spec.m,
        M=tuple(sorted(spec.M)),
        N=tuple(sorted(spec.N)),
        analyses=requested,
    )

    try:
        ds = build_defining_set(spec)
    except EmptyDefiningSetError as exc:
        prediction_match, diffs = _expectation_diffs(pred, {}, requested)
        return AnalysisReport(
            **ctx,
            degenerate=True,
            degenerate_reason=f"empty defining set: {exc}",
            prediction_match=prediction_match,
            prediction_diffs=tuple(diffs),
        )

    # the table of c carries every Lee fact, and the certificates read its rows
    table = enumerate_code(ds, work_budget=work_budget)
    fields: dict = dict(length=len(ds), **_lee_facts(table))
    params = fields.pop("params")
    prediction_match, diffs = _expectation_diffs(pred, fields, requested)
    # The certificates are gated only against a nonempty prediction.
    claims = None if pred is None or pred.empty else pred

    zero_code = table.num_weights == 0
    if zero_code:
        fields["degenerate"] = True
        fields["degenerate_reason"] = "zero code (k = 0, distance undefined)"

    if "gray" in requested:
        fields["params"] = params
        if claims:
            expected = [claims.binary_n, claims.binary_k, claims.binary_d]
            if params.as_list() != expected:
                diffs.append(f"binary params {params} != predicted {expected}")

    if "self-orthogonal" in requested:
        # every image is (c, c), and (c, c) . (c', c') = 2 (c . c') = 0 over F_2
        fields["self_orthogonal"] = "yes-direct"
        fields["weights_div4"] = all(w % 4 == 0 for w in fields["lee_weight_distribution"])

    # c's basis is B G, B one-to-one on the t1 words' span: point B x occurs mu(x) times
    triple = "minimal" in requested and has_weight_triple(table.weight_distribution)
    scan = "minimal" in requested and (triple or len(table.rows) <= RANK_SCAN_CROSS_CHECK_K)
    if not zero_code and (scan or "simplex" in requested and table.num_weights == 1):
        counts = Counter(table.points.values())
        _check(counts == Counter(filter(None, ds.mu[1:])), "c's points disagree with mu")

    if not zero_code and "minimal" in requested:
        ab = ab_condition(table)
        fields["ab_ratio"] = str(ab.ratio)
        fields["ab_holds"] = ab.holds
        finding = is_minimal_exhaustive(table) if scan else MinimalityFinding(True, None)
        _check(
            triple or finding.minimal,
            "the weight function and the rank scan disagree on minimality",
        )
        fields["minimal"] = "yes-exhaustive" if finding.minimal else "no"
        if finding.witness is not None:
            # the image of c's word u is u | u << n, whose text is u's twice
            fields["minimal_witness"] = tuple(bit_string(w, len(ds)) * 2 for w in finding.witness)
        if ab.holds and not finding.minimal:
            raise AssertionError(
                "weight-ratio condition must force exhaustive minimality"
            )
        if claims and not finding.minimal and (
            claims.num_weights == 1
            or (spec.variant in (Variant.T2, Variant.T4) and claims.size_m <= spec.m - 2)
            or (spec.variant is Variant.T5 and claims.size_m + claims.size_n <= 2 * spec.m - 2)
        ):
            diffs.append("expected a minimal code for these parameters")

    if not zero_code and "griesmer" in requested:
        finding = griesmer_check(params.n, params.k, params.d)
        fields["griesmer_sum_at_d"] = finding.sum_at_d
        fields["griesmer_sum_at_d_plus_1"] = finding.sum_at_d_plus_1
        fields["optimality"] = finding.status.value
        if (
            spec.variant is Variant.T2
            and pred is not None
            and 1 <= pred.size_m <= spec.m - 1
        ):
            theta = theta_conditions(spec.m, pred.size_m, pred.size_n)
            fields["theta1"] = theta.theta1
            fields["theta2"] = theta.theta2
            fields["theta_predicts_optimal"] = theta.predicts_optimal
            if theta.predicts_optimal != finding.certified_optimal:
                diffs.append(
                    "closed-form optimality predictor says "
                    f"{theta.predicts_optimal}, Griesmer status is "
                    f"{finding.status.value}"
                )

    if not zero_code and "simplex" in requested:
        if table.num_weights == 1:
            finding = simplex_structure(table)
            # the image's columns are c's, each taken twice
            r = finding.replication
            fields["simplex"] = SimplexFinding(finding.kind, r and 2 * r, 2 * finding.zero_columns)
            if finding.kind != "replicated-simplex":
                diffs.append("1-weight image failed the replicated-simplex check")
        else:
            fields["simplex"] = SimplexFinding("not-one-weight", None, None)

    return AnalysisReport(
        **ctx, **fields, prediction_match=prediction_match, prediction_diffs=tuple(diffs)
    )


def _expectation_diffs(
    pred: PredictedDistribution | None,
    fields: dict,
    requested: tuple[str, ...],
) -> tuple[bool | None, list[str]]:
    """Compare the enumerated code with its closed-form profile.

    Returns (prediction_match, diffs), each fact compared once.  An empty
    defining set or an empty prediction is one line against the other
    side, and then nothing else is compared.  Otherwise length, code size
    and the weight count are compared (``weights`` always runs), then the
    kernel and the message rows under ``verify``.  prediction_match is
    whether no such line was found, and None unless ``verify`` was
    requested against a prediction.  The certificates are judged where
    ``analyze`` computes them.
    """
    if pred is None:
        return None, []
    length = fields.get("length")
    diffs: list[str] = []
    if length is None:
        if not pred.empty:
            diffs.append(f"construction is empty but prediction has length {pred.length}")
    elif pred.empty:
        diffs.append(f"prediction is empty but construction has length {length}")
    else:
        if length != pred.length:
            diffs.append(f"length {length} != predicted {pred.length}")
        if fields["code_size"] != pred.code_size:
            diffs.append(f"code size {fields['code_size']} != predicted {pred.code_size}")
        if fields["num_weights"] != pred.num_weights:
            diffs.append(f"{fields['num_weights']} nonzero weights, predicted {pred.num_weights}")
        if "verify" in requested:
            if fields["kernel_size"] != pred.kernel_size:
                diffs.append(f"kernel {fields['kernel_size']} != predicted {pred.kernel_size}")
            profile = fields["message_profile"]
            for w in sorted(set(profile) | set(pred.rows)):
                got, want = profile.get(w, 0), pred.rows.get(w, 0)
                if got != want:
                    diffs.append(f"weight {w}: {got} messages, predicted {want}")
    return (not diffs if "verify" in requested else None), diffs
