"""Result checks: every code's output against the closed forms.

Each check returns a list of problems; an empty list means the result is
correct.  ``predicted_distribution`` is bound here at import, before any
tracing wraps the library, so checking never shows up in a traced layer.
"""

from __future__ import annotations

import json
from collections import Counter

from icodes.analysis import predicted_distribution

from specgen import SWEEP_DEGENERATE, SWEEP_PAIRS, expected_empty


def _predict(spec):
    return predicted_distribution(spec.variant, spec.m, spec.M, spec.N)


def lee_distribution(pred) -> dict[int, int]:
    """Distinct codewords per Lee weight: message rows over the kernel."""
    return {w: freq // pred.kernel_size for w, freq in pred.rows.items()}


def check_sweep(spec, match) -> list[str]:
    """One ``verify_against_prediction`` result."""
    pred = _predict(spec)
    problems = []
    if not match.matched or match.diffs:
        problems.append(f"not matched: {list(match.diffs)}")
    empty = expected_empty(spec)
    if match.degenerate != empty or pred.empty != empty:
        problems.append(f"degenerate {match.degenerate}, closed form says {empty}")
    if not empty and match.actual_profile != pred.rows:
        problems.append(f"profile {match.actual_profile} != closed form {pred.rows}")
    return problems


def check_sweep_totals(checked: int, degenerate: int) -> list[str]:
    """Pair and degenerate counts of one whole sweep pass."""
    problems = []
    if checked != SWEEP_PAIRS:
        problems.append(f"{checked} pairs checked, expected {SWEEP_PAIRS}")
    if degenerate != SWEEP_DEGENERATE:
        problems.append(f"{degenerate} degenerate pairs, expected {SWEEP_DEGENERATE}")
    return problems


def check_certify(spec, report) -> list[str]:
    """One full ``analyze`` report."""
    pred = _predict(spec)
    problems = []
    if report.prediction_diffs:
        problems.append(f"prediction diffs: {list(report.prediction_diffs)}")
    if report.prediction_match is not True:
        problems.append(f"prediction_match is {report.prediction_match}")
    expected = [pred.binary_n, pred.binary_k, pred.binary_d]
    got = None if report.params is None else report.params.as_list()
    if got != expected:
        problems.append(f"[n, k, d] {got} != closed form {expected}")
    if report.code_size != pred.code_size:
        problems.append(f"code size {report.code_size} != closed form {pred.code_size}")
    if report.lee_weight_distribution != lee_distribution(pred):
        problems.append(
            f"Lee distribution {report.lee_weight_distribution} "
            f"!= closed form {lee_distribution(pred)}"
        )
    if report.minimal != "yes-exhaustive":
        problems.append(f"minimal is {report.minimal!r}, expected 'yes-exhaustive'")
    return problems


def check_dump(spec, exit_code: int, text: str) -> list[str]:
    """One ``construct --format json`` run with both codeword dumps."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        doc = json.loads(text)
        ring = doc["ring_codewords"]
        gray = doc["gray_codewords"]
        lee = {int(w): count for w, count in doc["lee_weight_distribution"].items()}
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"unreadable JSON output: {exc!r}"]
    pred = _predict(spec)
    n, size = pred.length, pred.code_size
    problems = []
    if doc.get("length") != n or doc.get("code_size") != size:
        problems.append(
            f"length/code size {doc.get('length')}/{doc.get('code_size')} "
            f"!= closed form {n}/{size}"
        )
    if doc.get("gray_params") != [pred.binary_n, pred.binary_k, pred.binary_d]:
        problems.append(f"gray params {doc.get('gray_params')} != closed form")
    if lee != lee_distribution(pred):
        problems.append(f"Lee distribution {lee} != closed form {lee_distribution(pred)}")
    if len(ring) != size or len(gray) != size or len(set(gray)) != size:
        problems.append(
            f"{len(ring)} ring / {len(gray)} gray ({len(set(gray))} distinct) "
            f"codewords, expected {size}"
        )
    if any(len(word) != n for word in ring):
        problems.append(f"a ring codeword is not of length {n}")
    if any(len(word) != 2 * n for word in gray):
        problems.append(f"a Gray codeword is not of length {2 * n}")
    gray_weights = Counter(word.count("1") for word in gray)
    if gray_weights != Counter(lee):
        problems.append(f"Gray weight histogram {dict(gray_weights)} != Lee distribution")
    ring_weights = Counter(
        word.count("a") + word.count("c") + 2 * word.count("b") for word in ring
    )
    if ring_weights != Counter(lee):
        problems.append(f"ring Lee weight histogram {dict(ring_weights)} != Lee distribution")
    return problems
