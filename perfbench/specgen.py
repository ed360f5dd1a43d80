"""Seeded inputs: the DefiningSetSpecs each benchmark workload runs.

The cost of a code depends only on its variant, m, |M| and |N|.  The seed
therefore picks which index sets of the fixed sizes are drawn, and the
order the codes run in, but never how much work a run does.
"""

from __future__ import annotations

import random

from icodes import DefiningSetSpec, Variant

WORKLOADS = ("sweep", "certify", "dump")

#: sweep: every (M, N) pair for T1..T5 at m = 1..4, as in ``icodes verify --m 1..4``.
SWEEP_VARIANTS = ("T1", "T2", "T3", "T4", "T5")
SWEEP_DIMS = (1, 2, 3, 4)
SWEEP_PAIRS = len(SWEEP_VARIANTS) * sum(4**m for m in SWEEP_DIMS)
#: Per m, T2 (|M| = m) and T3 (|N| = m) give 2^m empty sets each, T4 gives
#: 2^(m+1) - 1 and T5 (|M| = |N| = m) gives one: 4 * 2^m in all.
SWEEP_DEGENERATE = sum(4 << m for m in SWEEP_DIMS)

#: (variant, m, |M|, |N|).  certify: single large codes, up to 4096 codewords;
#: the T1 rung is one-weight, so it runs the replicated-simplex check.
CERTIFY_LADDER = (
    ("T2", 9, 7, 2),
    ("T2", 10, 5, 2),
    ("T2", 12, 6, 1),
    ("T1", 10, 5, 5),
)
#: dump: the README's [3072, 9, 1536] reference and a wide T5 set (n = 16352).
DUMP_CODES = (
    ("T2", 9, 7, 2),
    ("T5", 7, 3, 2),
)


def _subset(mask: int) -> frozenset[int]:
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def sweep_specs(seed: int) -> list[DefiningSetSpec]:
    specs = [
        DefiningSetSpec(
            variant=Variant(variant), m=m, M=_subset(mask_m), N=_subset(mask_n)
        )
        for variant in SWEEP_VARIANTS
        for m in SWEEP_DIMS
        for mask_m in range(1 << m)
        for mask_n in range(1 << m)
    ]
    random.Random(seed).shuffle(specs)
    return specs


def _ladder(rungs, seed: int) -> list[DefiningSetSpec]:
    rng = random.Random(seed)
    specs = [
        DefiningSetSpec(
            variant=Variant(variant),
            m=m,
            M=frozenset(rng.sample(range(1, m + 1), size_m)),
            N=frozenset(rng.sample(range(1, m + 1), size_n)),
        )
        for variant, m, size_m, size_n in rungs
    ]
    rng.shuffle(specs)
    return specs


def generate(workload: str, seed: int) -> list[DefiningSetSpec]:
    """The specs of one workload for one seed, in the order they run."""
    if workload == "sweep":
        return sweep_specs(seed)
    if workload == "certify":
        return _ladder(CERTIFY_LADDER, seed)
    if workload == "dump":
        return _ladder(DUMP_CODES, seed)
    raise ValueError(f"unknown workload {workload!r}; valid: {WORKLOADS}")


def expected_empty(spec: DefiningSetSpec) -> bool:
    """Closed form: the defining set of spec has no elements."""
    full_m, full_n = len(spec.M) == spec.m, len(spec.N) == spec.m
    return {
        Variant.T1: False,
        Variant.T2: full_m,
        Variant.T3: full_n,
        Variant.T4: full_m or full_n,
        Variant.T5: full_m and full_n,
    }[spec.variant]
