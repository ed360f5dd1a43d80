"""Command-line front end.

Subcommands: ``construct`` builds one code and prints its enumerator and
Gray parameters, ``analyze`` adds the full certification report (optionally
batched from a config file), ``verify`` sweeps parameter ranges comparing
brute force against the closed forms, and ``tables`` dumps the ring's
addition and multiplication tables.  ``construct`` also lists the ring
and Gray codewords on request; both formats stream them through one
renderer, :class:`_Dump`, one codeword at a time.

Exit codes: 0 success / all match, 1 a finding contradicts its closed-form
expectation, 2 usage error or (construct only) an empty defining set,
3 work budget exceeded, 141 (128 + SIGPIPE) the reader closed stdout
before the output ended.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import random
import sys
from dataclasses import dataclass
from typing import Sequence

from . import __version__
from .analysis import (
    ALL_ANALYSES,
    AnalysisReport,
    PredictionMatch,
    _normalize_analyses,
    _str_keys,
    analyze,
    verify_against_prediction,
)
from .construction import (
    CodeTable,
    DefiningSetSpec,
    Variant,
    _check,
    _lee_facts,
    build_defining_set,
    enumerate_code,
)
from .errors import BudgetExceededError, EmptyDefiningSetError
from .geometry import MAX_DIMENSION, bit_string
from .ring import ELEMENTS, addition_table, multiplication_table

SCHEMA_VERSION = 1
ENV_BUDGET = "ICODES_WORK_BUDGET"

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE

VARIANTS = (Variant.T1, Variant.T2, Variant.T3, Variant.T4, Variant.T5)


class UsageError(ValueError):
    pass


def parse_subset(text: str | None) -> frozenset[int]:
    """Comma-separated 1-based indices; empty or missing means the empty set."""
    if text is None or text.strip() == "":
        return frozenset()
    try:
        return frozenset(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"cannot parse subset {text!r}; expected e.g. '2,3'") from None


def parse_m_range(text: str) -> list[int]:
    """Either a single dimension '4' or an inclusive range '1..4'; both
    bounds are checked before any dimension is listed."""
    try:
        lo, _, hi = text.partition("..")
        lo = int(lo)
        hi = int(hi) if ".." in text else lo
    except ValueError:
        raise UsageError(f"cannot parse m range {text!r}; expected '4' or '1..4'") from None
    if lo > hi or lo < 1:
        raise UsageError(f"empty or non-positive m range {text!r}")
    if hi > MAX_DIMENSION:
        raise UsageError(f"m must be in 1..{MAX_DIMENSION}, got {hi}")
    return list(range(lo, hi + 1))


def parse_variants(text: str) -> list[Variant]:
    names = [part.strip() for part in text.split(",")]
    if not any(names) or names == [""]:
        raise UsageError("variant list is empty")
    out = []
    for name in names:
        try:
            variant = Variant(name)
        except ValueError:
            raise UsageError(f"unknown variant {name!r}") from None
        if variant is Variant.GENERIC:
            raise UsageError("verify sweeps cover T1..T5 only")
        if variant not in out:
            out.append(variant)
    return out


@dataclass
class ExperimentConfig:
    """Batch description: a list of analyze jobs plus shared options."""

    jobs: list[DefiningSetSpec]
    analyses: list[tuple[str, ...]]
    output_format: str = "text"
    work_budget: int | None = None

    @classmethod
    def load(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                doc = json.load(handle)
        # ValueError covers malformed JSON and text that is not UTF-8;
        # RecursionError, JSON nested deeper than the decoder can follow
        except (OSError, ValueError, RecursionError) as exc:
            raise UsageError(f"cannot read config {path}: {exc}") from None
        if not isinstance(doc, dict) or not isinstance(doc.get("jobs"), list):
            raise UsageError("config must be a JSON object with a 'jobs' list")
        _no_unknown_keys(doc, _CONFIG_KEYS, "config: ")
        output_format = doc.get("format", "text")
        if output_format not in ("text", "structured"):
            raise UsageError("config format must be 'text' or 'structured'")
        budget = doc.get("work_budget")
        if budget is not None:
            budget = _positive_int(budget, "work_budget")
        jobs, analyses = [], []
        for i, job in enumerate(doc["jobs"]):
            if not isinstance(job, dict):
                raise UsageError(f"config job {i} must be a JSON object")
            try:
                _no_unknown_keys(job, _JOB_KEYS)
                m = _positive_int(job["m"], "m")
                spec = _spec(job["variant"], m, job.get("M", []), job.get("N", []))
                if not isinstance(job.get("analyses", []), list):
                    raise TypeError(f"analyses must be a list, got {job['analyses']!r}")
                requested = _normalize_analyses(job.get("analyses"))
            except (KeyError, ValueError, IndexError, TypeError) as exc:
                raise UsageError(f"config job {i}: {exc}") from None
            jobs.append(spec)
            analyses.append(requested)
        if not jobs:
            raise UsageError("config contains no jobs")
        return cls(jobs, analyses, output_format, budget)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icodes",
        description="Codes over the four-element non-unital ring I, "
        "from simplicial-complex defining sets.",
    )
    parser.add_argument("--version", action="version", version=f"icodes {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_code_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--variant", required=True, help="T1..T5")
        p.add_argument("--m", required=True, type=int, help="ambient dimension")
        p.add_argument("--M", default="", help="comma-separated indices, e.g. 2,3")
        p.add_argument("--N", default="", help="comma-separated indices, e.g. 4,5")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--budget", type=int, default=None, help="work budget override")

    p_construct = sub.add_parser("construct", help="build one code and summarize it")
    add_code_args(p_construct)
    p_construct.add_argument(
        "--dump-ring-codewords", action="store_true",
        help="also list the ring codewords, one per line over 0abc",
    )
    p_construct.add_argument(
        "--dump-gray-codewords", action="store_true",
        help="also list the binary Gray codewords, one per line over 01",
    )

    p_analyze = sub.add_parser("analyze", help="full certification report")
    # the code flags default to None, meaning not given: --config takes --budget only
    p_analyze.add_argument("--variant", help="T1..T5")
    p_analyze.add_argument("--m", type=int)
    p_analyze.add_argument("--M")
    p_analyze.add_argument("--N")
    p_analyze.add_argument("--format", choices=("text", "json"))
    p_analyze.add_argument("--budget", type=int, default=None)
    p_analyze.add_argument(
        "--analyses", default=None,
        help=f"comma-separated subset of {','.join(ALL_ANALYSES)}",
    )
    p_analyze.add_argument(
        "--config", default=None,
        help="batch config JSON path; combines with --budget only",
    )

    p_verify = sub.add_parser(
        "verify", help="sweep (M, N) pairs and compare with the closed forms"
    )
    p_verify.add_argument("--m", required=True, help="dimension or range, e.g. 1..4")
    p_verify.add_argument(
        "--variants", default="T1,T2,T3,T4,T5", help="comma-separated variants"
    )
    p_verify.add_argument(
        "--sample", type=int, default=None,
        help="random (M, N) pairs per variant and m instead of all",
    )
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--budget", type=int, default=None)

    sub.add_parser("tables", help="print the ring addition and multiplication tables")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use: parsing reads it and
    changes nothing in it, so every call of :func:`main` shares it."""
    return build_parser()


#: The keys of a config file, and of each of its jobs.
_CONFIG_KEYS = ("jobs", "format", "work_budget")
_JOB_KEYS = ("variant", "m", "M", "N", "analyses")


def _no_unknown_keys(doc: dict, known: tuple[str, ...], prefix: str = "") -> None:
    """Refuse the first key of doc that is not known, such as a misspelt one."""
    for key in doc:
        if key not in known:
            raise UsageError(f"{prefix}unknown key {key!r}; expected one of {', '.join(known)}")


def _positive_int(value, source: str) -> int:
    """A positive integer from outside the program, or a usage error."""
    if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
        raise UsageError(f"{source} must be a positive integer, got {value!r}")
    return value


def _effective_budget(flag_value: int | None) -> int | None:
    if flag_value is not None:
        return _positive_int(flag_value, "--budget")
    env = os.environ.get(ENV_BUDGET)
    if env:
        try:
            value = int(env)
        except ValueError:
            raise UsageError(f"{ENV_BUDGET} must be an integer, got {env!r}") from None
        return _positive_int(value, ENV_BUDGET)
    return None


def _budget_error(exc: BudgetExceededError) -> int:
    """Report a budget refusal as its one stderr line; a command that stopped
    early writes what it finished to stdout first."""
    print(f"error: {exc}", file=sys.stderr)
    return EXIT_BUDGET


_ENCODER = json.JSONEncoder(indent=2, sort_keys=True)


def _json(value, depth: int) -> str:
    """``value`` as indented JSON, its inner lines shifted ``depth`` levels
    (JSON strings hold no raw newline, so the shift is exact)."""
    return _ENCODER.encode(value).replace("\n", "\n" + "  " * depth)


@dataclass(frozen=True)
class _Dump:
    """The codewords of a table as the texts of a dump, in table order.

    Every ring codeword is b*c for a word c of the binary table (its
    a-part is zero), so its text is the bits of c, coordinate 1 first,
    with 1 -> b; its Gray image (c, c) is the word c | c << n, whose text
    is the bits of c written twice.  A text is over 0, 1 and b, so JSON
    quotes it as it is.
    """

    table: CodeTable
    gray: bool

    def write(self, out, first: str, between: str, last: str) -> None:
        """Write the texts to out one codeword at a time: first before the
        first text, between before each later one, last after the last.

        Each row is spread once to one byte per coordinate, coordinate 1
        first, and multiplied by the mark, so its bytes are 0 or the mark
        ('0' XOR '1' for Gray, '0' XOR 'b' for ring).  From the n bytes
        '0' of the zero word, the prefix XORs of these rows step from text
        to text as :class:`~icodes.construction._Codewords` steps from word
        to word: one XOR and one ``to_bytes`` per codeword.  A Gray text
        is written twice, as two writes, so no text is copied.  The
        table's codewords are walked in lockstep, so their order and
        weight checks run on every dumped word.
        """
        table, n = self.table, self.table.length
        zeros = int.from_bytes(b"0" * n, "big")
        mark = ord("0") ^ ord("1" if self.gray else "b")
        prefix, word = [], 0
        for row in table.rows:
            spread = int.from_bytes(bit_string(row, n).encode(), "big") ^ zeros
            _check(
                int((spread ^ zeros).to_bytes(n, "big")[::-1], 2) == row,
                "a spread row must read back as its row",
            )
            word ^= spread * mark
            prefix.append(word)
        word, sep = zeros, first
        for x, _ in enumerate(table.codewords):
            if x:
                word ^= prefix[(x & -x).bit_length() - 1]
            text = word.to_bytes(n, "big").decode("ascii")
            out.write(sep)
            out.write(text)
            if self.gray:
                out.write(text)
            sep = between
        # every dump holds the zero codeword, so last follows a text
        out.write(last)


def _emit(doc: dict, out) -> None:
    """Write ``doc`` to ``out`` as JSON, one top-level key at a time.

    A :class:`_Dump` value is written one codeword at a time and never
    held whole.  The bytes are exactly ``json.dumps(doc, indent=2,
    sort_keys=True) + "\\n"`` with each dump replaced by the list of its
    texts.
    """
    sep = "{"
    for key in sorted(doc):
        value = doc[key]
        out.write(f"{sep}\n  {_json(key, 1)}: ")
        if isinstance(value, _Dump):
            value.write(out, '[\n    "', '",\n    "', '"\n  ]')
        else:
            out.write(_json(value, 1))
        sep = ","
    out.write("{}\n" if sep == "{" else "\n}\n")


def _subset(name: str, value) -> frozenset[int]:
    """M or N as comma-separated text (a flag, or a config string) or, in
    a config, a list of indices."""
    if isinstance(value, str):
        return parse_subset(value)
    if isinstance(value, list):
        return frozenset(_positive_int(x, f"{name} entry") for x in value)
    raise UsageError(
        f"{name} must be a list of indices or a comma-separated string, got {value!r}"
    )


def _spec(variant, m: int, M, N) -> DefiningSetSpec:
    """The spec of one code of a named variant, from the flags or from a
    config job, with the same usage errors for both."""
    try:
        variant = Variant(variant)
    except ValueError:
        raise UsageError(f"unknown variant {variant!r}") from None
    if variant is Variant.GENERIC:
        raise UsageError("the CLI drives the named variants T1..T5")
    return DefiningSetSpec(variant=variant, m=m, M=_subset("M", M), N=_subset("N", N))


def cmd_construct(args: argparse.Namespace, out) -> int:
    spec = _spec(args.variant, args.m, args.M, args.N)
    budget = _effective_budget(args.budget)
    try:
        ds = build_defining_set(spec)
    except EmptyDefiningSetError as exc:
        raise UsageError(f"empty defining set: {exc}") from None
    # the binary code c renders both dumps and carries every Lee fact
    table = enumerate_code(ds, work_budget=budget)
    lee = _lee_facts(table)
    params = lee["params"]

    if args.format == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": "construct",
            "variant": spec.variant.value,
            "m": spec.m,
            "M": sorted(spec.M),
            "N": sorted(spec.N),
            "length": len(ds),
            "code_size": lee["code_size"],
            "kernel_size": lee["kernel_size"],
            "lee_weight_distribution": _str_keys(lee["lee_weight_distribution"]),
            "message_profile": _str_keys(lee["message_profile"]),
            "lee_enumerator": lee["lee_enumerator"],
            "gray_params": params.as_list(),
            "degenerate": params.degenerate,
        }
        if args.dump_ring_codewords:
            doc["ring_codewords"] = _Dump(table, gray=False)
        if args.dump_gray_codewords:
            doc["gray_codewords"] = _Dump(table, gray=True)
        _emit(doc, out)
    else:
        subsets = f"M={{{','.join(map(str, sorted(spec.M)))}}} N={{{','.join(map(str, sorted(spec.N)))}}}"
        print(f"variant {spec.variant.value}  m={spec.m}  {subsets}", file=out)
        print(f"defining set length: {len(ds)}", file=out)
        print(f"code size: {lee['code_size']}  kernel size: {lee['kernel_size']}", file=out)
        print(f"lee enumerator: {lee['lee_enumerator']}", file=out)
        print(f"gray image: {params}", file=out)
        if params.degenerate:
            print("degenerate: zero code (k = 0, distance undefined)", file=out)
        if args.dump_ring_codewords:
            print("ring codewords:", file=out)
            _Dump(table, gray=False).write(out, "", "\n", "\n")
        if args.dump_gray_codewords:
            print("gray codewords:", file=out)
            _Dump(table, gray=True).write(out, "", "\n", "\n")
    return EXIT_OK


def _report_text(report: AnalysisReport, out) -> None:
    subsets = f"M={{{','.join(map(str, report.M))}}} N={{{','.join(map(str, report.N))}}}"
    print(f"variant {report.variant.value}  m={report.m}  {subsets}", file=out)
    if report.degenerate:
        print(f"degenerate: {report.degenerate_reason}", file=out)
    if report.length is None:
        _print_verdict(report, out)
        return
    print(f"defining set length: {report.length}", file=out)
    print(f"code size: {report.code_size}  kernel size: {report.kernel_size}", file=out)
    print(f"lee enumerator: {report.lee_enumerator}", file=out)
    if report.params is not None:
        print(f"gray image: {report.params}  nonzero weights: {report.num_weights}", file=out)
    if report.minimal is not None:
        extra = f" (min/max weight ratio {report.ab_ratio}, sufficient: {report.ab_holds})"
        print(f"minimal: {report.minimal}{extra}", file=out)
        if report.minimal_witness:
            print(f"  witness: {report.minimal_witness[0]} covered by {report.minimal_witness[1]}", file=out)
    if report.self_orthogonal is not None:
        print(
            f"self-orthogonal: {report.self_orthogonal} "
            f"(weights divisible by 4: {report.weights_div4})",
            file=out,
        )
    if report.optimality is not None:
        print(
            f"griesmer: sums {report.griesmer_sum_at_d} / "
            f"{report.griesmer_sum_at_d_plus_1} vs n={report.params.n} -> {report.optimality}",
            file=out,
        )
    if report.theta_predicts_optimal is not None:
        theta = report.theta1 if report.theta1 is not None else report.theta2
        which = "theta1" if report.theta1 is not None else "theta2"
        print(
            f"optimality predictor: {which}={theta} -> "
            f"{'optimal' if report.theta_predicts_optimal else 'not decided optimal'}",
            file=out,
        )
    if report.simplex is not None:
        if report.simplex.kind == "replicated-simplex":
            print(
                f"simplex structure: {report.simplex.replication}-fold simplex "
                f"plus {report.simplex.zero_columns} zero columns",
                file=out,
            )
        else:
            print(f"simplex structure: {report.simplex.kind}", file=out)
    if report.prediction_match is not None:
        print(f"distribution matches prediction: {report.prediction_match}", file=out)
    _print_verdict(report, out)


def _print_verdict(report: AnalysisReport, out) -> None:
    if report.prediction_diffs:
        print("EXPECTATION FAILURES:", file=out)
        for diff in report.prediction_diffs:
            print(f"  - {diff}", file=out)
    else:
        print("all expected properties hold", file=out)


def _summary_table(reports: Sequence[AnalysisReport], out) -> None:
    print(
        "variant | [n,k,d] | #weights | distance optimal | minimal | self-orthogonal",
        file=out,
    )
    for r in reports:
        params = "-" if r.params is None else str(r.params)
        print(
            f"{r.variant.value} | {params} | {r.num_weights if r.num_weights is not None else '-'}"
            f" | {r.optimality or '-'} | {r.minimal or '-'} | {r.self_orthogonal or '-'}",
            file=out,
        )


#: The analyze flags that a config file replaces.
_CONFIG_FLAGS = ("variant", "m", "M", "N", "analyses", "format")


def cmd_analyze(args: argparse.Namespace, out) -> int:
    budget = _effective_budget(args.budget)
    if args.config:
        given = [f"--{name}" for name in _CONFIG_FLAGS if getattr(args, name) is not None]
        if given:
            raise UsageError(f"--config cannot be combined with {', '.join(given)}")
        config = ExperimentConfig.load(args.config)
        specs = config.jobs
        analyses_list = config.analyses
        fmt = "json" if config.output_format == "structured" else "text"
        if config.work_budget is not None and budget is None:
            budget = config.work_budget
    else:
        if not args.variant or args.m is None:
            raise UsageError("analyze needs --variant and --m (or --config)")
        specs = [_spec(args.variant, args.m, args.M or "", args.N or "")]
        requested = None
        if args.analyses is not None:
            text = args.analyses.strip()
            requested = tuple(part.strip() for part in text.split(",")) if text else ()
        analyses_list = [requested]
        fmt = args.format or "text"

    reports = []
    budget_hit: BudgetExceededError | None = None
    for spec, requested in zip(specs, analyses_list):
        try:
            reports.append(
                analyze(spec, analyses=requested, work_budget=budget)
            )
        except BudgetExceededError as exc:
            budget_hit = exc
            break
    if budget_hit and not reports:
        return _budget_error(budget_hit)

    failed = any(r.prediction_diffs for r in reports)
    if fmt == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": "analyze",
            "reports": [r.to_dict() for r in reports],
            "all_expected": not failed,
        }
        if budget_hit:
            doc["budget_exceeded"] = str(budget_hit)
        _emit(doc, out)
    else:
        for i, report in enumerate(reports):
            if i:
                print("", file=out)
            _report_text(report, out)
        if len(reports) > 1:
            print("", file=out)
            _summary_table(reports, out)
    if budget_hit:
        return _budget_error(budget_hit)
    return EXIT_MISMATCH if failed else EXIT_OK


def _sweep_pairs(m: int, sample: int | None, seed: int):
    full = 1 << m
    if sample is None:
        for mask_m in range(full):
            for mask_n in range(full):
                yield mask_m, mask_n
        return
    rng = random.Random(seed)
    for _ in range(sample):
        yield rng.randrange(full), rng.randrange(full)


def _mask_to_subset(mask: int) -> frozenset[int]:
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def cmd_verify(args: argparse.Namespace, out) -> int:
    budget = _effective_budget(args.budget)
    if args.sample is not None:
        _positive_int(args.sample, "--sample")
    dims = parse_m_range(args.m)
    variants = parse_variants(args.variants)
    groups = []
    mismatches: list[PredictionMatch] = []
    budget_hit: BudgetExceededError | None = None

    for variant, m in itertools.product(variants, dims):
        group = {"variant": variant.value, "m": m, "pairs": 0, "matched": 0, "degenerate": 0}
        groups.append(group)
        try:
            for mask_m, mask_n in _sweep_pairs(m, args.sample, args.seed):
                spec = DefiningSetSpec(
                    variant=variant, m=m,
                    M=_mask_to_subset(mask_m), N=_mask_to_subset(mask_n),
                )
                result = verify_against_prediction(spec, work_budget=budget)
                group["pairs"] += 1
                group["matched"] += result.matched
                group["degenerate"] += result.degenerate
                if not result.matched:
                    mismatches.append(result)
        except BudgetExceededError as exc:
            budget_hit = exc
            break

    pairs, matched, degenerate = (
        sum(group[key] for group in groups) for key in ("pairs", "matched", "degenerate")
    )
    summary = {
        "pairs": pairs,
        "matched": matched,
        "mismatched": pairs - matched,
        "degenerate": degenerate,
    }
    if args.format == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": "verify",
            "m": dims,
            "variants": [v.value for v in variants],
            "summary": summary,
            "groups": groups,
            "mismatches": [
                {
                    "variant": r.variant.value,
                    "m": r.m,
                    "M": list(r.M),
                    "N": list(r.N),
                    "diffs": list(r.diffs),
                }
                for r in mismatches
            ],
        }
        if budget_hit:
            doc["budget_exceeded"] = str(budget_hit)
        _emit(doc, out)
    else:
        for group in groups:
            print(
                f"{group['variant']} m={group['m']}: {group['matched']}/{group['pairs']} match"
                f" ({group['degenerate']} degenerate)",
                file=out,
            )
        print(
            f"total: {summary['pairs']} pairs, {summary['matched']} match, "
            f"{summary['mismatched']} mismatch ({summary['degenerate']} degenerate)",
            file=out,
        )
        for r in mismatches:
            print(
                f"MISMATCH {r.variant.value} m={r.m} M={sorted(r.M)} N={sorted(r.N)}:",
                file=out,
            )
            for diff in r.diffs:
                print(f"  - {diff}", file=out)
        if budget_hit:
            print(f"stopped early: {budget_hit}", file=out)
    if budget_hit:
        return _budget_error(budget_hit)
    return EXIT_MISMATCH if mismatches else EXIT_OK


def render_ring_tables() -> str:
    lines = []
    for title, table in (("+", addition_table()), ("x", multiplication_table())):
        lines.append(f"{title} | " + " ".join(e.symbol for e in ELEMENTS))
        lines.append("--+--------")
        for x, row in zip(ELEMENTS, table):
            lines.append(f"{x.symbol} | " + " ".join(e.symbol for e in row))
        lines.append("")
    return "\n".join(lines[:-1])


def cmd_tables(out) -> int:
    print(render_ring_tables(), file=out)
    return EXIT_OK


def main(argv: Sequence[str] | None = None, out=None) -> int:
    out = sys.stdout if out is None else out
    args = _parser().parse_args(argv)
    try:
        if args.command == "construct":
            return cmd_construct(args, out)
        if args.command == "analyze":
            return cmd_analyze(args, out)
        if args.command == "verify":
            return cmd_verify(args, out)
        if args.command == "tables":
            return cmd_tables(out)
    except (IndexError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        return _budget_error(exc)
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


def entrypoint() -> None:
    """Run :func:`main` on the real stdout; a reader that closes the pipe
    early (``| head``) ends the run quietly with ``EXIT_BROKEN_PIPE``."""
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # As the ``signal`` docs advise: the interpreter's final flush of
        # stdout would fail again, so point stdout at devnull first.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = EXIT_BROKEN_PIPE
    raise SystemExit(status)
