"""Command-line behavior: output, exit codes, config batches, determinism."""

import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from typing import Iterator

import pytest

from icodes import cli, construction
from icodes.analysis import ALL_ANALYSES, analyze, verify_against_prediction
from icodes.cli import main, parse_m_range, parse_subset, parse_variants, UsageError
from icodes.construction import DefiningSetSpec, Variant
from icodes.ring import ELEMENTS


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture
def streamed_keys(monkeypatch):
    """Check every ``_emit`` call against ``json.dumps`` of the same document
    with its iterators materialized; collect the streamed keys per call."""
    calls = []
    emit = cli._emit

    def checked_emit(doc, out):
        streamed = sorted(key for key, value in doc.items() if isinstance(value, Iterator))
        lists = {key: list(doc[key]) for key in streamed}
        materialized = {**doc, **lists}
        buffer = io.StringIO()
        emit({**doc, **{key: iter(items) for key, items in lists.items()}}, buffer)
        assert buffer.getvalue() == json.dumps(materialized, indent=2, sort_keys=True) + "\n"
        out.write(buffer.getvalue())
        calls.append(streamed)

    monkeypatch.setattr(cli, "_emit", checked_emit)
    return calls


# --- flag parsing -------------------------------------------------------------


def test_parse_subset():
    assert parse_subset("2,3") == frozenset({2, 3})
    assert parse_subset("") == frozenset()
    assert parse_subset(None) == frozenset()
    with pytest.raises(UsageError):
        parse_subset("1,x")


def test_parse_m_range():
    assert parse_m_range("3") == [3]
    assert parse_m_range("1..4") == [1, 2, 3, 4]
    with pytest.raises(UsageError):
        parse_m_range("zero")
    with pytest.raises(UsageError):
        parse_m_range("0")


def test_parse_variants():
    assert [v.value for v in parse_variants("T1,T3")] == ["T1", "T3"]
    with pytest.raises(UsageError):
        parse_variants("")
    with pytest.raises(UsageError):
        parse_variants("T9")
    with pytest.raises(UsageError):
        parse_variants("GENERIC")


# --- construct -----------------------------------------------------------------


def test_construct_reference_t1():
    code, text = run(["construct", "--variant", "T1", "--m", "6", "--M", "2,3", "--N", "4,5"])
    assert code == 0
    assert "X^32 + 3X^16Y^16" in text
    assert "[32, 2, 16]" in text


def test_construct_reference_t2_large():
    code, text = run(
        ["construct", "--variant", "T2", "--m", "9", "--M", "1,2,3,4,7,8,9", "--N", "5,6"]
    )
    assert code == 0
    assert "X^3072 + 508X^1536Y^1536 + 3X^1024Y^2048" in text
    assert "[3072, 9, 1536]" in text


def test_construct_degenerate_zero_code_still_succeeds():
    code, text = run(["construct", "--variant", "T1", "--m", "3", "--M", "", "--N", ""])
    assert code == 0
    assert "defining set length: 1" in text
    assert "degenerate" in text


def test_construct_empty_defining_set_is_a_parameter_error(capsys):
    argv = ["construct", "--variant", "T5", "--m", "2", "--M", "1,2", "--N", "1,2"]
    for fmt in ([], ["--format", "json"]):
        err = assert_one_line_usage_error([*argv, *fmt], capsys)
        assert err == "error: empty defining set: T1 set is all of I^m, its complement is empty\n"


def test_every_production_path_spot_checks_each_code_once(monkeypatch):
    checked = []
    spot_check = construction._spot_check
    monkeypatch.setattr(
        construction, "_spot_check", lambda ds: checked.append(len(ds)) or spot_check(ds)
    )
    s = DefiningSetSpec(Variant.T2, 3, {1}, {2})
    analyze(s)
    verify_against_prediction(s)
    assert run(["construct", "--variant", "T2", "--m", "3", "--M", "1", "--N", "2"])[0] == 0
    assert checked == [12, 12, 12]
    # verify --m 1 walks the four T1 codes, of lengths 1, 2, 2 and 4
    checked.clear()
    assert run(["verify", "--m", "1", "--variants", "T1"])[0] == 0
    assert sorted(checked) == [1, 2, 2, 4]


def test_construct_invalid_subset_is_usage_error():
    code, _ = run(["construct", "--variant", "T1", "--m", "3", "--M", "7", "--N", ""])
    assert code == 2


BUDGET_MESSAGE = "code enumeration requires ~256 elementary operations, over the budget of 8"


@pytest.mark.parametrize("command", ["construct", "analyze", "verify"])
def test_budget_exceeded_is_reported_once(command, capsys):
    # T1 m=4 with |M| + |N| = 4 has n = 16, charged 2^4 * 16 = 256; verify's
    # first pair (M = N = {}) has n = 1, charged 16
    if command == "verify":
        argv = ["verify", "--m", "4", "--variants", "T1", "--budget", "8"]
    else:
        argv = [command, "--variant", "T1", "--m", "4", "--M", "1,2", "--N", "3,4", "--budget", "8"]
    code, out = run(argv)
    err = capsys.readouterr().err
    assert code == 3
    message = BUDGET_MESSAGE.replace("~256", "~16") if command == "verify" else BUDGET_MESSAGE
    assert err == f"error: {message}\n"
    if command == "verify":
        # verify first flushes its partial summary, which ends with the stop
        assert out.splitlines()[-1] == f"stopped early: {message}"
        assert out.count("budget") == 1
    else:
        assert out == ""


def test_construct_builds_the_defining_set_once(monkeypatch):
    calls = []
    blocks = construction._blocks
    monkeypatch.setattr(construction, "_blocks", lambda s: calls.append(s) or blocks(s))
    code, _ = run(["construct", "--variant", "T2", "--m", "5", "--M", "1,2,3", "--N", "4"])
    assert code == 0 and len(calls) == 1


DUMPS = ("--dump-ring-codewords", "--dump-gray-codewords")


def test_construct_json_and_dumps(streamed_keys):
    for dumps in (DUMPS, DUMPS[:1], DUMPS[1:], ()):
        streamed_keys.clear()
        code, text = run(
            [
                "construct", "--variant", "T1", "--m", "2", "--M", "1", "--N", "2",
                "--format", "json", *dumps,
            ]
        )
        assert code == 0
        doc = json.loads(text)
        assert doc["schema_version"] == 1
        assert doc["length"] == 4
        assert doc["lee_enumerator"] == "X^8 + X^4Y^4"
        keys = [flag[len("--dump-"):].replace("-", "_") for flag in dumps]
        assert streamed_keys == [sorted(keys)]
        if "ring_codewords" in keys:
            assert set(doc["ring_codewords"]) == {"0000", "00bb"}
        if "gray_codewords" in keys:
            assert len(doc["gray_codewords"]) == 2
            assert all(set(w) <= {"0", "1"} for w in doc["gray_codewords"])


#: The Gray map of one ring symbol a*s + b*t: its t-bit and its (s+t)-bit.
GRAY_BITS = {"0": ("0", "0"), "a": ("0", "1"), "b": ("1", "1"), "c": ("1", "0")}


@pytest.mark.parametrize(
    "code",
    [
        ["--variant", "T1", "--m", "6", "--M", "2,3", "--N", "4,5"],
        ["--variant", "T5", "--m", "4", "--M", "2,3,4", "--N", "1,2,4"],
    ],
    ids=["T1-m6", "T5-m4"],
)
def test_dumps_correspond_word_by_word(code):
    status, text = run(["construct", *code, "--format", "json", *DUMPS])
    assert status == 0
    doc = json.loads(text)
    ring, gray = doc["ring_codewords"], doc["gray_codewords"]
    assert len(ring) == len(gray) == doc["code_size"]
    for word, image in zip(ring, gray):
        # block layout: every coordinate's t-bit, then every (s+t)-bit
        assert image == "".join(GRAY_BITS[ch][0] for ch in word) + "".join(
            GRAY_BITS[ch][1] for ch in word
        )
    # coordinate 1 is the lowest bit; a ring word's value is its t-part
    ring_values = [int("".join(GRAY_BITS[ch][0] for ch in word)[::-1], 2) for word in ring]
    gray_values = [int(image[::-1], 2) for image in gray]
    for values in (ring_values, gray_values):
        assert all(u < v for u, v in zip(values, values[1:]))


def test_emit_streams_iterators_byte_identically():
    doc = {
        "z": iter([{"k": [1, {"nested": "line\nbreak"}]}, "s", []]),
        "a": iter([]),
        "m": {"inner": ["x", {}], "empty": []},
    }
    expected = {"z": [{"k": [1, {"nested": "line\nbreak"}]}, "s", []], "a": [], "m": doc["m"]}
    out = io.StringIO()
    cli._emit(doc, out)
    assert out.getvalue() == json.dumps(expected, indent=2, sort_keys=True) + "\n"
    out = io.StringIO()
    cli._emit({}, out)
    assert out.getvalue() == "{}\n"


class CountingSink:
    """A text stream that counts what it is given and keeps none of it."""

    def __init__(self):
        self.chars = 0

    def write(self, text: str) -> int:
        self.chars += len(text)
        return len(text)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_dump_memory_stays_below_its_output(fmt):
    argv = [
        "construct", "--variant", "T2", "--m", "9", "--M", "1,2,3,4,7,8,9", "--N", "5,6",
        "--format", fmt, *DUMPS,
    ]
    sink = CountingSink()
    tracemalloc.start()
    try:
        assert main(argv, out=sink) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.chars > 2_000_000
    assert peak < sink.chars / 2, (peak, sink.chars)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_closed_pipe_ends_quietly(fmt):
    src = Path(cli.__file__).resolve().parents[1]
    argv = [
        sys.executable, "-m", "icodes", "construct", "--variant", "T2", "--m", "8",
        "--M", "1,2", "--N", "3,4", "--format", fmt, "--dump-gray-codewords",
    ]
    env = {**os.environ, "PYTHONPATH": str(src)}
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()  # the output is about 0.5 MB, far beyond any pipe buffer
        stderr = proc.stderr.read()
        status = proc.wait(timeout=60)
    assert stderr == b""
    assert status == cli.EXIT_BROKEN_PIPE == 141


def test_env_budget_override(monkeypatch):
    monkeypatch.setenv("ICODES_WORK_BUDGET", "8")
    code, _ = run(["construct", "--variant", "T1", "--m", "4", "--M", "1,2", "--N", "3,4"])
    assert code == 3
    monkeypatch.setenv("ICODES_WORK_BUDGET", "notanint")
    code, _ = run(["construct", "--variant", "T1", "--m", "4", "--M", "1,2", "--N", "3,4"])
    assert code == 2


# --- analyze ---------------------------------------------------------------------


def test_analyze_reference_t2():
    code, text = run(["analyze", "--variant", "T2", "--m", "5", "--M", "1,2,3", "--N", "4"])
    assert code == 0
    assert "minimal: yes-exhaustive" in text
    assert "self-orthogonal: yes-direct" in text
    assert "certified-optimal" in text
    assert "all expected properties hold" in text


def test_analyze_json_schema_and_determinism(streamed_keys):
    argv = ["analyze", "--variant", "T5", "--m", "4", "--M", "2,3,4", "--N", "1,2,4", "--format", "json"]
    code1, text1 = run(argv)
    code2, text2 = run(argv)
    assert code1 == code2 == 0
    assert text1 == text2
    doc = json.loads(text1)
    assert doc["schema_version"] == 1
    report = doc["reports"][0]
    assert report["params"] == [384, 4, 192]
    assert report["minimal"] == "yes-exhaustive"
    assert doc["all_expected"] is True
    assert streamed_keys == [[], []]


def test_analyze_subset_of_analyses():
    code, text = run(
        ["analyze", "--variant", "T2", "--m", "4", "--M", "1", "--N", "2", "--analyses", "weights,griesmer"]
    )
    assert code == 0
    assert "griesmer" in text
    assert "minimal" not in text


@pytest.mark.parametrize("analyses", ["", " "])
def test_analyze_empty_analyses_flag_is_a_usage_error(analyses, capsys):
    argv = ["analyze", "--variant", "T2", "--m", "4", "--M", "1", "--N", "2", "--analyses", analyses]
    code, out = run(argv)
    assert (code, out, capsys.readouterr().err) == (2, "", "error: no analyses requested\n")


def test_analyze_requires_parameters():
    code, _ = run(["analyze"])
    assert code == 2


def test_analyze_config_batch(tmp_path: Path, streamed_keys):
    config = {
        "format": "structured",
        "jobs": [
            {"variant": "T1", "m": 6, "M": [2, 3], "N": [4, 5]},
            {"variant": "T3", "m": 3, "M": "1,2,3", "N": "1,2", "analyses": ["weights", "gray", "simplex"]},
        ],
    }
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, text = run(["analyze", "--config", str(path)])
    assert code == 0
    doc = json.loads(text)
    assert len(doc["reports"]) == 2
    assert doc["reports"][0]["lee_enumerator"] == "X^32 + 3X^16Y^16"
    assert doc["reports"][1]["params"] == [64, 3, 32]
    assert doc["reports"][1]["simplex"]["kind"] == "replicated-simplex"
    assert doc["reports"][1]["minimal"] is None
    assert streamed_keys == [[]]


def test_analyze_config_validation(tmp_path: Path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"jobs": [{"variant": "T7", "m": 2}]}), encoding="utf-8")
    assert_one_line_usage_error(["analyze", "--config", str(path)], capsys)
    # malformed JSON, text that is not UTF-8, and nesting deeper than the
    # decoder can follow are each one "cannot read config" line
    for content in (b"not json", b"\xff\xfe{}", b"[" * 100000):
        path.write_bytes(content)
        err = assert_one_line_usage_error(["analyze", "--config", str(path)], capsys)
        assert err.startswith(f"error: cannot read config {path}: "), err


def assert_one_line_usage_error(argv, capsys):
    code, out = run(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_analyze_config_job_not_an_object(tmp_path: Path, capsys):
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps({"jobs": [1]}), encoding="utf-8")
    assert_one_line_usage_error(["analyze", "--config", str(path)], capsys)


def test_analyze_config_boolean_work_budget(tmp_path: Path, capsys):
    path = tmp_path / "jobs.json"
    config = {"work_budget": True, "jobs": [{"variant": "T1", "m": 2, "M": [1], "N": [2]}]}
    path.write_text(json.dumps(config), encoding="utf-8")
    assert_one_line_usage_error(["analyze", "--config", str(path)], capsys)


@pytest.mark.parametrize(
    "job, message",
    [
        ({"m": 5.9}, "m must be a positive integer, got 5.9"),
        ({"m": True}, "m must be a positive integer, got True"),
        ({"m": "5"}, "m must be a positive integer, got '5'"),
        ({"M": [1.7]}, "M entry must be a positive integer, got 1.7"),
        ({"N": [True]}, "N entry must be a positive integer, got True"),
        ({"N": ["2"]}, "N entry must be a positive integer, got '2'"),
        ({"analyses": "weights"}, "analyses must be a list, got 'weights'"),
        ({"n": [2, 3]}, "unknown key 'n'; expected one of variant, m, M, N, analyses"),
        ({"M": None}, "M must be a list of indices or a comma-separated string, got None"),
        ({"M": 3}, "M must be a list of indices or a comma-separated string, got 3"),
        # the flags' messages
        ({"variant": "GENERIC"}, "the CLI drives the named variants T1..T5"),
        ({"variant": "T7"}, "unknown variant 'T7'"),
    ],
    ids=[
        "float-m", "bool-m", "string-m", "float-M", "bool-N", "string-N", "string-analyses",
        "unknown-key", "null-M", "int-M", "generic-variant", "unknown-variant",
    ],
)
def test_analyze_config_rejects_coerced_values(job, message, tmp_path: Path, capsys):
    path = tmp_path / "jobs.json"
    good = {"variant": "T1", "m": 5, "M": [1], "N": [2]}
    path.write_text(json.dumps({"jobs": [good, {**good, **job}]}), encoding="utf-8")
    assert run(["analyze", "--config", str(path)]) == (2, "")
    assert capsys.readouterr().err == f"error: config job 1: {message}\n"


@pytest.mark.parametrize("key", ["fromat", "work_budgt"])
def test_analyze_config_refuses_an_unknown_top_level_key(key, tmp_path: Path, capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(cli, "analyze", lambda spec, **kwargs: ran.append(spec))
    path = tmp_path / "jobs.json"
    config = {key: "structured" if key == "fromat" else 5, "jobs": [{"variant": "T1", "m": 2}]}
    path.write_text(json.dumps(config), encoding="utf-8")
    assert run(["analyze", "--config", str(path)]) == (2, "")
    expected = f"config: unknown key {key!r}; expected one of jobs, format, work_budget"
    assert capsys.readouterr().err == f"error: {expected}\n"
    assert ran == []


@pytest.mark.parametrize(
    "analyses, message",
    [
        (["bogus"], f"unknown analysis 'bogus'; valid: {ALL_ANALYSES}"),
        ([], "no analyses requested"),
    ],
    ids=["unknown-name", "empty-list"],
)
def test_analyze_config_checks_analyses_before_any_job_runs(
    analyses, message, tmp_path: Path, capsys, monkeypatch
):
    ran = []
    monkeypatch.setattr(cli, "analyze", lambda spec, **kwargs: ran.append(spec))
    path = tmp_path / "jobs.json"
    good = {"variant": "T2", "m": 9, "M": [1, 2, 3], "N": [4]}
    path.write_text(json.dumps({"jobs": [good, {**good, "analyses": analyses}]}), encoding="utf-8")
    assert run(["analyze", "--config", str(path)]) == (2, "")
    assert capsys.readouterr().err == f"error: config job 1: {message}\n"
    assert ran == []


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--variant", "T5"], "--variant"),
        (["--m", "9"], "--m"),
        (["--M", "1,2"], "--M"),
        (["--N", ""], "--N"),
        (["--analyses", "bogus"], "--analyses"),
        (["--format", "text"], "--format"),
        (
            ["--format", "json", "--variant", "T5", "--m", "9", "--analyses", "bogus"],
            "--variant, --m, --analyses, --format",
        ),
    ],
    ids=["variant", "m", "M", "empty-N", "analyses", "format", "several"],
)
def test_analyze_config_refuses_the_code_flags(flags, named, tmp_path: Path, capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(cli, "analyze", lambda spec, **kwargs: ran.append(spec))
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps({"jobs": [{"variant": "T1", "m": 2}]}), encoding="utf-8")
    assert run(["analyze", "--config", str(path), *flags]) == (2, "")
    assert capsys.readouterr().err == f"error: --config cannot be combined with {named}\n"
    assert ran == []


def test_analyze_config_takes_the_budget_flag(tmp_path: Path, capsys):
    path = tmp_path / "jobs.json"
    config = {"work_budget": 1 << 20, "jobs": [{"variant": "T1", "m": 4, "M": [1, 2], "N": [3, 4]}]}
    path.write_text(json.dumps(config), encoding="utf-8")
    assert run(["analyze", "--config", str(path)])[0] == 0
    assert run(["analyze", "--config", str(path), "--budget", "8"]) == (3, "")
    assert capsys.readouterr().err == f"error: {BUDGET_MESSAGE}\n"


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_analyze_config_reports_finished_jobs_before_the_budget_error(fmt, tmp_path: Path, capsys):
    # job 1, T2 m=8 with n = 496, is charged 2^8 * 496 = 126976 > 100000
    job0 = {"variant": "T1", "m": 2, "M": [1], "N": [2]}
    job1 = {"variant": "T2", "m": 8, "M": [1, 2, 3], "N": [4]}
    path = tmp_path / "jobs.json"
    config = {"format": fmt, "work_budget": 100000, "jobs": [job0, job1]}
    path.write_text(json.dumps(config), encoding="utf-8")
    code, out = run(["analyze", "--config", str(path)])
    message = "code enumeration requires ~126976 elementary operations, over the budget of 100000"
    assert code == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    alone = ["analyze", "--variant", "T1", "--m", "2", "--M", "1", "--N", "2"]
    if fmt == "text":
        assert out == run(alone)[1]
    else:
        doc = json.loads(out)
        assert doc["budget_exceeded"] == message
        assert doc["reports"] == json.loads(run([*alone, "--format", "json"])[1])["reports"]


@pytest.mark.parametrize("budget", ["-5", "0"])
def test_non_positive_budget_flag(budget, capsys):
    argv = ["construct", "--variant", "T1", "--m", "2", "--M", "1", "--N", "2"]
    assert_one_line_usage_error(argv + ["--budget", budget], capsys)


def test_negative_env_budget(monkeypatch, capsys):
    monkeypatch.setenv("ICODES_WORK_BUDGET", "-5")
    argv = ["construct", "--variant", "T1", "--m", "2", "--M", "1", "--N", "2"]
    assert_one_line_usage_error(argv, capsys)


# --- verify -----------------------------------------------------------------------


def test_verify_small_sweep_all_match():
    code, text = run(["verify", "--m", "1..2", "--variants", "T1,T2,T3,T4,T5"])
    assert code == 0
    assert "mismatch" in text
    assert "0 mismatch" in text


def test_verify_sampled_sweep():
    code, text = run(["verify", "--m", "4", "--variants", "T2", "--sample", "10"])
    assert code == 0
    assert "10/10 match" in text


def test_verify_json_document(streamed_keys):
    code, text = run(["verify", "--m", "2", "--variants", "T1", "--format", "json"])
    assert code == 0
    doc = json.loads(text)
    assert doc["summary"]["pairs"] == 16
    assert doc["summary"]["mismatched"] == 0
    assert doc["mismatches"] == []
    assert streamed_keys == [[]]


@pytest.mark.parametrize("sample", ["0", "-4"])
def test_verify_non_positive_sample(sample, capsys):
    assert_one_line_usage_error(["verify", "--m", "3", "--sample", sample], capsys)


@pytest.mark.parametrize("m_range", ["1..1000000000", "24..25", "25"])
def test_verify_rejects_dimensions_past_the_cap_before_any_group(m_range, capsys):
    # both bounds are checked before the range is listed or any group runs
    assert_one_line_usage_error(["verify", "--m", m_range], capsys)


def test_verify_empty_variants_usage_error():
    code, _ = run(["verify", "--m", "2", "--variants", ""])
    assert code == 2


def test_verify_budget_exceeded_flushes_partial_results(streamed_keys):
    argv = ["verify", "--m", "12", "--variants", "T4", "--budget", "1000"]
    code, text = run(argv)
    assert code == 3
    assert "stopped early" in text
    code, text = run([*argv, "--format", "json"])
    assert code == 3
    assert "budget_exceeded" in json.loads(text)
    assert streamed_keys == [[]]


# --- tables -----------------------------------------------------------------------


def test_tables_exact_rows():
    code, text = run(["tables"])
    assert code == 0
    assert "a | a 0 c b" in text
    assert "b | 0 0 0 0" in text
    assert "+ | 0 a b c" in text


def readme_commands():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    return [
        line.strip()[len("icodes "):]
        for line in readme.read_text(encoding="utf-8").splitlines()
        if line.strip().startswith("icodes ")
    ]


def test_every_readme_command_exits_zero():
    commands = readme_commands()
    assert len(commands) >= 10  # six reference constructions plus the rest
    for command in commands:
        argv = command.split()
        if "--config" in argv:
            continue  # documented with an inline JSON example, not a real file
        code, _ = run(argv)
        assert code == 0, command


#: sha256 of stdout and of stderr, and the exit status, of the README
#: commands, both dump workloads, a certify rung and a JSON sweep; recorded
#: before the pairs of a GENERIC block became the plain product of its parts,
#: which leaves every T1..T5 output as it was.
NOTHING = hashlib.sha256(b"").hexdigest()
GOLDEN_OUTPUTS = {
    "construct --variant T1 --m 6 --M 2,3 --N 4,5": (
        "adeb36bb043635a3526054654c626a91de1dc87827b3d1c3d18fd53aa89d7a66", NOTHING, 0
    ),
    "construct --variant T2 --m 5 --M 1,2,3 --N 4": (
        "992a347d86fbcb68356fe68a497c5a73d427c7463b31829d842e25ad8a6e8527", NOTHING, 0
    ),
    "construct --variant T2 --m 9 --M 1,2,3,4,7,8,9 --N 5,6": (
        "e9de297c4b067e36fa2c79d60198e386acc2cd2aa88405111d09eee39256646b", NOTHING, 0
    ),
    "construct --variant T3 --m 3 --M 1,2,3 --N 1,2": (
        "6412397fa5b16a9e3fa94d49187f59b4b4dba4b2200750f2b5149a42dc10176e", NOTHING, 0
    ),
    "construct --variant T4 --m 5 --M 2,3,4 --N 1,2,4,5": (
        "bbfdf7384b68ba956fa8510e7e9b0221fdfbf773ff1d0f1d84d1780a982b0a82", NOTHING, 0
    ),
    "construct --variant T5 --m 4 --M 2,3,4 --N 1,2,4": (
        "aaf08c336ab7258c455bf4788ebe0dcdf66ea1652e1d59fc55b93369a2235b18", NOTHING, 0
    ),
    "construct --variant T1 --m 6 --M 2,3 --N 4,5 --dump-ring-codewords --dump-gray-codewords": (
        "8961377017cf14fa4d2e4f170d9a93409aabbbdadc259523547c519a7008eb2d", NOTHING, 0
    ),
    "construct --variant T1 --m 6 --M 2,3 --N 4,5 --format json --dump-ring-codewords --dump-gray-codewords": (
        "694fbf3fd69856be3f44788926c4675582c952ac255e7dad8601a1a1833e02e9", NOTHING, 0
    ),
    "analyze --variant T2 --m 5 --M 1,2,3 --N 4": (
        "b8df5cf450d2a39110fa75309e2e7a516864e5ebe5356fe5985484a19ccace05", NOTHING, 0
    ),
    "analyze --variant T5 --m 4 --M 2,3,4 --N 1,2,4 --format json": (
        "f13f921a9d8a36474e0d363043330cafe894428c71b8dba5a53ec53e49ba4028", NOTHING, 0
    ),
    "verify --m 1..3": (
        "1d5b4d7fa83644532ae4f7aa3f3cb2925f2c8641eb357ab4613b830639542950", NOTHING, 0
    ),
    "verify --m 5 --variants T2 --sample 20": (
        "9852d98ac663f083439937e92c596e5aa947a3b8745e162e2e473c12245bc19e", NOTHING, 0
    ),
    "tables": (
        "d5de5f291eff195fe6b69310949a258bbdd2038d4279f644a9456078e8bb3e84", NOTHING, 0
    ),
    "construct --variant T2 --m 9 --M 1,2,3,4,7,8,9 --N 5,6 --format json --dump-ring-codewords --dump-gray-codewords": (
        "d6b682a7b8a234408f7ae7ac342962b4e5d70b1e22648f6558804cb1c1518c44", NOTHING, 0
    ),
    "construct --variant T5 --m 7 --M 1,2 --N 3 --format json --dump-ring-codewords --dump-gray-codewords": (
        "614e74cb33aea3b46902b20309c3b7d76cf3168358e0e6e2c3ce31c5a9176857", NOTHING, 0
    ),
    "analyze --variant T2 --m 12 --M 1,2,3,5,7,9 --N 4 --format json": (
        "23f3024d38b32c1a65c80b58c7df00a849a1b397e133a0867fecb6775123bea6", NOTHING, 0
    ),
    "verify --m 1..3 --format json": (
        "11ba10a6880b34836f574b12e5dee92660a3386415e6f24d10af1c8efefb978e", NOTHING, 0
    ),
}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_outputs(capsys):
    assert set(readme_commands()) <= GOLDEN_OUTPUTS.keys()
    actual = {}
    for command in GOLDEN_OUTPUTS:
        code, out = run(command.split())
        actual[command] = (sha256(out), sha256(capsys.readouterr().err), code)
    assert actual == GOLDEN_OUTPUTS


def test_tables_round_trip():
    _, text = run(["tables"])
    blocks = text.strip().split("\n\n")
    assert len(blocks) == 2
    from icodes import RingElement

    for block, op in zip(blocks, (lambda x, y: x + y, lambda x, y: x * y)):
        lines = block.splitlines()
        header = lines[0].split("|")[1].split()
        assert header == ["0", "a", "b", "c"]
        for line in lines[2:]:
            row_symbol, rest = line.split("|")
            x = RingElement.from_symbol(row_symbol.strip())
            entries = rest.split()
            for y, entry in zip(ELEMENTS, entries):
                assert op(x, y) == RingElement.from_symbol(entry)
