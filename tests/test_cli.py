import json
from fractions import Fraction

import pytest
from click.testing import CliRunner

from slsrec.cli import main

from conftest import QUERY_TEXT, TARGET_ID, write_demo_corpus


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, [str(a) for a in args])


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

def test_ingest_summary_and_exit_code(runner, tmp_path):
    manifest = write_demo_corpus(tmp_path)
    out = tmp_path / "repo.json"
    result = invoke(runner, "ingest", "--manifest", manifest, "--out", out)
    assert result.exit_code == 0, result.output
    assert "kept=3 rejected=2" in result.output
    assert out.is_file()


def test_ingest_missing_manifest_exits_2(runner, tmp_path):
    result = invoke(
        runner, "ingest", "--manifest", tmp_path / "nope.jsonl",
        "--out", tmp_path / "repo.json",
    )
    assert result.exit_code == 2


def test_ingest_json_reports_rejections(runner, tmp_path):
    manifest = write_demo_corpus(tmp_path)
    out = tmp_path / "repo.json"
    result = invoke(
        runner, "ingest", "--manifest", manifest, "--out", out, "--output", "json"
    )
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert doc["kept"] == 3 and doc["rejected"] == 2
    rules = {r["id"]: r["rule"] for r in doc["rejections"]}
    assert rules == {"demo-hello": "trivial", "demo-bench": "benchmark"}


# ---------------------------------------------------------------------------
# extract
# ---------------------------------------------------------------------------

@pytest.fixture
def ingested_repo(runner, tmp_path):
    manifest = write_demo_corpus(tmp_path)
    repo = tmp_path / "repo.json"
    result = invoke(runner, "ingest", "--manifest", manifest, "--out", repo)
    assert result.exit_code == 0
    return repo


def extract_args(repo, store, fixture_file):
    return [
        "extract", "--repo", repo, "--reprs", store,
        "--extractor", "fixture", "--fixture-file", fixture_file,
        "--embedder", "deterministic",
    ]


def test_extract_writes_one_line_per_unit(runner, ingested_repo, demo_fixture_file, tmp_path):
    store = tmp_path / "reprs.jsonl"
    result = invoke(runner, *extract_args(ingested_repo, store, demo_fixture_file))
    assert result.exit_code == 0, result.output
    assert "extracted=3 skipped=0 failed=0" in result.output
    lines = [l for l in store.read_text().splitlines() if l.strip()]
    assert len(lines) == 3


def test_extract_rerun_is_idempotent(runner, ingested_repo, demo_fixture_file, tmp_path):
    store = tmp_path / "reprs.jsonl"
    invoke(runner, *extract_args(ingested_repo, store, demo_fixture_file))
    before = store.read_bytes()
    result = invoke(runner, *extract_args(ingested_repo, store, demo_fixture_file))
    assert result.exit_code == 0
    assert "extracted=0 skipped=3 failed=0" in result.output
    assert store.read_bytes() == before


def test_extract_unreachable_remote_exits_1(runner, ingested_repo, tmp_path, monkeypatch):
    monkeypatch.setenv("SLSREC_API_KEY", "k")
    store = tmp_path / "reprs.jsonl"
    result = invoke(
        runner, "extract", "--repo", ingested_repo, "--reprs", store,
        "--extractor", "remote", "--embedder", "deterministic",
        "--endpoint", "http://127.0.0.1:9", "--max-retries", 0,
    )
    assert result.exit_code == 1
    assert "failed demo-" in result.output
    assert "failed=3" in result.output


def test_json_mode_keeps_stdout_pure(runner, ingested_repo, tmp_path, monkeypatch):
    monkeypatch.setenv("SLSREC_API_KEY", "k")
    store = tmp_path / "reprs.jsonl"
    result = invoke(
        runner, "extract", "--repo", ingested_repo, "--reprs", store,
        "--extractor", "remote", "--embedder", "deterministic",
        "--endpoint", "http://127.0.0.1:9", "--max-retries", 0,
        "--output", "json",
    )
    assert result.exit_code == 1
    doc = json.loads(result.stdout)  # stdout is exactly one JSON document
    assert doc["failed"] == 3
    assert "failed demo-" in result.stderr


# ---------------------------------------------------------------------------
# query
# ---------------------------------------------------------------------------

def query_args(store, fixture_file, *extra):
    return [
        "query", QUERY_TEXT, "--reprs", store,
        "--extractor", "fixture", "--fixture-file", fixture_file,
        "--embedder", "deterministic", "--query-id", "q-s3-tagger",
        *extra,
    ]


def test_query_ranks_target_first(runner, golden_store_file, golden_query_fixture_file):
    result = invoke(runner, *query_args(golden_store_file, golden_query_fixture_file))
    assert result.exit_code == 0, result.output
    ranked_lines = [l for l in result.stdout.splitlines() if l.strip().startswith("1.")]
    assert ranked_lines and TARGET_ID in ranked_lines[0]


def test_query_k_zero_is_usage_error(runner, golden_store_file, golden_query_fixture_file):
    result = invoke(
        runner, *query_args(golden_store_file, golden_query_fixture_file), "--k", 0
    )
    assert result.exit_code == 2


def test_query_json_trace_schema(runner, golden_store_file, golden_query_fixture_file):
    result = invoke(
        runner,
        *query_args(golden_store_file, golden_query_fixture_file),
        "--output", "json",
    )
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert set(doc) == {"query_id", "levels", "survivors", "ranking"}
    assert doc["ranking"][0]["id"] == TARGET_ID
    assert doc["survivors"] == 4
    assert [lvl["applied"] for lvl in doc["levels"]] == [True, True, False]


def test_query_trace_is_byte_identical_across_runs(
    runner, golden_store_file, golden_query_fixture_file
):
    args = query_args(golden_store_file, golden_query_fixture_file, "--trace")
    first = invoke(runner, *args)
    second = invoke(runner, *args)
    assert first.exit_code == second.exit_code == 0
    assert first.stdout_bytes == second.stdout_bytes


def test_query_timing_adds_latency(runner, golden_store_file, golden_query_fixture_file):
    result = invoke(
        runner,
        *query_args(golden_store_file, golden_query_fixture_file),
        "--output", "json", "--timing",
    )
    doc = json.loads(result.stdout)
    assert "latency_ms" in doc and doc["latency_ms"] >= 0.0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

@pytest.fixture
def evaluation_setup(runner, ingested_repo, demo_fixture_file, tmp_path, demo_query_dataset):
    store = tmp_path / "reprs.jsonl"
    result = invoke(runner, *extract_args(ingested_repo, store, demo_fixture_file))
    assert result.exit_code == 0
    return {
        "repo": ingested_repo,
        "store": store,
        "dataset": demo_query_dataset,
        "fixtures": demo_fixture_file,
    }


def evaluate_args(setup, *extra):
    return [
        "evaluate", "--dataset", setup["dataset"], "--repo", setup["repo"],
        "--reprs", setup["store"], "--extractor", "fixture",
        "--fixture-file", setup["fixtures"], "--embedder", "deterministic",
        *extra,
    ]


def test_evaluate_metrics_match_hand_computation(runner, evaluation_setup):
    # planted outcome on the demo corpus: ranks 1, 2, 1
    result = invoke(
        runner,
        *evaluate_args(
            evaluation_setup, "--method", "slsreuse",
            "--k", 1, "--k", 5, "--repetitions", 2, "--output", "json",
        ),
    )
    assert result.exit_code == 0, result.output
    doc = json.loads(result.stdout)
    [report] = doc["methods"]
    assert report["recall"]["1"] == float(Fraction(200, 3))
    assert report["recall"]["5"] == 100.0
    assert report["mrr"]["1"] == float(Fraction(2, 3))
    assert report["mrr"]["5"] == float(Fraction(5, 6))


def test_evaluate_all_methods_renders_grid(runner, evaluation_setup):
    result = invoke(
        runner,
        *evaluate_args(
            evaluation_setup, "--method", "all", "--k", 5, "--repetitions", 1
        ),
    )
    assert result.exit_code == 0, result.output
    for method in ("slsreuse", "keyword", "embedding", "llm-variant"):
        assert method in result.output
    assert "Recall@k" in result.output and "MRR@k" in result.output


def test_evaluate_five_repetitions_are_identical(runner, evaluation_setup, tmp_path):
    report_path = tmp_path / "report.json"
    result = invoke(
        runner,
        *evaluate_args(
            evaluation_setup, "--method", "slsreuse", "--repetitions", 5,
            "--report", report_path,
        ),
    )
    assert result.exit_code == 0, result.output
    doc = json.loads(report_path.read_text())
    [report] = doc["methods"]
    blocks = report["per_repetition"]
    assert len(blocks) == 5
    assert all(block == blocks[0] for block in blocks)


def test_evaluate_keyword_needs_no_fixture_file(runner, evaluation_setup):
    # the keyword method never builds an extractor, so the fixture
    # extractor's file is not required
    args = evaluate_args(evaluation_setup, "--method", "keyword", "--repetitions", 1)
    at = args.index("--fixture-file")
    del args[at:at + 2]
    result = invoke(runner, *args)
    assert result.exit_code == 0, result.output
    assert "keyword" in result.output


def test_evaluate_unknown_ground_truth_fails(runner, evaluation_setup, tmp_path):
    dataset = tmp_path / "bad_queries.jsonl"
    dataset.write_text(
        json.dumps({"id": "qx", "text": "anything", "ground_truth_id": "ghost"}) + "\n"
    )
    setup = dict(evaluation_setup, dataset=dataset)
    result = invoke(runner, *evaluate_args(setup, "--method", "keyword"))
    assert result.exit_code == 1
    assert "ghost" in result.output
