import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

import slsrec
from slsrec.cli import EMBED_BATCH, main
from slsrec.corpus import FunctionUnit, Repository, save
from slsrec.embedding import RemoteEmbedder, embed_intent
from slsrec.extraction import (
    FixtureExtractionProvider,
    extract,
    save_representations,
    sidecar_dir,
)
from slsrec.gateway import GatewayClient, ProviderConfig
from slsrec.normalization import NormalizationTable

from conftest import QUERY_TEXT, TARGET_ID, write_demo_corpus
from stubserver import StubServer


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


def _file_ids(store):
    paths = [store, *sorted(sidecar_dir(store).iterdir())]
    return {str(p): (p.stat().st_ino, p.stat().st_mtime_ns) for p in paths}


def test_noop_extract_writes_nothing(runner, ingested_repo, demo_fixture_file, tmp_path):
    store = tmp_path / "reprs.jsonl"
    invoke(runner, *extract_args(ingested_repo, store, demo_fixture_file))
    before = _file_ids(store)
    assert len(before) == 4  # the store, vectors.npy, meta.json, SHA256SUMS
    result = invoke(runner, *extract_args(ingested_repo, store, demo_fixture_file))
    assert "extracted=0 skipped=3 failed=0" in result.output
    assert _file_ids(store) == before


# ---------------------------------------------------------------------------
# extract: batched embedding against a remote provider
# ---------------------------------------------------------------------------

DIM = 384


@pytest.fixture
def batch_setup(tmp_path, monkeypatch):
    """Write a repository of n units and a fixture file answering them;
    returns (repo path, fixture path, units)."""
    monkeypatch.setenv("SLSREC_API_KEY", "k")

    def build(n):
        units = {
            f"fn-{i:03d}": FunctionUnit(
                id=f"fn-{i:03d}", name=f"unit {i}", origin="test",
                files=(("handler.py", f"def handler(event, context):\n    return {i}\n"),),
            )
            for i in range(n)
        }
        repo = tmp_path / "repo.json"
        save(Repository(units=units, version=1), repo)
        fixtures = tmp_path / "fixtures.jsonl"
        fixtures.write_text("".join(
            json.dumps({"id": fid, "intent_text": f"intent of {fid} " + "x" * i,
                        "platforms": ["AWS Lambda"], "services": [], "languages": ["Python"]})
            + "\n"
            for i, fid in enumerate(units)
        ), encoding="utf-8")
        return repo, fixtures, units

    return build


def remote_extract(runner, repo, store, fixtures, server):
    return invoke(
        runner, "extract", "--repo", repo, "--reprs", store,
        "--extractor", "fixture", "--fixture-file", fixtures,
        "--embedder", "remote", "--endpoint", server.base_url, "--max-retries", 0,
    )


def per_text_store(path, units, fixtures, server):
    """The store built with one embed_intent call (one request) per text."""
    provider = FixtureExtractionProvider(fixtures)
    embedder = RemoteEmbedder(GatewayClient(ProviderConfig(base_url=server.base_url)))
    reps = []
    for fid, unit in units.items():
        rep = extract(fid, unit.code_text(), provider, NormalizationTable())
        reps.append(rep.with_vector(embed_intent(rep.intent_text, embedder)))
    save_representations(path, reps)
    return path.read_bytes()


def embed_inputs(server):
    return [len(payload["input"]) for path, payload in server.requests
            if path.endswith("/embeddings")]


def test_extract_sends_one_embedding_request_per_batch(runner, batch_setup, tmp_path):
    repo, fixtures, units = batch_setup(40)
    store = tmp_path / "reprs.jsonl"
    with StubServer(embed_dim=DIM) as server:
        result = remote_extract(runner, repo, store, fixtures, server)
        assert result.exit_code == 0, result.output
        assert "extracted=40 skipped=0 failed=0" in result.output
        assert EMBED_BATCH == 16 and embed_inputs(server) == [16, 16, 8]
        expected = per_text_store(tmp_path / "expected.jsonl", units, fixtures, server)
        assert embed_inputs(server)[3:] == [1] * 40
    assert store.read_bytes() == expected


class ZeroVectorFor(StubServer):
    def __init__(self, text):
        super().__init__(embed_dim=DIM)
        self.text = text

    def vector_for(self, text):
        return [0.0] * DIM if text == self.text else super().vector_for(text)


def test_extract_zero_vector_fails_only_its_unit(runner, batch_setup, tmp_path):
    repo, fixtures, units = batch_setup(20)
    store = tmp_path / "reprs.jsonl"
    with ZeroVectorFor("intent of fn-007 " + "x" * 7) as server:
        result = remote_extract(runner, repo, store, fixtures, server)
        assert embed_inputs(server) == [16, 4]
    assert result.exit_code == 1
    assert "extracted=19 skipped=0 failed=1" in result.output
    assert "failed fn-007: provider returned a degenerate" in result.output
    rows = [json.loads(line)["id"] for line in store.read_text().splitlines()]
    assert rows == sorted(set(units) - {"fn-007"})


def test_extract_short_batch_answer_falls_back_to_one_text_per_request(
    runner, batch_setup, tmp_path
):
    repo, fixtures, units = batch_setup(10)
    store = tmp_path / "reprs.jsonl"
    with StubServer(embed_dim=DIM) as server:
        server.script = [{"body": {"data": [{"embedding": [1.0] * DIM}] * 9}}]
        result = remote_extract(runner, repo, store, fixtures, server)
        assert result.exit_code == 0, result.output
        assert "extracted=10 skipped=0 failed=0" in result.output
        assert embed_inputs(server) == [10] + [1] * 10
        expected = per_text_store(tmp_path / "expected.jsonl", units, fixtures, server)
    assert store.read_bytes() == expected


def test_offline_providers_do_not_import_requests(golden_store_file, golden_query_fixture_file):
    script = (
        "import sys\n"
        "import slsrec.cli\n"
        "imported = 'requests' in sys.modules\n"
        "slsrec.cli.main.main(args=sys.argv[1:], standalone_mode=False)\n"
        "print(imported, 'requests' in sys.modules)\n"
    )
    src = str(Path(slsrec.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    args = [str(a) for a in query_args(golden_store_file, golden_query_fixture_file)]
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env, check=True)
    assert TARGET_ID in proc.stdout
    assert proc.stdout.splitlines()[-1] == "False False"


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


@pytest.mark.parametrize("k", [3, 10, 50])
def test_query_trace_is_byte_identical_from_jsonl_and_sidecar(
    runner, golden_store_file, golden_query_fixture_file, k
):
    args = query_args(golden_store_file, golden_query_fixture_file, "--trace", "--k", k)
    shutil.rmtree(sidecar_dir(golden_store_file))
    parsed = invoke(runner, *args)  # parses the JSONL and writes the sidecar
    assert (sidecar_dir(golden_store_file) / "SHA256SUMS").is_file()
    cached = invoke(runner, *args)
    assert parsed.exit_code == cached.exit_code == 0
    assert parsed.stdout_bytes == cached.stdout_bytes


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
