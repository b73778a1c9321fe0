"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see per-criterion
output. Tolerances and budgets are pinned in the assertions.
"""

import json
import random
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from slsrec.baselines import rank_all_intents
from slsrec.cli import main as cli_main
from slsrec.embedding import DeterministicEmbedder, embed_intent
from slsrec.errors import (
    MalformedResponseError,
    ProviderExhaustedError,
    ProviderPermanentError,
)
from slsrec.evaluation import QueryCase, mrr_at_k, recall_at_k
from slsrec.extraction import (
    FixtureExtractionProvider,
    Provenance,
    RepresentationStore,
    SemanticRepresentation,
    extract,
    parse_extraction,
    summarize_intent,
)
from slsrec.gateway import GatewayClient, ProviderConfig
from slsrec.matching import (
    LEVELS,
    ObjectiveVector,
    Ranking,
    jaccard_distance,
    multi_level_prune,
    pareto_front,
    recommend,
    subset_coverage,
)
from slsrec.normalization import NormalizationTable

from conftest import (
    QUERY_ID,
    QUERY_TEXT,
    TARGET_ID,
    write_demo_corpus,
)
from stubserver import StubServer
from test_extraction import CASES_DIR


def announce(number, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number} [{name}]: PASS{suffix}")


def make_rep(uid, platforms=(), services=(), languages=(), vector=None, intent="x"):
    return SemanticRepresentation(
        subject_id=uid,
        intent_text=intent,
        intent_vector=vector,
        platforms=frozenset(platforms),
        services=frozenset(services),
        languages=frozenset(languages),
        provenance=Provenance("fixture", "fixture", 0.0),
    )


# ---------------------------------------------------------------------------
# 1. Set-metric suite
# ---------------------------------------------------------------------------

def test_criterion_01_set_metrics():
    start = time.perf_counter()

    # documented example cases first
    assert jaccard_distance({"AWS S3"}, {"AWS S3"}) == 0.0
    assert jaccard_distance({"AWS S3"}, {"AWS Rekognition"}) == 1.0
    assert jaccard_distance({"AWS S3", "AWS Rekognition"}, {"AWS S3"}) == 0.5
    assert jaccard_distance(set(), set()) == 0.0
    q = {"AWS S3", "AWS Rekognition"}
    assert subset_coverage(q, {"AWS S3", "AWS Rekognition", "AWS DynamoDB"}) == 1.0
    assert subset_coverage(q, {"AWS S3"}) == 0.5
    assert subset_coverage({"AWS S3"}, set()) == 0.0

    rng = random.Random(20240810)
    universe = list(range(16))
    violations = 0
    for _ in range(10_000):
        a = frozenset(rng.sample(universe, rng.randint(0, 8)))
        b = frozenset(rng.sample(universe, rng.randint(0, 8)))
        inter, union = len(a & b), len(a | b)
        d = jaccard_distance(a, b)
        expected = 0.0 if union == 0 else float(Fraction(union - inter, union))
        if d != expected or d != jaccard_distance(b, a) or not 0.0 <= d <= 1.0:
            violations += 1
        if a:
            c = subset_coverage(a, b)
            if c != float(Fraction(len(a & b), len(a))):
                violations += 1
            if (c == 1.0) != (a <= b) or not 0.0 <= c <= 1.0:
                violations += 1
    elapsed = time.perf_counter() - start
    assert violations == 0
    assert elapsed < 5.0
    announce(1, "set metrics", f"10000 pairs, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. Pareto oracle equivalence
# ---------------------------------------------------------------------------

def numpy_dominance_front(arr: np.ndarray) -> set[int]:
    """O(n^2) pairwise strict-dominance oracle."""
    front = set()
    distance, gap = arr[:, 0], arr[:, 1]
    for i in range(len(arr)):
        dominated = np.any(
            (distance <= distance[i])
            & (gap <= gap[i])
            & ((distance < distance[i]) | (gap < gap[i]))
        )
        if not dominated:
            front.add(i)
    return front


def test_criterion_02_pareto_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(20240811)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 201))
        arr = rng.uniform(0.0, 1.0, size=(n, 2))
        points = [ObjectiveVector(float(j), float(g)) for j, g in arr]
        if pareto_front(points) != numpy_dominance_front(arr):
            mismatches += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 30.0
    announce(2, "pareto oracle", f"1000 instances, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3 + 4. Pruning oracle equivalence and soundness
# ---------------------------------------------------------------------------

def synthetic_corpora(trials=500, seed=424242):
    rng = random.Random(seed)
    out = []
    for _ in range(trials):
        n = rng.randint(1, 100)
        vocab = {
            level: [f"{level[0]}{i}" for i in range(rng.randint(2, 8))]
            for level in LEVELS
        }
        reps = {}
        for i in range(n):
            attrs = {
                level: frozenset(
                    rng.sample(vocab[level], rng.randint(0, min(3, len(vocab[level]))))
                )
                for level in LEVELS
            }
            reps[f"f{i:03d}"] = make_rep(f"f{i:03d}", **attrs)
        query_attrs = {
            level: (
                frozenset()
                if rng.random() < 0.3
                else frozenset(
                    rng.sample(vocab[level], rng.randint(1, min(3, len(vocab[level]))))
                )
            )
            for level in LEVELS
        }
        out.append((reps, make_rep("q", **query_attrs)))
    return out


def straight_line_prune(reps, query_rep):
    """Independent transliteration of the multi-level pruning loop."""
    pool = set(reps)
    for level in ("platforms", "services", "languages"):
        query = {t.casefold() for t in getattr(query_rep, level)}
        if not query:
            continue
        full = set()
        partial = []
        for fid in pool:
            attr = {t.casefold() for t in getattr(reps[fid], level)}
            inter = len(query & attr)
            union = len(query | attr)
            j = 1 - inter / union
            s = inter / len(query)
            if s == 1:
                full.add(fid)
            else:
                partial.append((fid, (j, 1 - s)))
        keep = set(full)
        for fid, m in partial:
            dominated = any(
                m2[0] <= m[0] and m2[1] <= m[1] and (m2[0] < m[0] or m2[1] < m[1])
                for _f, m2 in partial
            )
            if not dominated:
                keep.add(fid)
        pool = keep
    return pool


@pytest.fixture(scope="module")
def pruning_corpora():
    return synthetic_corpora()


def test_criterion_03_pruning_oracle(pruning_corpora):
    start = time.perf_counter()
    mismatches = sum(
        1
        for reps, query in pruning_corpora
        if multi_level_prune(reps, query).ids != straight_line_prune(reps, query)
    )
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 60.0
    announce(3, "pruning oracle", f"{len(pruning_corpora)} corpora, {elapsed:.2f}s")


def test_criterion_04_pruning_soundness(pruning_corpora):
    failures = 0
    for reps, query in pruning_corpora:
        survivors = multi_level_prune(reps, query).ids
        for fid, rep in reps.items():
            fully_covered = all(
                not query.attribute_set(level)
                or {t.casefold() for t in query.attribute_set(level)}
                <= {t.casefold() for t in rep.attribute_set(level)}
                for level in LEVELS
            )
            if fully_covered and fid not in survivors:
                failures += 1
    assert failures == 0
    announce(4, "pruning soundness", f"{len(pruning_corpora)} corpora, 100% retained")


# ---------------------------------------------------------------------------
# 5. Worked-example golden test
# ---------------------------------------------------------------------------

def test_criterion_05_worked_example(
    golden_reps, golden_query_fixture_file, shared_embedder
):
    start = time.perf_counter()
    assert len(golden_reps) >= 11  # target + at least 10 distractors
    provider = FixtureExtractionProvider(golden_query_fixture_file)
    query_rep = extract(QUERY_ID, QUERY_TEXT, provider, NormalizationTable())
    query_rep = query_rep.with_vector(
        embed_intent(query_rep.intent_text, shared_embedder)
    )
    result = recommend(query_rep, golden_reps, 10, QUERY_ID)
    elapsed = time.perf_counter() - start
    assert result.ranking.entries[0][0] == TARGET_ID
    assert elapsed < 1.0
    announce(
        5, "worked example",
        f"rank 1 = {TARGET_ID}, score {result.ranking.entries[0][1]:.4f}, "
        f"{elapsed * 1000:.0f}ms",
    )


# ---------------------------------------------------------------------------
# 6. Metric hand-check
# ---------------------------------------------------------------------------

def test_criterion_06_metric_hand_check():
    planted = [1, 2, 3, 4, 5, 7, 10, 12, 15, 20, None, None]
    ks = (1, 5, 10, 15, 20)
    cases = [QueryCase(f"q{i:02d}", "text", f"gt{i:02d}") for i in range(len(planted))]

    rankings = {}
    for case, rank in zip(cases, planted):
        ids = [f"pad-{case.id}-{j:02d}" for j in range(25)]
        if rank is not None:
            ids.insert(rank - 1, case.ground_truth_id)
        entries = tuple((fid, 1.0 - j * 1e-3) for j, fid in enumerate(ids[:25]))
        rankings[case.id] = Ranking(case.id, entries, 25)

    recall = recall_at_k(rankings, cases, ks)
    mrr = mrr_at_k(rankings, cases, ks)

    n = Fraction(len(planted))
    for k in ks:
        hits = [r for r in planted if r is not None and r <= k]
        assert recall[k] == float(100 * Fraction(len(hits)) / n)
        assert mrr[k] == float(sum(Fraction(1, r) for r in hits) / n)
    recall_series = [recall[k] for k in ks]
    mrr_series = [mrr[k] for k in ks]
    assert recall_series == sorted(recall_series)
    assert mrr_series == sorted(mrr_series)
    announce(6, "metric hand-check", "12 planted queries, exact rational match")


# ---------------------------------------------------------------------------
# 7. Pruning efficiency
# ---------------------------------------------------------------------------

def test_criterion_07_pruning_efficiency(tmp_path):
    rng = random.Random(5)
    embedder = DeterministicEmbedder()
    other_platforms = ["azure functions", "google cloud functions", "apache openwhisk"]
    other_services = [f"svc-{c}" for c in "cdefghij"]
    vocabulary = ["upload", "resize", "detect", "store", "publish", "count",
                  "parse", "alert"]

    reps = {}
    for i in range(500):
        fid = f"fn-{i:03d}"
        platforms = {"aws lambda"} if i % 5 < 2 else {rng.choice(other_platforms)}
        if i < 15:
            services = {"svc-a", "svc-b"}
        elif i < 20:
            services = {"svc-a"}
        else:
            services = {rng.choice(other_services)}
        text = f"task {i} " + " ".join(rng.sample(vocabulary, 3))
        reps[fid] = make_rep(
            fid, platforms, services, {"python"},
            vector=embed_intent(text, embedder), intent=text,
        )
    sharing = sum(1 for r in reps.values() if "aws lambda" in r.platforms)
    assert sharing == 200  # 40% of 500 share the query's platform
    # built once and shared by both methods, as `slsrec evaluate` does
    reps = RepresentationStore(reps)

    query_text = "detect labels and upload results"
    query = make_rep(
        "q", {"aws lambda"}, {"svc-a", "svc-b"}, (),
        vector=embed_intent(query_text, embedder), intent=query_text,
    )

    fixture = tmp_path / "query.jsonl"
    fixture.write_text(json.dumps({
        "id": "q", "intent_text": query_text,
        "platforms": [], "services": [], "languages": [],
    }) + "\n")
    provider = FixtureExtractionProvider(fixture)

    def llm_variant():
        # the prune-free method end to end: intent summary, embedding, scan
        summary = summarize_intent("q", query_text, provider)
        return rank_all_intents(embed_intent(summary, embedder), reps, 10, "q")

    pruned = recommend(query, reps, 10, "q")
    exhaustive = llm_variant()
    assert exhaustive.similarity_evals == 500
    assert pruned.similarity_evals == len(pruned.candidates.ids)
    assert pruned.similarity_evals < exhaustive.similarity_evals

    pruned_ms = min(recommend(query, reps, 10, "q").latency_ms for _ in range(9))
    variant_samples = []
    for _ in range(9):
        begin = time.perf_counter()
        llm_variant()
        variant_samples.append((time.perf_counter() - begin) * 1000.0)
    variant_ms = min(variant_samples)
    assert pruned_ms < variant_ms  # directional only
    announce(
        7, "pruning efficiency",
        f"evals {pruned.similarity_evals} vs 500; "
        f"latency {pruned_ms:.3f}ms vs {variant_ms:.3f}ms",
    )


# ---------------------------------------------------------------------------
# 8. Extraction robustness
# ---------------------------------------------------------------------------

def test_criterion_08_extraction_robustness():
    expected = json.loads((CASES_DIR / "expected.json").read_text())
    assert len(expected) >= 12
    mismatches = []
    for name, expect in sorted(expected.items()):
        response = (CASES_DIR / f"{name}.txt").read_text()
        try:
            raw = parse_extraction(response)
        except MalformedResponseError as err:
            if expect.get("error") != err.missing_label:
                mismatches.append(name)
            continue
        if "error" in expect:
            mismatches.append(name)
            continue
        if (
            raw.intent_summary != expect["intent_summary"]
            or raw.platforms_raw != frozenset(expect["platforms"])
            or raw.services_raw != frozenset(expect["services"])
            or raw.languages_raw != frozenset(expect["languages"])
        ):
            mismatches.append(name)
    assert mismatches == []
    announce(8, "extraction robustness", f"{len(expected)} golden responses")


# ---------------------------------------------------------------------------
# 9. Determinism through the CLI
# ---------------------------------------------------------------------------

def test_criterion_09_cli_determinism(
    tmp_path, golden_store_file, golden_query_fixture_file, demo_query_dataset,
    demo_fixture_file,
):
    runner = CliRunner()

    query_args = [
        "query", QUERY_TEXT, "--reprs", str(golden_store_file),
        "--extractor", "fixture", "--fixture-file", str(golden_query_fixture_file),
        "--embedder", "deterministic", "--query-id", QUERY_ID, "--trace",
    ]
    first = runner.invoke(cli_main, query_args)
    second = runner.invoke(cli_main, query_args)
    assert first.exit_code == second.exit_code == 0, first.output
    assert first.stdout_bytes == second.stdout_bytes

    manifest = write_demo_corpus(tmp_path)
    repo = tmp_path / "repo.json"
    store = tmp_path / "reprs.jsonl"
    assert runner.invoke(
        cli_main, ["ingest", "--manifest", manifest, "--out", str(repo)]
    ).exit_code == 0
    assert runner.invoke(cli_main, [
        "extract", "--repo", str(repo), "--reprs", str(store),
        "--extractor", "fixture", "--fixture-file", str(demo_fixture_file),
        "--embedder", "deterministic",
    ]).exit_code == 0
    result = runner.invoke(cli_main, [
        "evaluate", "--dataset", str(demo_query_dataset), "--repo", str(repo),
        "--reprs", str(store), "--extractor", "fixture",
        "--fixture-file", str(demo_fixture_file), "--embedder", "deterministic",
        "--method", "slsreuse", "--repetitions", "5", "--output", "json",
    ])
    assert result.exit_code == 0, result.output
    [report] = json.loads(result.stdout)["methods"]
    blocks = report["per_repetition"]
    assert len(blocks) == 5 and all(block == blocks[0] for block in blocks)
    announce(9, "determinism", "byte-identical traces, 5 identical repetitions")


# ---------------------------------------------------------------------------
# 10. Gateway contract
# ---------------------------------------------------------------------------

def test_criterion_10_gateway_contract(monkeypatch):
    monkeypatch.setenv("SLSREC_ACCEPT_KEY", "k")

    def client_for(base_url, **overrides):
        defaults = dict(
            base_url=base_url, api_key_env="SLSREC_ACCEPT_KEY",
            model_name="stub", timeout_s=5.0, max_retries=3, max_inflight=4,
        )
        defaults.update(overrides)
        sleeps = []
        client = GatewayClient(
            ProviderConfig(**defaults),
            backoff_base_s=0.001, backoff_cap_s=0.01, sleep=sleeps.append,
        )
        return client, sleeps

    # retry + backoff
    with StubServer() as server:
        server.script = [{"status": 429}, {"status": 429}]
        client, sleeps = client_for(server.base_url)
        assert client.chat_complete("p") == "ok"
        assert client.telemetry.retries_total == 2
        assert sleeps == sorted(sleeps) and len(sleeps) == 2

    # error taxonomy
    with StubServer() as server:
        server.script = [{"status": 400}]
        client, _ = client_for(server.base_url)
        with pytest.raises(ProviderPermanentError):
            client.chat_complete("p")
        assert len(server.requests) == 1
    with StubServer() as server:
        server.script = [{"status": 503}] * 10
        client, _ = client_for(server.base_url, max_retries=2)
        with pytest.raises(ProviderExhaustedError):
            client.chat_complete("p")
        assert len(server.requests) == 3
    with StubServer() as server:
        server.script = [{"delay_s": 0.5}]
        client, _ = client_for(server.base_url, timeout_s=0.05)
        assert client.chat_complete("p") == "ok"
        assert client.telemetry.retries_total == 1

    # bounded in-flight under 50 concurrent submissions
    with StubServer(handler_delay_s=0.01) as server:
        client, _ = client_for(server.base_url, max_inflight=4)
        threads = [
            threading.Thread(target=client.chat_complete, args=("p",))
            for _ in range(50)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(server.requests) == 50
        assert server.peak_active <= 4
    announce(10, "gateway contract", "retry, taxonomy, 50-way bounded in-flight")
