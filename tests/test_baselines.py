from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slsrec.baselines import (
    keyword_preprocess,
    method_runner,
    rank_all_intents,
    rank_document_embeddings,
    rank_token_bag,
)
from slsrec.corpus import FunctionUnit, Repository
from slsrec.embedding import DeterministicEmbedder, embed_intent
from slsrec.errors import ValidationError
from slsrec.evaluation import QueryCase
from slsrec.extraction import FixtureExtractionProvider, summarize_intent
from slsrec.matching import cosine_similarity, recommend
from slsrec.normalization import NormalizationTable
from slsrec.stemming import STOP_WORDS

from conftest import GOLDEN_FUNCTIONS, QUERY_ID, QUERY_TEXT


def make_unit(uid, code, readme=None):
    return FunctionUnit(
        id=uid, name=uid, origin="test", files=((f"{uid}.py", code),),
        readme_text=readme,
    )


def answer(method, text, k, repository=None, embedder=None, reps=None, provider=None,
           query_id="query"):
    """The ranking `slsrec evaluate --method <method>` gives one query."""
    runner = method_runner(
        method, k, repository, reps, lambda: provider, lambda: embedder,
        NormalizationTable(),
    )
    return runner(QueryCase(query_id, text, "unused")).ranking


def variant(text, reps, provider, embedder, k, query_id):
    """The llm-variant method with its audit data: intent summary,
    embedding, then similarity over the whole store."""
    summary = summarize_intent(query_id, text, provider)
    return rank_all_intents(embed_intent(summary, embedder), reps, k, query_id)


def test_method_runner_rejects_unknown_method():
    with pytest.raises(ValidationError, match="unknown method 'bm25'"):
        method_runner("bm25", 5, Repository(), {}, None, None, NormalizationTable())


def test_rankers_reject_k_below_one(golden_reps, golden_query_rep):
    vector = golden_query_rep.intent_vector
    index = {fid: rep.intent_vector for fid, rep in golden_reps.items()}
    for rank in (
        lambda: rank_token_bag(frozenset({"imag"}), {"f": frozenset({"imag"})}, 0),
        lambda: rank_document_embeddings(vector, index, 0),
        lambda: rank_all_intents(vector, golden_reps, 0),
    ):
        with pytest.raises(ValidationError, match="k must be >= 1"):
            rank()


# ---------------------------------------------------------------------------
# keyword_preprocess
# ---------------------------------------------------------------------------

def test_preprocess_documented_example():
    bag = keyword_preprocess("This example demonstrates usage")
    assert set(bag) == {"exampl", "demonstr", "usag"}


def test_preprocess_empty_text():
    assert keyword_preprocess("") == Counter()


def test_preprocess_collapses_inflections():
    # golden value from the shipped stemmer
    assert keyword_preprocess("use used using") == Counter({"us": 3})


def test_preprocess_strips_stop_words_and_punctuation():
    bag = keyword_preprocess("The function, which was triggered by an event!")
    assert set(bag) == {"function", "trigger", "event"}
    assert not set(bag) & STOP_WORDS


@given(
    st.lists(
        st.sampled_from(
            ["the", "example", "demonstrates", "usage", "uploading", "images",
             "buckets", "was", "deployable", "agree", "willing", "tagging"]
        ),
        max_size=12,
    )
)
@settings(max_examples=200)
def test_preprocess_idempotent_on_rejoined_output(words):
    first = keyword_preprocess(" ".join(words))
    second = keyword_preprocess(" ".join(first.elements()))
    assert set(first) == set(second)


# ---------------------------------------------------------------------------
# keyword method
# ---------------------------------------------------------------------------

@pytest.fixture
def keyword_repo():
    return Repository(
        {
            "fn-a": make_unit(
                "fn-a",
                "def lambda_handler(event, context):\n"
                "    image = fetch_image(event)\n"
                "    labels = detect_labels(image)\n"
                "    tag_object(event, labels)\n",
                readme="Tags uploaded images with detected labels.",
            ),
            "fn-b": make_unit(
                "fn-b",
                "def lambda_handler(event, context):\n"
                "    rows = scan_table()\n"
                "    return rows\n",
                readme="Lists records from a database table.",
            ),
            "fn-c": make_unit(
                "fn-c",
                "def lambda_handler(event, context):\n"
                "    publish(event)\n",
                readme="Publishes events to a topic.",
            ),
        },
        version=1,
    )


def test_keyword_rank_all_tokens_in_one_function(keyword_repo):
    ranking = answer("keyword", "detect labels in uploaded images", 3, keyword_repo)
    assert ranking.entries[0][0] == "fn-a"
    assert ranking.entries[0][1] == 1.0


def test_keyword_rank_orders_by_match_count(keyword_repo):
    # "records" and "table" hit fn-b twice; "topic" hits fn-c once
    ranking = answer("keyword", "records table topic", 3, keyword_repo)
    assert [fid for fid, _ in ranking.entries][:2] == ["fn-b", "fn-c"]
    scores = [score for _, score in ranking.entries]
    assert scores == sorted(scores, reverse=True)
    assert all(0.0 <= s <= 1.0 for s in scores)


def test_keyword_rank_truncates_to_k(keyword_repo):
    assert len(answer("keyword", "events", 1, keyword_repo).entries) == 1


# ---------------------------------------------------------------------------
# embedding method
# ---------------------------------------------------------------------------

def test_embedding_rank_identical_text_wins():
    text = "resize uploaded images into preview thumbnails"
    # a unit whose whole document text equals the query text
    unit = FunctionUnit(id="match", name=text, origin="t", files=(("f.py", ""),))
    repo = Repository(
        {"match": unit, "other": make_unit("other", "completely different body")}, 1
    )
    embedder = DeterministicEmbedder(dim=64)
    ranking = answer("embedding", text, 2, repo, embedder)
    assert ranking.entries[0][0] == "match"
    assert ranking.entries[0][1] == pytest.approx(1.0, abs=1e-9)


def test_embedding_rank_matches_exhaustive_recompute():
    texts = {
        "f1": "tags images with labels detected by a vision service",
        "f2": "stores customer records in a key value table",
        "f3": "transcodes uploaded videos into streaming formats",
        "f4": "sends alerts from monitoring topics to webhooks",
        "f5": "counts words in submitted documents",
    }
    repo = Repository(
        {fid: make_unit(fid, "pass", readme=text) for fid, text in texts.items()}, 1
    )
    embedder = DeterministicEmbedder(dim=128)
    query = "detect labels in images and tag them"
    ranking = answer("embedding", query, 5, repo, embedder)

    qv = embed_intent(query, embedder)
    expected = sorted(
        (
            (fid, cosine_similarity(qv, embed_intent(repo.units[fid].document_text(), embedder)))
            for fid in texts
        ),
        key=lambda e: (-e[1], e[0]),
    )
    assert list(ranking.entries) == expected


def test_embedding_rank_empty_repository():
    ranking = answer("embedding", "anything", 5, Repository(), DeterministicEmbedder(dim=16))
    assert ranking.entries == ()


# ---------------------------------------------------------------------------
# llm-variant method
# ---------------------------------------------------------------------------

@pytest.fixture
def variant_fixture_file(tmp_path, golden_reps):
    import json

    rows = [
        {"id": row["id"], "intent_text": row["intent_text"],
         "platforms": row["platforms"], "services": row["services"],
         "languages": row["languages"]}
        for row in GOLDEN_FUNCTIONS
    ]
    rows.append({"id": QUERY_ID, "intent_text": QUERY_TEXT,
                 "platforms": [], "services": [], "languages": []})
    path = tmp_path / "fixtures.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return path


def test_variant_pool_is_whole_store(golden_reps, shared_embedder, variant_fixture_file):
    provider = FixtureExtractionProvider(variant_fixture_file)
    result = variant(QUERY_TEXT, golden_reps, provider, shared_embedder, 5, QUERY_ID)
    assert result.similarity_evals == len(golden_reps)
    assert len(result.candidates.ids) == len(golden_reps)
    assert result.ranking == answer(
        "llm-variant", QUERY_TEXT, 5, reps=golden_reps, provider=provider,
        embedder=shared_embedder, query_id=QUERY_ID,
    )


def test_variant_equals_recommend_when_pruning_is_noop(
    golden_reps, shared_embedder, variant_fixture_file
):
    from slsrec.extraction import extract
    from slsrec.normalization import NormalizationTable

    provider = FixtureExtractionProvider(variant_fixture_file)
    # the fixture gives this query no attributes, so every level is skipped
    query_rep = extract(QUERY_ID, QUERY_TEXT, provider, NormalizationTable())
    query_rep = query_rep.with_vector(
        embed_intent(query_rep.intent_text, shared_embedder)
    )
    full = recommend(query_rep, golden_reps, 12, QUERY_ID)
    exhaustive = variant(QUERY_TEXT, golden_reps, provider, shared_embedder, 12, QUERY_ID)
    assert exhaustive.ranking == full.ranking
    assert full.similarity_evals == exhaustive.similarity_evals


def test_pruned_recommend_never_evaluates_more_than_variant(
    golden_reps, golden_query_rep, shared_embedder, variant_fixture_file
):
    provider = FixtureExtractionProvider(variant_fixture_file)
    pruned = recommend(golden_query_rep, golden_reps, 10, QUERY_ID)
    exhaustive = variant(QUERY_TEXT, golden_reps, provider, shared_embedder, 10, QUERY_ID)
    assert pruned.similarity_evals <= exhaustive.similarity_evals
