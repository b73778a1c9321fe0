"""The evaluated methods: SlsReuse itself and three comparison methods,
keyword bag-of-words, whole-text embedding, and an intent-summary-only
variant that skips attribute pruning entirely.

`METHODS` maps each method name to how it prepares a query and ranks it;
`method_runner` turns one entry into the runner `run_evaluation` drives.
Every method ranks through `matching.top_k`, so all share the tie rule
(descending score, then ascending function id) and stay deterministic
under deterministic providers.
"""

import time
from collections import Counter
from typing import Callable, Mapping

import numpy as np

from .corpus import Repository
from .embedding import Embedder, embed_intent
from .errors import ValidationError
from .evaluation import QueryCase, QueryRunner, timed_answer
from .extraction import (
    ExtractionProvider,
    RepresentationStore,
    SemanticRepresentation,
    extract,
    summarize_intent,
)
from .matching import (
    CandidateSet,
    Ranking,
    RecommendResult,
    cosine_similarity,
    recommend,
    score_intents,
    top_k,
)
from .normalization import NormalizationTable
from .stemming import STOP_WORDS, stem


def _stem_fixpoint(token: str) -> str:
    # iterate so stems re-stem to themselves; converges in a few passes
    stemmed = stem(token)
    while stemmed != token:
        token, stemmed = stemmed, stem(stemmed)
    return stemmed


def keyword_preprocess(text: str) -> Counter:
    """Lowercase, split on non-alphanumeric boundaries, drop stop words,
    stem. Returns a multiset of stems; re-preprocessing the joined stems
    reproduces the same set."""
    bag: Counter = Counter()
    current: list[str] = []

    def flush():
        if current:
            token = "".join(current)
            if token not in STOP_WORDS:
                stemmed = _stem_fixpoint(token)
                if stemmed not in STOP_WORDS:
                    bag[stemmed] += 1
            current.clear()

    for ch in text.lower():
        if ch.isalnum():
            current.append(ch)
        else:
            flush()
    flush()
    return bag


def build_keyword_index(repo: Repository) -> dict[str, frozenset[str]]:
    """Distinct stems of each function's code+readme text."""
    return {
        fid: frozenset(keyword_preprocess(unit.keyword_text()))
        for fid, unit in repo.units.items()
    }


def rank_token_bag(
    query_stems: frozenset[str] | set[str],
    index: Mapping[str, frozenset[str]],
    k: int,
    query_id: str = "query",
) -> Ranking:
    """Score = distinct query stems present in the function's bag,
    normalized by the query stem count so scores stay in [0, 1]."""
    denominator = max(1, len(query_stems))
    scored = [
        (fid, len(query_stems & stems) / denominator) for fid, stems in index.items()
    ]
    return top_k(query_id, scored, k)


def build_document_index(repo: Repository, embedder: Embedder) -> dict[str, np.ndarray]:
    """Unit-norm embedding of each function's whole textual document
    (name + readme + source)."""
    return {
        fid: embed_intent(unit.document_text(), embedder)
        for fid, unit in repo.units.items()
    }


def rank_document_embeddings(
    query_vector: np.ndarray,
    index: Mapping[str, np.ndarray],
    k: int,
    query_id: str = "query",
) -> Ranking:
    scored = [
        (fid, cosine_similarity(query_vector, vector)) for fid, vector in index.items()
    ]
    return top_k(query_id, scored, k)


def rank_all_intents(
    query_vector: np.ndarray,
    reps: Mapping[str, SemanticRepresentation],
    k: int,
    query_id: str = "query",
) -> RecommendResult:
    """Similarity over every stored intent vector, no pruning."""
    start = time.perf_counter()
    store = RepresentationStore.of(reps)
    scored = score_intents(query_vector, store, store)
    ranking = top_k(query_id, scored, k)
    latency_ms = (time.perf_counter() - start) * 1000.0
    return RecommendResult(
        ranking, CandidateSet(store, np.arange(len(store))), len(scored), latency_ms
    )


# ---------------------------------------------------------------------------
# The evaluated methods
# ---------------------------------------------------------------------------

# Each method builds a (prepare, rank) pair from its inputs: prepare(case)
# turns the query into what rank(case, prepared) scores. Library functions
# are looked up by module-global name when called, so rebinding one (as a
# tracer does) takes effect.


def _slsreuse(k, repository, reps, extractor, embedder, table):
    provider, query_embedder = extractor(), embedder()

    def prepare(case):
        rep = extract(case.id, case.text, provider, table)
        return rep.with_vector(embed_intent(rep.intent_text, query_embedder))

    return prepare, lambda case, rep: recommend(rep, reps, k, case.id).ranking


def _keyword(k, repository, reps, extractor, embedder, table):
    index = build_keyword_index(repository)
    return (
        lambda case: frozenset(keyword_preprocess(case.text)),
        lambda case, stems: rank_token_bag(stems, index, k, case.id),
    )


def _embedding(k, repository, reps, extractor, embedder, table):
    shared = embedder()
    index = build_document_index(repository, shared)
    return (
        lambda case: embed_intent(case.text, shared),
        lambda case, vector: rank_document_embeddings(vector, index, k, case.id),
    )


def _llm_variant(k, repository, reps, extractor, embedder, table):
    provider, query_embedder = extractor(), embedder()

    def prepare(case):
        summary = summarize_intent(case.id, case.text, provider)
        return embed_intent(summary, query_embedder)

    return prepare, lambda case, vector: rank_all_intents(vector, reps, k, case.id).ranking


METHODS = {
    "slsreuse": _slsreuse,
    "keyword": _keyword,
    "embedding": _embedding,
    "llm-variant": _llm_variant,
}


def method_runner(
    method: str,
    k: int,
    repository: Repository,
    reps: Mapping[str, SemanticRepresentation],
    extractor: Callable[[], ExtractionProvider],
    embedder: Callable[[], Embedder],
    table: NormalizationTable,
) -> QueryRunner:
    """The evaluation runner for one method, answering each query with its
    top `k`. `extractor` and `embedder` are factories; a method calls one
    only if it uses that provider, and gets its own instance."""
    if method not in METHODS:
        raise ValidationError(f"unknown method '{method}'")
    prepare, rank = METHODS[method](k, repository, reps, extractor, embedder, table)

    def run(case: QueryCase):
        return timed_answer(lambda: prepare(case), lambda prepared: rank(case, prepared))

    return run
