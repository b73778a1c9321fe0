import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slsrec.embedding import DeterministicEmbedder, embed_intent
from slsrec.errors import DimensionMismatchError, IntegrityError, ValidationError
from slsrec.extraction import Provenance, RepresentationStore, SemanticRepresentation
from slsrec.matching import (
    LEVELS,
    CandidateSet,
    ObjectiveVector,
    Ranking,
    cosine_similarity,
    jaccard_distance,
    multi_level_prune,
    pareto_front,
    prune_level,
    recommend,
    subset_coverage,
)

from conftest import QUERY_ID, TARGET_ID
from reference_matching import reference_recommend


def make_rep(uid, platforms=(), services=(), languages=(), intent="x", vector=None):
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
# Set metrics
# ---------------------------------------------------------------------------

def test_jaccard_examples():
    assert jaccard_distance({"AWS S3"}, {"AWS S3"}) == 0.0
    assert jaccard_distance({"AWS S3"}, {"AWS Rekognition"}) == 1.0
    assert jaccard_distance({"AWS S3", "AWS Rekognition"}, {"AWS S3"}) == 0.5
    assert jaccard_distance(set(), set()) == 0.0


def test_coverage_examples():
    q = {"AWS S3", "AWS Rekognition"}
    assert subset_coverage(q, {"AWS S3", "AWS Rekognition", "AWS DynamoDB"}) == 1.0
    assert subset_coverage(q, {"AWS S3"}) == 0.5
    assert subset_coverage({"AWS S3"}, set()) == 0.0
    with pytest.raises(ValidationError):
        subset_coverage(set(), {"AWS S3"})


_SETS = st.sets(st.integers(min_value=0, max_value=12), max_size=8)


@given(_SETS, _SETS)
def test_jaccard_bounds_and_symmetry(a, b):
    d = jaccard_distance(a, b)
    assert 0.0 <= d <= 1.0
    assert d == jaccard_distance(b, a)
    assert (d == 0.0) == (a == b)


@given(_SETS.filter(lambda s: s), _SETS)
def test_coverage_bounds_and_subset_rule(q, f):
    c = subset_coverage(q, f)
    assert 0.0 <= c <= 1.0
    assert (c == 1.0) == (q <= f)


# ---------------------------------------------------------------------------
# Pareto front
# ---------------------------------------------------------------------------

def brute_force_front(points):
    front = set()
    for i, p in enumerate(points):
        dominated = any(
            q.jaccard_distance <= p.jaccard_distance
            and q.coverage_gap <= p.coverage_gap
            and (q.jaccard_distance < p.jaccard_distance or q.coverage_gap < p.coverage_gap)
            for q in points
        )
        if not dominated:
            front.add(i)
    return front


def test_pareto_documented_example():
    points = [
        ObjectiveVector(0.2, 0.0),
        ObjectiveVector(0.5, 0.5),
        ObjectiveVector(0.1, 0.6),
    ]
    assert pareto_front(points) == {0, 2}
    assert brute_force_front(points) == {0, 2}


def test_pareto_single_point_and_duplicates():
    assert pareto_front([ObjectiveVector(0.4, 0.4)]) == {0}
    triple = [ObjectiveVector(0.3, 0.3)] * 3
    assert pareto_front(triple) == {0, 1, 2}
    assert pareto_front([]) == set()


def test_pareto_bounds_validation():
    with pytest.raises(ValidationError):
        ObjectiveVector(-0.1, 0.0)
    with pytest.raises(ValidationError):
        ObjectiveVector(0.0, 1.5)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=1, allow_nan=False),
            st.floats(min_value=0, max_value=1, allow_nan=False),
        ),
        max_size=60,
    )
)
@settings(max_examples=300)
def test_pareto_matches_brute_force(raw_points):
    points = [ObjectiveVector(j, g) for j, g in raw_points]
    front = pareto_front(points)
    assert front == brute_force_front(points)
    if points:
        assert front, "front must be non-empty for non-empty input"
    # no retained point strictly dominated by another retained point
    for i in front:
        for j in front:
            p, q = points[i], points[j]
            assert not (
                q.jaccard_distance <= p.jaccard_distance
                and q.coverage_gap <= p.coverage_gap
                and (q.jaccard_distance < p.jaccard_distance
                     or q.coverage_gap < p.coverage_gap)
            )


# ---------------------------------------------------------------------------
# prune_level / multi_level_prune
# ---------------------------------------------------------------------------

def prune_all(reps, query_attr, level):
    """prune_level over every function of a store built from reps."""
    store = RepresentationStore(reps)
    return prune_level(CandidateSet(store, np.arange(len(store))), store, query_attr, level)


def test_prune_level_keeps_worst_point_partial_when_nothing_dominates():
    reps = {
        "f1": make_rep("f1", platforms={"AWS Lambda"}),
        "f2": make_rep("f2", platforms={"Azure Functions"}),
        "f3": make_rep("f3", platforms={"AWS Lambda", "Apache OpenWhisk"}),
    }
    out = prune_all(reps, {"AWS Lambda"}, "platforms")
    assert out.ids == {"f1", "f2", "f3"}
    audit = out.audit[-1]
    assert (audit.full, audit.pareto, audit.retained) == (2, 1, 3)


def test_prune_level_superset_is_full_match():
    reps = {
        "f1": make_rep("f1", platforms={"AWS Lambda"}),
        "f2": make_rep("f2", platforms={"Azure Functions"}),
        "f4": make_rep("f4", platforms={"AWS Lambda", "Azure Functions"}),
    }
    out = prune_all(reps, {"AWS Lambda"}, "platforms")
    assert out.ids == {"f1", "f2", "f4"}
    assert out.audit[-1].full == 2


def test_prune_level_all_full_matches_is_identity():
    reps = {f"f{i}": make_rep(f"f{i}", services={"AWS S3"}) for i in range(4)}
    out = prune_all(reps, {"AWS S3"}, "services")
    assert out.ids == frozenset(reps)
    assert out.audit[-1].pareto == 0


def test_prune_level_dominated_partials_die():
    reps = {
        "half": make_rep("half", services={"AWS S3"}),
        "nothing": make_rep("nothing", services={"AWS DynamoDB"}),
        "empty": make_rep("empty"),
    }
    query = {"AWS S3", "AWS Rekognition"}
    out = prune_all(reps, query, "services")
    assert out.ids == {"half"}


def test_prune_level_is_case_insensitive():
    reps = {"f": make_rep("f", platforms={"aws lambda"})}
    out = prune_all(reps, {"AWS Lambda"}, "platforms")
    assert out.ids == {"f"}
    assert out.audit[-1].full == 1


def test_prune_level_unknown_candidate():
    store = RepresentationStore({"f": make_rep("f", platforms={"AWS Lambda"})})
    with pytest.raises(IntegrityError, match="ghost"):
        prune_level(CandidateSet(store, store.rows_of({"ghost"})), store, {"AWS Lambda"},
                    "platforms")


def test_prune_level_rejects_candidates_of_another_store():
    reps = {"f": make_rep("f", platforms={"AWS Lambda"})}
    candidates = CandidateSet(RepresentationStore(reps), np.arange(1))
    with pytest.raises(ValidationError, match="another representation store"):
        prune_level(candidates, RepresentationStore(reps), {"AWS Lambda"}, "platforms")


def test_multi_level_prune_skips_empty_levels():
    reps = {f"f{i}": make_rep(f"f{i}", platforms={f"P{i}"}) for i in range(5)}
    query = make_rep("q")
    out = multi_level_prune(reps, query)
    assert out.ids == frozenset(reps)
    assert [a.applied for a in out.audit] == [False, False, False]


def straight_line_prune(reps, query_rep):
    """Independent re-implementation of the multi-level pruning loop."""
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


def random_corpus(rng, n, vocab_size=6):
    vocab = {
        "platforms": [f"P{i}" for i in range(vocab_size)],
        "services": [f"C{i}" for i in range(vocab_size)],
        "languages": [f"L{i}" for i in range(vocab_size)],
    }
    reps = {}
    for i in range(n):
        attrs = {
            level: frozenset(rng.sample(vocab[level], rng.randint(0, 3)))
            for level in LEVELS
        }
        reps[f"f{i}"] = make_rep(f"f{i}", **attrs)
    query_attrs = {
        level: (
            frozenset()
            if rng.random() < 0.3
            else frozenset(rng.sample(vocab[level], rng.randint(1, 3)))
        )
        for level in LEVELS
    }
    query = make_rep("q", **query_attrs)
    return reps, query


def test_multi_level_prune_matches_straight_line_oracle():
    rng = random.Random(99)
    for _trial in range(60):
        reps, query = random_corpus(rng, rng.randint(1, 25))
        ours = multi_level_prune(reps, query).ids
        oracle = straight_line_prune(reps, query)
        assert ours == oracle


def test_full_coverage_functions_always_survive():
    rng = random.Random(7)
    for _trial in range(40):
        reps, query = random_corpus(rng, rng.randint(1, 25))
        survivors = multi_level_prune(reps, query).ids
        for fid, rep in reps.items():
            covered = all(
                not query.attribute_set(level)
                or subset_coverage(
                    {t.casefold() for t in query.attribute_set(level)},
                    {t.casefold() for t in rep.attribute_set(level)},
                )
                == 1.0
                for level in LEVELS
            )
            if covered:
                assert fid in survivors


def test_survivor_sets_shrink_monotonically():
    rng = random.Random(13)
    for _trial in range(40):
        reps, query = random_corpus(rng, rng.randint(1, 25))
        audit = multi_level_prune(reps, query).audit
        sizes = [len(reps)] + [a.retained for a in audit]
        assert all(late <= early for early, late in zip(sizes, sizes[1:]))


def test_skipped_level_neutrality():
    rng = random.Random(21)
    for _trial in range(30):
        reps, query = random_corpus(rng, rng.randint(1, 20))
        if query.platforms:
            continue
        survivors = multi_level_prune(reps, query).ids
        # levels with empty query attributes change nothing: re-run with the
        # platform level's inputs stripped from every function
        stripped = {
            fid: make_rep(fid, services=rep.services, languages=rep.languages)
            for fid, rep in reps.items()
        }
        assert multi_level_prune(stripped, query).ids == survivors


# ---------------------------------------------------------------------------
# cosine similarity and Ranking
# ---------------------------------------------------------------------------

def test_cosine_identity_and_orthogonal():
    u = np.zeros(8)
    u[0] = 1.0
    v = np.zeros(8)
    v[1] = 1.0
    assert cosine_similarity(u, u) == 1.0
    assert cosine_similarity(u, v) == 0.0
    assert cosine_similarity(u, -u) == -1.0


def test_cosine_clamps_rounding():
    vector = np.full(384, 1.0) / np.sqrt(384)
    assert -1.0 <= cosine_similarity(vector, vector) <= 1.0


def test_cosine_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        cosine_similarity(np.ones(3), np.ones(4))


def test_ranking_validation():
    with pytest.raises(ValidationError):
        Ranking("q", (("a", 0.5), ("b", 0.9)), 5)  # out of order
    with pytest.raises(ValidationError):
        Ranking("q", (("a", 0.5), ("a", 0.5)), 5)  # duplicate id
    with pytest.raises(ValidationError):
        Ranking("q", (("b", 0.5), ("a", 0.5)), 5)  # tie not by ascending id
    with pytest.raises(ValidationError):
        Ranking("q", (("a", 3.0),), 5)  # score outside [-1, 1]
    with pytest.raises(ValidationError):
        Ranking("q", (), 0)


# ---------------------------------------------------------------------------
# recommend
# ---------------------------------------------------------------------------

def test_recommend_worked_example(golden_reps, golden_query_rep):
    result = recommend(golden_query_rep, golden_reps, 10, QUERY_ID)
    assert result.ranking.entries[0][0] == TARGET_ID
    assert len(result.candidates.ids) == 4
    assert result.similarity_evals == 4
    applied = [a for a in result.candidates.audit if a.applied]
    assert [a.level for a in applied] == ["platforms", "services"]
    for audit in applied:
        assert audit.retained == audit.full + audit.pareto


def test_recommend_k_larger_than_survivors(golden_reps, golden_query_rep):
    result = recommend(golden_query_rep, golden_reps, 500, QUERY_ID)
    assert len(result.ranking.entries) == len(result.candidates.ids)


def test_recommend_tie_breaks_by_ascending_id():
    embedder = DeterministicEmbedder(dim=16)
    vector = embed_intent("same text", embedder)
    reps = {
        "zeta": make_rep("zeta", vector=vector, intent="same text"),
        "alpha": make_rep("alpha", vector=vector, intent="same text"),
    }
    query = make_rep("q", vector=vector, intent="same text")
    result = recommend(query, reps, 5)
    assert [fid for fid, _ in result.ranking.entries] == ["alpha", "zeta"]


def test_recommend_is_deterministic(golden_reps, golden_query_rep):
    one = recommend(golden_query_rep, golden_reps, 10, QUERY_ID)
    two = recommend(golden_query_rep, golden_reps, 10, QUERY_ID)
    assert json.dumps(one.trace()) == json.dumps(two.trace())
    assert one.ranking == two.ranking


def test_recommend_empty_repository(golden_query_rep):
    result = recommend(golden_query_rep, {}, 5, QUERY_ID)
    assert result.ranking.entries == ()
    assert result.similarity_evals == 0


def test_recommend_requires_query_vector(golden_reps):
    with pytest.raises(ValidationError):
        recommend(make_rep("q"), golden_reps, 5)


def test_recommend_rejects_query_vector_of_other_length(golden_reps, golden_query_rep):
    short = golden_query_rep.with_vector(np.eye(8)[0])
    with pytest.raises(DimensionMismatchError, match=r"\(8,\)"):
        recommend(short, golden_reps, 5)


def test_store_rejects_vectors_of_differing_length():
    reps = {"a": make_rep("a", vector=np.eye(4)[0]), "b": make_rep("b", vector=np.eye(3)[0])}
    with pytest.raises(DimensionMismatchError, match="differ in shape"):
        RepresentationStore(reps)


def test_recommend_missing_survivor_vector(golden_query_rep):
    reps = {"fx": make_rep("fx", platforms={"AWS Lambda"},
                           services={"AWS S3", "AWS Rekognition"})}
    with pytest.raises(IntegrityError, match="fx"):
        recommend(golden_query_rep, reps, 5)


def test_trace_shape(golden_reps, golden_query_rep):
    trace = recommend(golden_query_rep, golden_reps, 3, QUERY_ID).trace()
    assert set(trace) == {"query_id", "levels", "survivors", "ranking"}
    assert all(
        set(level) == {"attribute", "applied", "full", "pareto", "retained"}
        for level in trace["levels"]
    )
    timed = recommend(golden_query_rep, golden_reps, 3, QUERY_ID).trace(
        include_latency=True
    )
    assert "latency_ms" in timed


# ---------------------------------------------------------------------------
# The representation store against the per-candidate reference
# ---------------------------------------------------------------------------

def test_store_layout(golden_reps):
    store = RepresentationStore(golden_reps)
    assert list(store) == sorted(golden_reps)
    assert {**store}.keys() == golden_reps.keys()
    assert not store.matrix.flags.writeable
    for fid, rep in golden_reps.items():
        row = store.matrix[store.rows_of([fid])[0]]
        assert np.shares_memory(store[fid].intent_vector, row)
        np.testing.assert_array_equal(store[fid].intent_vector, rep.intent_vector)
    # rows sort by the codes of the level with the fewest distinct sets first
    first = min(LEVELS, key=lambda level: len(store.sets[level]))
    assert np.all(np.diff(store.codes[first]) >= 0)
    for level in LEVELS:
        folded = [store.sets[level][code] for code in store.codes[level]]
        assert folded == [
            frozenset(t.casefold() for t in getattr(golden_reps[fid], level))
            for fid in store.row_ids
        ]


# case variants of one term fold together
_TERMS = {
    "platforms": ["AWS Lambda", "aws lambda", "Azure Functions", "AZURE FUNCTIONS",
                  "Google Cloud Functions"],
    "services": ["AWS S3", "aws s3", "AWS DynamoDB", "AWS Rekognition", "aws rekognition",
                 "Google Firestore"],
    "languages": ["Python", "python", "JavaScript", "Go"],
}


def _subset(level, mask):
    return frozenset(t for i, t in enumerate(_TERMS[level]) if mask >> i & 1)


# one function: a bitmask choosing its terms at each level, and which pool
# vector it has
_FUNCTION = st.tuples(
    *(st.integers(0, 2 ** len(_TERMS[level]) - 1) for level in LEVELS), st.integers(0, 5)
)


@st.composite
def stores_and_queries(draw):
    """0-60 functions whose vectors come from a pool of 1-6, so that tied
    scores are common, plus a query that may leave any level empty."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.standard_normal((draw(st.integers(1, 6)), 8))
    pool /= np.linalg.norm(pool, axis=1, keepdims=True)

    def rep(fid, function):
        *masks, vector = function
        attrs = {level: _subset(level, mask) for level, mask in zip(LEVELS, masks)}
        return make_rep(fid, vector=pool[vector % len(pool)], **attrs)

    reps = {}
    size = draw(st.integers(0, 60))
    for i, function in enumerate(draw(st.lists(_FUNCTION, min_size=size, max_size=size))):
        fid = f"f{i * 37 % 100:02d}"  # insertion order is not id order
        reps[fid] = rep(fid, function)
    *masks, vector = draw(_FUNCTION)
    skipped = draw(st.tuples(st.booleans(), st.booleans(), st.booleans()))
    query = rep("q", (*(0 if skip else m for skip, m in zip(skipped, masks)), vector))
    return reps, query, draw(st.integers(1, 10) | st.integers(1, 70))


@given(stores_and_queries())
@settings(max_examples=300, deadline=None)
def test_store_matches_per_candidate_reference(case):
    reps, query, k = case
    ids, audit, entries = reference_recommend(query, reps, k)
    result = recommend(query, reps, k, "q")
    assert result.candidates.audit == audit
    assert result.candidates.ids == ids
    assert result.similarity_evals == len(ids)
    assert [fid for fid, _ in result.ranking.entries] == [fid for fid, _ in entries]
    for (_fid, got), (_same, want) in zip(result.ranking.entries, entries):
        assert abs(got - want) <= 1e-12
