"""Intent-aware discovery: multi-level attribute pruning plus similarity
ranking.

Candidates are filtered one attribute level at a time (platforms, then
services, then languages). At each applied level, functions covering every
query element survive as full matches; the rest compete on two minimized
objectives, Jaccard distance and coverage gap, and only the Pareto front
of those partial matches is kept alongside the full matches. Survivors are
ranked by cosine similarity between intent vectors.
"""

import time
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .errors import DimensionMismatchError, IntegrityError, ValidationError
from .extraction import LEVELS, RepresentationStore, SemanticRepresentation


# ---------------------------------------------------------------------------
# Set metrics
# ---------------------------------------------------------------------------

def jaccard_distance(a: set[str] | frozenset[str], b: set[str] | frozenset[str]) -> float:
    """1 - |a & b| / |a | b|, in [0, 1]; two empty sets count as identical."""
    union = len(a | b)
    if union == 0:
        return 0.0
    return (union - len(a & b)) / union


def subset_coverage(q: set[str] | frozenset[str], f: set[str] | frozenset[str]) -> float:
    """|q & f| / |q|: the fraction of required query elements f provides."""
    if not q:
        raise ValidationError("subset coverage requires a non-empty query set")
    return len(q & f) / len(q)


@dataclass(frozen=True)
class ObjectiveVector:
    """Per-level objective pair; both components minimized."""

    jaccard_distance: float
    coverage_gap: float

    def __post_init__(self):
        for value in (self.jaccard_distance, self.coverage_gap):
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"objective component {value!r} outside [0, 1]")


def _pareto_front_pairs(pairs: list[tuple[float, float]]) -> set[int]:
    """Sweep core over (distance, gap) pairs; see pareto_front."""
    n = len(pairs)
    if n == 0:
        return set()
    order = sorted(range(n), key=pairs.__getitem__)
    front: set[int] = set()
    best_gap = float("inf")  # min gap among strictly-closer groups
    idx = 0
    while idx < n:
        distance = pairs[order[idx]][0]
        group = []
        while idx < n and pairs[order[idx]][0] == distance:
            group.append(order[idx])
            idx += 1
        group_min = min(pairs[i][1] for i in group)
        if group_min < best_gap:
            front.update(i for i in group if pairs[i][1] == group_min)
            best_gap = group_min
    return front


def pareto_front(points: list[ObjectiveVector]) -> set[int]:
    """Indices of non-dominated points under strict Pareto dominance.

    Point j dominates i when it is no worse on both objectives and strictly
    better on at least one; duplicate-valued points are all retained. Uses
    a sort-and-sweep over distance groups, O(n log n).
    """
    return _pareto_front_pairs(
        [(p.jaccard_distance, p.coverage_gap) for p in points]
    )


# ---------------------------------------------------------------------------
# Pruning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevelAudit:
    level: str
    applied: bool
    full: int
    pareto: int
    retained: int


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """Survivors as ascending row numbers of a store, plus the per-level
    audit trail."""

    store: RepresentationStore
    rows: np.ndarray
    audit: tuple[LevelAudit, ...] = ()

    def __len__(self) -> int:
        return len(self.rows)

    @cached_property
    def ids(self) -> frozenset[str]:
        """Survivor ids, built on first read."""
        return frozenset(self.store.row_ids[self.rows].tolist())


def prune_level(
    candidates: CandidateSet,
    reps: RepresentationStore,
    query_attr: Iterable[str],
    level: str,
) -> CandidateSet:
    """One pruning level: full matches plus the Pareto front of partials.

    Attribute comparison is case-insensitive; a candidate with an empty
    attribute set scores (1, 1), worst on both objectives. Candidates that
    share a set share its objectives, so the query meets each distinct set
    of the store once and whole sets are kept or dropped. reps must be the
    store the candidates index.
    """
    query = frozenset(term.casefold() for term in query_attr)
    if not query:
        raise ValidationError(f"level '{level}' requires a non-empty query attribute")
    if reps is not candidates.store:
        raise ValidationError("candidates index another representation store")

    query_len = len(query)
    sets = reps.sets[level]
    inter = np.array([len(query & attr) for attr in sets], dtype=np.intp)
    keep_code = inter == query_len
    codes = reps.codes[level][candidates.rows]
    full = keep_code[codes]
    # the distinct sets of the partial candidates, ascending
    partial_codes = np.flatnonzero(np.bincount(codes[~full], minlength=len(sets)))
    # same formulas as jaccard_distance/subset_coverage, one pair per set
    pairs = []
    for code in partial_codes.tolist():
        shared = int(inter[code])
        union = query_len + len(sets[code]) - shared
        pairs.append(((union - shared) / union, (query_len - shared) / query_len))
    keep_code[partial_codes[sorted(_pareto_front_pairs(pairs))]] = True

    retained = candidates.rows[keep_code[codes]]
    n_full = int(np.count_nonzero(full))
    audit = LevelAudit(level, True, n_full, len(retained) - n_full, len(retained))
    return CandidateSet(reps, retained, candidates.audit + (audit,))


def multi_level_prune(
    reps: Mapping[str, SemanticRepresentation],
    query_rep: SemanticRepresentation,
) -> CandidateSet:
    """Apply the pruning levels in order, each consuming the previous
    survivors; a level whose query attribute set is empty is skipped.
    reps that is not a RepresentationStore is converted to one first."""
    store = RepresentationStore.of(reps)
    candidates = CandidateSet(store, np.arange(len(store)))
    for level in LEVELS:
        query_attr = query_rep.attribute_set(level)
        if not query_attr:
            skipped = LevelAudit(level, False, 0, 0, len(candidates))
            candidates = CandidateSet(store, candidates.rows, candidates.audit + (skipped,))
            continue
        candidates = prune_level(candidates, store, query_attr, level)
    return candidates


# ---------------------------------------------------------------------------
# Similarity and ranking
# ---------------------------------------------------------------------------

def cosine_similarity(u: np.ndarray, v: np.ndarray) -> float:
    """Dot product of unit vectors, clamped to [-1, 1] against rounding."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape:
        raise DimensionMismatchError(f"vector shapes differ: {u.shape} vs {v.shape}")
    return float(min(1.0, max(-1.0, float(np.dot(u, v)))))


@dataclass(frozen=True)
class Ranking:
    """Ordered (function id, score) answers for one query."""

    query_id: str
    entries: tuple[tuple[str, float], ...]
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError("k must be >= 1")
        if len(self.entries) > self.k:
            raise ValidationError("ranking longer than its cutoff")
        ids = [fid for fid, _score in self.entries]
        if len(set(ids)) != len(ids):
            raise ValidationError("ranking contains duplicate function ids")
        if any(not -1.0 <= score <= 1.0 for _fid, score in self.entries):
            raise ValidationError("ranking scores must lie in [-1, 1]")
        keys = [(-score, fid) for fid, score in self.entries]
        if any(a > b for a, b in zip(keys, keys[1:])):
            raise ValidationError("ranking entries are not in rank order")

    def rank_of(self, function_id: str) -> int | None:
        """1-based position of a function, or None when absent."""
        for position, (fid, _score) in enumerate(self.entries, start=1):
            if fid == function_id:
                return position
        return None


def score_intents(
    query_vector: np.ndarray,
    reps: Mapping[str, SemanticRepresentation],
    ids: Iterable[str],
) -> list[tuple[str, float]]:
    """One (id, cosine similarity) pair per id, in the order given."""
    scored = []
    for fid in ids:
        vector = reps[fid].intent_vector
        if vector is None:
            raise IntegrityError(f"function '{fid}' has no intent vector")
        scored.append((fid, cosine_similarity(query_vector, vector)))
    return scored


def top_k(query_id: str, scored: Iterable[tuple[str, float]], k: int) -> Ranking:
    """The k best (id, score) pairs by descending score, ties broken by
    ascending id. Ids are unique, so this order is total and the input
    order does not matter."""
    ordered = sorted(scored, key=lambda entry: (-entry[1], entry[0]))
    return Ranking(query_id, tuple(ordered[:k]), k)


@dataclass(frozen=True)
class RecommendResult:
    """Ranking plus the audit data evaluation needs."""

    ranking: Ranking
    candidates: CandidateSet
    similarity_evals: int
    latency_ms: float

    def trace(self, include_latency: bool = False) -> dict:
        """The JSON-able trace document for one query."""
        doc = {
            "query_id": self.ranking.query_id,
            "levels": [
                {
                    "attribute": a.level,
                    "applied": a.applied,
                    "full": a.full,
                    "pareto": a.pareto,
                    "retained": a.retained,
                }
                for a in self.candidates.audit
            ],
            "survivors": len(self.candidates),
            "ranking": [
                {"id": fid, "score": score} for fid, score in self.ranking.entries
            ],
        }
        if include_latency:
            doc["latency_ms"] = self.latency_ms
        return doc


def _score_rows(store: RepresentationStore, rows: np.ndarray, query_vector: np.ndarray) -> np.ndarray:
    """Cosine similarity of each given row, in row order, computed once per
    row. Pruning keeps or drops whole attribute sets, and rows sharing
    their sets are consecutive, so the rows fall into a few runs; each run
    is one pass over a contiguous slice of the matrix. np.vecdot takes the
    same per-row dot product as cosine_similarity, so the scores, and the
    order of tied duplicates, match it exactly (a matrix-vector np.dot
    rounds each row differently depending on its position)."""
    lacking = rows[~store.has_vector[rows]]
    if lacking.size:
        raise IntegrityError(f"function '{min(store.row_ids[lacking])}' has no intent vector")
    scores = np.empty(len(rows))
    run_starts = np.flatnonzero(np.diff(rows, prepend=-2) != 1).tolist()
    for start, end in zip(run_starts, run_starts[1:] + [len(rows)]):
        first = rows[start]
        np.vecdot(store.matrix[first:first + end - start], query_vector, out=scores[start:end])
    return np.clip(scores, -1.0, 1.0, out=scores)


def recommend(
    query_rep: SemanticRepresentation,
    reps: Mapping[str, SemanticRepresentation],
    k: int,
    query_id: str | None = None,
) -> RecommendResult:
    """Prune, score survivors by intent similarity, return the top k.

    Similarity is evaluated once per survivor, never per repository entry.
    Ties break by ascending function id so rankings are reproducible. reps
    that is not a RepresentationStore is converted to one on every call;
    build the store once to answer many queries.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    if query_rep.intent_vector is None:
        raise ValidationError("query representation has no intent vector")

    start = time.perf_counter()
    store = RepresentationStore.of(reps)
    query_vector = np.asarray(query_rep.intent_vector, dtype=np.float64)
    if store.dim is not None and query_vector.shape != (store.dim,):
        raise DimensionMismatchError(
            f"query vector shape {query_vector.shape} does not match the store's ({store.dim},)"
        )
    candidates = multi_level_prune(store, query_rep)
    rows = candidates.rows
    scores = _score_rows(store, rows, query_vector)
    if len(scores) > k:
        # every row scoring at least the k-th best, ties included, goes on
        # to top_k, which orders them by (-score, id)
        keep = scores >= np.partition(scores, len(scores) - k)[len(scores) - k]
        rows, scores = rows[keep], scores[keep]
    scored = zip(store.row_ids[rows].tolist(), scores.tolist())
    ranking = top_k(query_id or query_rep.subject_id, scored, k)
    latency_ms = (time.perf_counter() - start) * 1000.0
    return RecommendResult(ranking, candidates, len(candidates), latency_ms)
