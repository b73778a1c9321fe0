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
from typing import Iterable, Mapping

import numpy as np

from .errors import DimensionMismatchError, IntegrityError, ValidationError
from .extraction import SemanticRepresentation

LEVELS = ("platforms", "services", "languages")


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


@dataclass(frozen=True)
class CandidateSet:
    """Survivor ids plus the per-level audit trail."""

    ids: frozenset[str]
    audit: tuple[LevelAudit, ...] = ()


def prune_level(
    candidates: CandidateSet,
    reps: Mapping[str, SemanticRepresentation],
    query_attr: Iterable[str],
    level: str,
) -> CandidateSet:
    """One pruning level: full matches plus the Pareto front of partials.

    Attribute comparison is case-insensitive; a candidate with an empty
    attribute set scores (1, 1), worst on both objectives.
    """
    query = frozenset(term.casefold() for term in query_attr)
    if not query:
        raise ValidationError(f"level '{level}' requires a non-empty query attribute")

    query_len = len(query)
    full: list[str] = []
    partial_ids: list[str] = []
    partial_pairs: list[tuple[float, float]] = []
    for fid in candidates.ids:
        rep = reps.get(fid)
        if rep is None:
            raise IntegrityError(f"candidate '{fid}' is not in the representation store")
        attr = rep._folded[level]  # bypasses accessor validation in the hot loop
        # same formulas as jaccard_distance/subset_coverage, one intersection
        inter = len(query & attr)
        if inter == query_len:
            full.append(fid)
        else:
            union = query_len + len(attr) - inter
            partial_ids.append(fid)
            partial_pairs.append(
                ((union - inter) / union, (query_len - inter) / query_len)
            )

    kept = _pareto_front_pairs(partial_pairs)
    retained = frozenset(full) | {partial_ids[i] for i in kept}
    audit = LevelAudit(level, True, len(full), len(kept), len(retained))
    return CandidateSet(retained, candidates.audit + (audit,))


def multi_level_prune(
    reps: Mapping[str, SemanticRepresentation],
    query_rep: SemanticRepresentation,
) -> CandidateSet:
    """Apply the pruning levels in order, each consuming the previous
    survivors; a level whose query attribute set is empty is skipped."""
    candidates = CandidateSet(frozenset(reps))
    for level in LEVELS:
        query_attr = query_rep.attribute_set(level)
        if not query_attr:
            skipped = LevelAudit(level, False, 0, 0, len(candidates.ids))
            candidates = CandidateSet(candidates.ids, candidates.audit + (skipped,))
            continue
        candidates = prune_level(candidates, reps, query_attr, level)
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
            "survivors": len(self.candidates.ids),
            "ranking": [
                {"id": fid, "score": score} for fid, score in self.ranking.entries
            ],
        }
        if include_latency:
            doc["latency_ms"] = self.latency_ms
        return doc


def recommend(
    query_rep: SemanticRepresentation,
    reps: Mapping[str, SemanticRepresentation],
    k: int,
    query_id: str | None = None,
) -> RecommendResult:
    """Prune, score survivors by intent similarity, return the top k.

    Similarity is evaluated once per survivor, never per repository entry.
    Ties break by ascending function id so rankings are reproducible.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    if query_rep.intent_vector is None:
        raise ValidationError("query representation has no intent vector")

    start = time.perf_counter()
    candidates = multi_level_prune(reps, query_rep)
    # id order is the store's load order; scoring in it, rather than in the
    # set's hash order, keeps memory access sequential and is measurably faster
    scored = score_intents(query_rep.intent_vector, reps, sorted(candidates.ids))
    ranking = top_k(query_id or query_rep.subject_id, scored, k)
    latency_ms = (time.perf_counter() - start) * 1000.0
    return RecommendResult(ranking, candidates, len(scored), latency_ms)
