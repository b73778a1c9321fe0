"""Top-k retrieval metrics and the repetition-aware evaluation loop.

Recall@k and MRR@k are computed with exact rational arithmetic and only
converted to float at the boundary, so hand-derived fractions compare
exactly. Per-query latency is measured in two modes: "cached" covers just
the ranking step (the query representation already exists) and
"inclusive" adds representation/preparation work on top.
"""

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from statistics import fmean
from typing import Callable, Mapping, Sequence

from .errors import (
    ConfigurationError,
    EvaluationError,
    IntegrityError,
    ValidationError,
)
from .extraction import jsonl_lines
from .matching import Ranking

DEFAULT_KS = (1, 5, 10, 15, 20)


@dataclass(frozen=True)
class QueryCase:
    """One evaluation query with its known-correct function."""

    id: str
    text: str
    ground_truth_id: str


def load_query_dataset(path: str | Path) -> list[QueryCase]:
    """Read a JSONL dataset: {"id", "text", "ground_truth_id"} per line."""
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"query dataset not found: {path}")
    cases: list[QueryCase] = []
    line_of: dict[str, int] = {}
    for line_no, line in jsonl_lines(path):
        try:
            row = json.loads(line)
            case = QueryCase(row["id"], row["text"], row["ground_truth_id"])
        except (json.JSONDecodeError, KeyError) as exc:
            raise ConfigurationError(
                f"query dataset line {line_no} is invalid: {exc}"
            ) from exc
        # rankings are kept by query id, so a repeated id would score one
        # case against another's ranking
        first = line_of.setdefault(case.id, line_no)
        if first != line_no:
            raise ConfigurationError(
                f"query dataset lines {first} and {line_no} both hold query '{case.id}'"
            )
        cases.append(case)
    return cases


def _ground_truth_rank(ranking: Ranking, case: QueryCase) -> int | None:
    return ranking.rank_of(case.ground_truth_id)


def _ranks(
    rankings: Mapping[str, Ranking], cases: Sequence[QueryCase]
) -> list[int | None]:
    ranks = []
    for case in cases:
        ranking = rankings.get(case.id)
        if ranking is None:
            raise IntegrityError(f"no ranking recorded for query '{case.id}'")
        ranks.append(_ground_truth_rank(ranking, case))
    return ranks


def recall_at_k(
    rankings: Mapping[str, Ranking],
    cases: Sequence[QueryCase],
    ks: Sequence[int] = DEFAULT_KS,
) -> dict[int, float]:
    """Percentage of cases whose ground truth appears within the top k."""
    if not cases:
        raise ValidationError("recall requires at least one query case")
    ranks = _ranks(rankings, cases)
    out: dict[int, float] = {}
    for k in ks:
        hits = sum(1 for r in ranks if r is not None and r <= k)
        out[k] = float(Fraction(100 * hits, len(cases)))
    return out


def mrr_at_k(
    rankings: Mapping[str, Ranking],
    cases: Sequence[QueryCase],
    ks: Sequence[int] = DEFAULT_KS,
) -> dict[int, float]:
    """Mean reciprocal rank truncated at k; absent ground truth counts 0."""
    if not cases:
        raise ValidationError("MRR requires at least one query case")
    ranks = _ranks(rankings, cases)
    out: dict[int, float] = {}
    for k in ks:
        total = sum(
            (Fraction(1, r) for r in ranks if r is not None and r <= k),
            start=Fraction(0),
        )
        out[k] = float(total / len(cases))
    return out


# ---------------------------------------------------------------------------
# Evaluation loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MethodAnswer:
    """One query answered: the ranking plus the two latency components."""

    ranking: Ranking
    prepare_ms: float
    rank_ms: float


QueryRunner = Callable[[QueryCase], MethodAnswer]


def timed_answer(prepare: Callable[[], object], rank: Callable[[object], Ranking]) -> MethodAnswer:
    """Helper for runners: time the preparation and ranking phases."""
    start = time.perf_counter()
    prepared = prepare()
    mid = time.perf_counter()
    ranking = rank(prepared)
    end = time.perf_counter()
    return MethodAnswer(ranking, (mid - start) * 1000.0, (end - mid) * 1000.0)


@dataclass(frozen=True)
class RepetitionMetrics:
    recall: dict[int, float]
    mrr: dict[int, float]


@dataclass(frozen=True)
class EvalReport:
    """Metrics for one method over one query dataset."""

    method: str
    ks: tuple[int, ...]
    recall: dict[int, float]
    mrr: dict[int, float]
    mean_latency_ms: float            # cached-representation mode
    mean_latency_inclusive_ms: float  # provider-inclusive mode
    repetitions: int
    per_repetition: tuple[RepetitionMetrics, ...]
    per_query_latency_ms: tuple[tuple[float, ...], ...] = field(repr=False)
    per_query_latency_inclusive_ms: tuple[tuple[float, ...], ...] = field(repr=False)

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "ks": list(self.ks),
            "recall": {str(k): v for k, v in self.recall.items()},
            "mrr": {str(k): v for k, v in self.mrr.items()},
            "latency_mode": {
                "cached": self.mean_latency_ms,
                "inclusive": self.mean_latency_inclusive_ms,
            },
            "repetitions": self.repetitions,
            "per_repetition": [
                {
                    "recall": {str(k): v for k, v in rep.recall.items()},
                    "mrr": {str(k): v for k, v in rep.mrr.items()},
                }
                for rep in self.per_repetition
            ],
            "per_repetition_latency_ms": [
                fmean(lat) for lat in self.per_query_latency_ms
            ],
            "per_repetition_latency_inclusive_ms": [
                fmean(lat) for lat in self.per_query_latency_inclusive_ms
            ],
        }


def run_evaluation(
    method: str,
    runner: QueryRunner,
    cases: Sequence[QueryCase],
    ks: Sequence[int] = DEFAULT_KS,
    repetitions: int = 5,
    known_ids: set[str] | None = None,
) -> EvalReport:
    """Run every case `repetitions` times sequentially and aggregate.

    Sequential execution keeps latency measurements free of contention.
    A failure on any case aborts the repetition with the query named.
    """
    if repetitions < 1:
        raise ValidationError("repetitions must be >= 1")
    if not cases:
        raise ValidationError("evaluation requires at least one query case")
    if known_ids is not None:
        missing = [
            f"{c.id} -> {c.ground_truth_id}"
            for c in cases
            if c.ground_truth_id not in known_ids
        ]
        if missing:
            raise IntegrityError(
                "ground truth missing from the evaluated repository: "
                + ", ".join(sorted(missing))
            )

    per_rep: list[RepetitionMetrics] = []
    latencies: list[tuple[float, ...]] = []
    latencies_inclusive: list[tuple[float, ...]] = []
    ks = tuple(ks)
    for _repetition in range(repetitions):
        rankings: dict[str, Ranking] = {}
        rank_ms: list[float] = []
        total_ms: list[float] = []
        for case in cases:
            try:
                answer = runner(case)
            except Exception as exc:
                raise EvaluationError(case.id, exc) from exc
            rankings[case.id] = answer.ranking
            rank_ms.append(answer.rank_ms)
            total_ms.append(answer.prepare_ms + answer.rank_ms)
        per_rep.append(
            RepetitionMetrics(recall_at_k(rankings, cases, ks), mrr_at_k(rankings, cases, ks))
        )
        latencies.append(tuple(rank_ms))
        latencies_inclusive.append(tuple(total_ms))

    return EvalReport(
        method=method,
        ks=ks,
        recall={k: fmean(rep.recall[k] for rep in per_rep) for k in ks},
        mrr={k: fmean(rep.mrr[k] for rep in per_rep) for k in ks},
        mean_latency_ms=fmean(x for lat in latencies for x in lat),
        mean_latency_inclusive_ms=fmean(x for lat in latencies_inclusive for x in lat),
        repetitions=repetitions,
        per_repetition=tuple(per_rep),
        per_query_latency_ms=tuple(latencies),
        per_query_latency_inclusive_ms=tuple(latencies_inclusive),
    )
