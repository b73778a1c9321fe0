"""Serverless function reuse recommender.

Pipeline: ingest a function corpus, extract quadruple semantic
representations (intent plus platform/service/language attribute sets),
then answer natural-language task queries by multi-level Pareto pruning
followed by intent-similarity ranking. Baseline methods and a Recall@k /
MRR@k / latency evaluation harness are included.
"""

__version__ = "0.1.0"

from .corpus import FunctionUnit, Repository, batch_add, filter_unit, ingest_corpus
from .embedding import DeterministicEmbedder, RemoteEmbedder, embed_intent
from .extraction import (
    PromptConfig,
    RawExtraction,
    RepresentationStore,
    SemanticRepresentation,
    build_prompt,
    extract,
    normalize,
    parse_extraction,
)
from .matching import (
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
from .normalization import NormalizationTable

__all__ = [
    "CandidateSet",
    "DeterministicEmbedder",
    "FunctionUnit",
    "NormalizationTable",
    "ObjectiveVector",
    "PromptConfig",
    "Ranking",
    "RawExtraction",
    "RemoteEmbedder",
    "Repository",
    "RepresentationStore",
    "SemanticRepresentation",
    "batch_add",
    "build_prompt",
    "cosine_similarity",
    "embed_intent",
    "extract",
    "filter_unit",
    "ingest_corpus",
    "jaccard_distance",
    "multi_level_prune",
    "normalize",
    "parse_extraction",
    "pareto_front",
    "prune_level",
    "recommend",
    "subset_coverage",
]
