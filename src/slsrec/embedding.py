"""Intent-embedding providers and the shared normalization wrapper.

Two interchangeable providers: a remote embedding endpoint (see gateway)
and a deterministic offline embedder that projects hashed token counts
through seeded pseudo-random directions. The offline embedder exists so
the whole pipeline is testable without network access; only relative
cosine ordering matters to the matching logic.
"""

import hashlib
import logging
from typing import Protocol

import numpy as np

from .errors import (
    DimensionMismatchError,
    EngineError,
    IntegrityError,
    ProviderPermanentError,
    ValidationError,
)

logger = logging.getLogger(__name__)

DEFAULT_DIM = 384


class Embedder(Protocol):
    """Anything that turns text into a fixed-dimension vector."""

    name: str
    dim: int

    def embed(self, text: str) -> np.ndarray: ...

    def embed_many(self, texts: list[str]) -> list[np.ndarray]: ...


class DeterministicEmbedder:
    """Seeded random projection of token hash counts.

    The vector for a text is the count-weighted sum of per-token direction
    vectors, where each direction is drawn from a PRNG seeded by
    (seed, sha256(token)). Output depends only on the input text and the
    seed, never on the process or platform.
    """

    name = "deterministic"

    def __init__(self, dim: int = DEFAULT_DIM, seed: int = 7, max_chars: int = 100_000):
        if dim < 1:
            raise ValidationError("embedding dimension must be >= 1")
        self.dim = dim
        self.seed = seed
        self.max_chars = max_chars
        self._token_cache: dict[str, np.ndarray] = {}

    def _token_direction(self, token: str) -> np.ndarray:
        vec = self._token_cache.get(token)
        if vec is None:
            digest = hashlib.sha256(token.encode("utf-8")).digest()
            entropy = int.from_bytes(digest[:8], "big")
            rng = np.random.default_rng([self.seed, entropy])
            vec = rng.standard_normal(self.dim)
            self._token_cache[token] = vec
        return vec

    def embed(self, text: str) -> np.ndarray:
        if len(text) > self.max_chars:
            logger.warning(
                "embedding input truncated from %d to %d chars",
                len(text), self.max_chars,
            )
            text = text[: self.max_chars]
        tokens = _tokenize(text)
        if not tokens:
            # no alphanumeric content; hash the raw text as a single token
            tokens = {text: 1}
        acc = np.zeros(self.dim)
        for token, count in tokens.items():
            acc += count * self._token_direction(token)
        return acc

    def embed_many(self, texts: list[str]) -> list[np.ndarray]:
        return [self.embed(text) for text in texts]


def _tokenize(text: str) -> dict[str, int]:
    counts: dict[str, int] = {}
    current: list[str] = []
    for ch in text.lower():
        if ch.isalnum():
            current.append(ch)
        elif current:
            token = "".join(current)
            counts[token] = counts.get(token, 0) + 1
            current = []
    if current:
        token = "".join(current)
        counts[token] = counts.get(token, 0) + 1
    return counts


class RemoteEmbedder:
    """Embedding via a remote endpoint; see gateway.GatewayClient."""

    name = "remote"

    def __init__(self, client, dim: int = DEFAULT_DIM):
        self.client = client
        self.dim = dim

    def embed(self, text: str) -> np.ndarray:
        return self.embed_many([text])[0]

    def embed_many(self, texts: list[str]) -> list[np.ndarray]:
        """One embed_texts call: a request per client batch of texts."""
        return [np.asarray(v, dtype=float) for v in self.client.embed_texts(list(texts))]


# a batch answer the provider got wrong; its texts are retried one by one
_BAD_BATCH = (ProviderPermanentError, IntegrityError, DimensionMismatchError)


def _check_text(intent_text: str) -> None:
    if not intent_text or not intent_text.strip():
        raise ValidationError("intent text must be non-empty")


def _unit_vector(vector, dim: int) -> np.ndarray:
    vector = np.asarray(vector, dtype=float)
    if vector.shape != (dim,):
        raise DimensionMismatchError(
            f"provider returned dimension {vector.shape}, expected ({dim},)"
        )
    norm = float(np.linalg.norm(vector))
    if norm == 0.0 or not np.isfinite(norm):
        raise ValidationError("provider returned a degenerate (zero/non-finite) vector")
    return vector / norm


def embed_intent(intent_text: str, embedder: Embedder) -> np.ndarray:
    """Embed one intent summary and re-normalize to unit Euclidean norm.

    Raises ValidationError for empty text and DimensionMismatchError when
    the provider's vector does not match its configured dimension.
    """
    _check_text(intent_text)
    return _unit_vector(embedder.embed(intent_text), embedder.dim)


def embed_intents(
    intent_texts: list[str], embedder: Embedder
) -> list[np.ndarray | EngineError]:
    """embed_intent for many texts through one embed_many call.

    Returns one result per text, in order: its unit vector, bit-identical
    to embed_intent's, or the EngineError for that text. An empty text
    fails in its own slot and is not sent. When the batch answer is bad
    (a permanent rejection, a wrong vector count or dimension), each text
    is retried alone, so only the text at fault fails; any other error,
    such as retries exhausted on transport failures, fails every text.
    """
    results: list[np.ndarray | EngineError] = [None] * len(intent_texts)
    sent: list[int] = []
    for i, text in enumerate(intent_texts):
        try:
            _check_text(text)
        except ValidationError as exc:
            results[i] = exc
        else:
            sent.append(i)
    if not sent:
        return results
    try:
        vectors = embedder.embed_many([intent_texts[i] for i in sent])
    except _BAD_BATCH:
        vectors = [None] * len(sent)
    except EngineError as exc:
        for i in sent:
            results[i] = exc
        return results
    for i, vector in zip(sent, vectors, strict=True):
        try:
            if vector is None:
                results[i] = embed_intent(intent_texts[i], embedder)
            else:
                results[i] = _unit_vector(vector, embedder.dim)
        except EngineError as exc:
            results[i] = exc
    return results
