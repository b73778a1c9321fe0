import logging
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slsrec.embedding import DeterministicEmbedder, embed_intent, embed_intents
from slsrec.errors import (
    DimensionMismatchError,
    EngineError,
    IntegrityError,
    ProviderExhaustedError,
    ProviderPermanentError,
    ValidationError,
)
from slsrec.matching import cosine_similarity


def test_same_text_same_vector():
    embedder = DeterministicEmbedder()
    a = embed_intent("tags uploaded images with detected labels", embedder)
    b = embed_intent("tags uploaded images with detected labels", embedder)
    np.testing.assert_array_equal(a, b)


def test_determinism_across_instances():
    a = embed_intent("resize pictures into thumbnails", DeterministicEmbedder())
    b = embed_intent("resize pictures into thumbnails", DeterministicEmbedder())
    np.testing.assert_array_equal(a, b)


def test_output_is_unit_norm_and_default_dim():
    vector = embed_intent("store records in a table", DeterministicEmbedder())
    assert vector.shape == (384,)
    assert abs(float(np.linalg.norm(vector)) - 1.0) <= 1e-6


def test_unrelated_texts_are_not_degenerate():
    # non-degeneracy of the projection: 100 random text pairs stay apart
    rng = random.Random(20240601)
    vocabulary = [
        "bucket", "image", "queue", "table", "record", "alert", "video",
        "token", "label", "invoice", "sensor", "report", "cache", "index",
        "upload", "resize", "detect", "publish", "store", "transform",
    ]
    embedder = DeterministicEmbedder()
    worst = 0.0
    for _ in range(100):
        first = " ".join(rng.sample(vocabulary, 6))
        second = " ".join(rng.sample(vocabulary, 6))
        if first == second:
            continue
        sim = cosine_similarity(
            embed_intent(first, embedder), embed_intent(second, embedder)
        )
        worst = max(worst, sim)
    assert worst < 0.99


def test_empty_text_rejected():
    with pytest.raises(ValidationError):
        embed_intent("", DeterministicEmbedder())
    with pytest.raises(ValidationError):
        embed_intent("   ", DeterministicEmbedder())


def test_no_alphanumeric_content_still_embeds():
    vector = embed_intent("!!! ???", DeterministicEmbedder(dim=16))
    assert abs(float(np.linalg.norm(vector)) - 1.0) <= 1e-6


def test_dimension_mismatch_detected():
    class WrongDim:
        name = "broken"
        dim = 8

        def embed(self, text):
            return np.ones(4)

    with pytest.raises(DimensionMismatchError):
        embed_intent("text", WrongDim())


def test_zero_vector_rejected():
    class Zero:
        name = "zero"
        dim = 4

        def embed(self, text):
            return np.zeros(4)

    with pytest.raises(ValidationError):
        embed_intent("text", Zero())


def test_long_input_truncates_with_warning(caplog):
    embedder = DeterministicEmbedder(dim=16, max_chars=50)
    text = "alpha beta gamma " * 50
    with caplog.at_level(logging.WARNING):
        truncated = embed_intent(text, embedder)
    assert "truncated" in caplog.text
    head_only = embed_intent(text[:50], embedder)
    np.testing.assert_array_equal(truncated, head_only)


def test_token_order_does_not_matter_but_counts_do():
    embedder = DeterministicEmbedder(dim=32)
    a = embed_intent("alpha beta", embedder)
    b = embed_intent("beta alpha", embedder)
    c = embed_intent("alpha alpha beta", embedder)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# embed_intents: the batch path
# ---------------------------------------------------------------------------

def _one_by_one(texts, embedder):
    outcomes = []
    for text in texts:
        try:
            outcomes.append(embed_intent(text, embedder))
        except EngineError as exc:
            outcomes.append(exc)
    return outcomes


@settings(max_examples=80, deadline=None)
@given(st.lists(st.one_of(st.text(max_size=30), st.sampled_from(["", " ", "\t\n "])),
                max_size=12))
def test_embed_intents_equals_embed_intent_per_text(texts):
    embedder = DeterministicEmbedder(dim=32)
    batch = embed_intents(texts, embedder)
    assert len(batch) == len(texts)
    for text, got, want in zip(texts, batch, _one_by_one(texts, embedder)):
        if not text.strip():
            assert isinstance(got, ValidationError)
        if isinstance(want, np.ndarray):
            assert isinstance(got, np.ndarray) and got.tobytes() == want.tobytes()
        else:
            assert type(got) is type(want) and str(got) == str(want)


class BatchFails:
    """Answers one text at a time; every batch call raises `error`."""

    name = "batch-fails"
    dim = 4

    def __init__(self, error):
        self.error = error
        self.calls = []

    def embed(self, text):
        self.calls.append([text])
        return np.full(4, float(len(text)))

    def embed_many(self, texts):
        self.calls.append(list(texts))
        raise self.error


@pytest.mark.parametrize("error", [
    ProviderPermanentError("HTTP 400"),
    IntegrityError("provider returned 2 vectors for 3 inputs"),
    DimensionMismatchError("provider returned dimension (5,)"),
])
def test_bad_batch_answer_is_retried_one_text_at_a_time(error):
    embedder = BatchFails(error)
    vectors = embed_intents(["a", "bb", "ccc"], embedder)
    assert embedder.calls == [["a", "bb", "ccc"], ["a"], ["bb"], ["ccc"]]
    for text, vector in zip(["a", "bb", "ccc"], vectors):
        assert vector.tobytes() == embed_intent(text, embedder).tobytes()


def test_exhausted_retries_fail_the_whole_batch_without_retrying():
    error = ProviderExhaustedError("HTTP 503", 3)
    embedder = BatchFails(error)
    assert embed_intents(["a", "", "ccc"], embedder)[::2] == [error, error]
    assert embedder.calls == [["a", "ccc"]]


def test_empty_texts_are_not_sent():
    embedder = BatchFails(AssertionError("nothing may be sent"))
    outcomes = embed_intents(["", "  "], embedder)
    assert all(isinstance(o, ValidationError) for o in outcomes)
    assert embedder.calls == []
