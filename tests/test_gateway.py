import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from slsrec.errors import (
    ConfigurationError,
    IntegrityError,
    ProviderExhaustedError,
    ProviderPermanentError,
    ValidationError,
)
from slsrec.gateway import GatewayClient, ProviderConfig, backoff_delays

from stubserver import StubServer

KEY_ENV = "SLSREC_TEST_KEY"


@pytest.fixture(autouse=True)
def api_key(monkeypatch):
    monkeypatch.setenv(KEY_ENV, "test-key")


def make_client(base_url, sleeps=None, **overrides):
    defaults = dict(
        base_url=base_url,
        api_key_env=KEY_ENV,
        model_name="stub-model",
        temperature=0.0,
        timeout_s=5.0,
        max_retries=3,
        max_inflight=4,
    )
    defaults.update(overrides)
    config = ProviderConfig(**defaults)
    recorded = sleeps if sleeps is not None else []
    return GatewayClient(
        config, backoff_base_s=0.001, backoff_cap_s=0.008,
        sleep=recorded.append,
    ), recorded


def test_config_invariants():
    with pytest.raises(ValidationError):
        ProviderConfig(base_url="http://x", temperature=-0.1)
    with pytest.raises(ValidationError):
        ProviderConfig(base_url="http://x", max_retries=-1)
    with pytest.raises(ValidationError):
        ProviderConfig(base_url="http://x", max_inflight=0)


def test_missing_api_key_fails_before_any_network_call(monkeypatch):
    monkeypatch.delenv(KEY_ENV, raising=False)
    with StubServer() as server:
        client, _ = make_client(server.base_url)
        with pytest.raises(ConfigurationError, match=KEY_ENV):
            client.chat_complete("hello")
        assert server.requests == []


def test_chat_returns_stub_text_verbatim():
    canned = (
        "Intent Summary: does things.\nServerless Platforms: AWS Lambda\n"
        "Cloud Services: None\nProgramming Languages: Python"
    )
    with StubServer(chat_text=canned) as server:
        client, _ = make_client(server.base_url)
        assert client.chat_complete("prompt") == canned
        path, payload = server.requests[0]
        assert path.endswith("/chat/completions")
        assert payload["temperature"] == 0.0
        assert payload["messages"] == [{"role": "user", "content": "prompt"}]


def test_transport_adds_no_nondeterminism():
    with StubServer(chat_text="stable answer") as server:
        client, _ = make_client(server.base_url)
        assert client.chat_complete("same prompt") == client.chat_complete("same prompt")


def test_retry_on_429_then_success():
    with StubServer() as server:
        server.script = [{"status": 429}, {"status": 429}]
        client, sleeps = make_client(server.base_url)
        assert client.chat_complete("p") == "ok"
        assert client.telemetry.retries_total == 2
        assert len(server.requests) == 3
        assert sleeps == sorted(sleeps), "backoff must be non-decreasing"


def test_retryable_exhausted_after_budget():
    with StubServer() as server:
        server.script = [{"status": 500}] * 10
        client, _ = make_client(server.base_url, max_retries=2)
        with pytest.raises(ProviderExhaustedError) as err:
            client.chat_complete("p")
        assert err.value.retries == 2
        assert len(server.requests) == 3


def test_other_4xx_is_permanent_and_not_retried():
    with StubServer() as server:
        server.script = [{"status": 403}]
        client, _ = make_client(server.base_url)
        with pytest.raises(ProviderPermanentError):
            client.chat_complete("p")
        assert len(server.requests) == 1


def test_timeout_is_retryable():
    with StubServer() as server:
        server.script = [{"delay_s": 0.5}]
        client, _ = make_client(server.base_url, timeout_s=0.05)
        assert client.chat_complete("p") == "ok"
        assert client.telemetry.retries_total == 1


def test_connection_refused_is_retryable_then_exhausted():
    client, _ = make_client("http://127.0.0.1:9", max_retries=1)
    with pytest.raises(ProviderExhaustedError):
        client.chat_complete("p")


def test_embeddings_pass_through_in_order():
    with StubServer(embed_dim=4) as server:
        client, _ = make_client(server.base_url)
        texts = ["a", "bb", "ccc"]
        vectors = client.embed_texts(texts)
        assert [v[0] for v in vectors] == [1.0, 2.0, 3.0]
        assert all(len(v) == 4 for v in vectors)


def test_embedding_batches_are_transparent():
    with StubServer(embed_dim=4) as server:
        client, _ = make_client(server.base_url)
        client.embed_batch_size = 2
        vectors = client.embed_texts(["a", "bb", "ccc"])
        assert [v[0] for v in vectors] == [1.0, 2.0, 3.0]
        sizes = [len(payload["input"]) for _path, payload in server.requests]
        assert sizes == [2, 1]


def test_embedding_empty_input_rejected():
    with StubServer() as server:
        client, _ = make_client(server.base_url)
        with pytest.raises(ValidationError):
            client.embed_texts([])
        assert server.requests == []


def test_embedding_dimension_drift_across_batches():
    with StubServer() as server:
        server.script = [
            {"status": 200, "body": {"data": [{"embedding": [1.0, 2.0]}]}},
            {"status": 200, "body": {"data": [{"embedding": [1.0, 2.0, 3.0]}]}},
        ]
        client, _ = make_client(server.base_url)
        client.embed_batch_size = 1
        with pytest.raises(IntegrityError, match="dimensions"):
            client.embed_texts(["a", "b"])


def test_malformed_success_body_is_permanent():
    with StubServer() as server:
        server.script = [{"status": 200, "body": {"surprise": True}}]
        client, _ = make_client(server.base_url)
        with pytest.raises(ProviderPermanentError):
            client.chat_complete("p")


def test_bounded_inflight_under_concurrency():
    with StubServer(handler_delay_s=0.02) as server:
        client, _ = make_client(server.base_url, max_inflight=3)
        threads = [
            threading.Thread(target=client.chat_complete, args=("p",))
            for _ in range(12)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(server.requests) == 12
        assert server.peak_active <= 3


@given(
    st.floats(min_value=1e-4, max_value=2.0),
    st.floats(min_value=1e-4, max_value=10.0),
    st.integers(min_value=0, max_value=12),
)
def test_backoff_schedule_is_non_decreasing_and_capped(base, cap, retries):
    delays = backoff_delays(base, cap, retries)
    assert len(delays) == retries
    assert delays == sorted(delays)
    assert all(d <= cap + 1e-12 for d in delays)
