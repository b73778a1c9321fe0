"""Remote-provider client for chat completion and text embedding.

Wire format is the common gateway-compatible JSON shape:

    POST {base_url}/chat/completions
        {"model", "temperature", "messages": [{"role": "user", "content": prompt}]}
        -> choices[0].message.content
    POST {base_url}/embeddings
        {"model", "input": [texts]}
        -> data[i].embedding

Auth is a bearer key read from the environment variable named in the
config, never from flags or files. 429/5xx/timeouts retry with capped
exponential backoff; other 4xx are permanent. A bounded semaphore keeps
at most max_inflight requests outstanding, shared across threads.
"""

import os
import threading
import time
from dataclasses import dataclass

import requests

from .errors import (
    ConfigurationError,
    IntegrityError,
    ProviderExhaustedError,
    ProviderPermanentError,
    ValidationError,
)


@dataclass(frozen=True)
class ProviderConfig:
    base_url: str
    api_key_env: str = "SLSREC_API_KEY"
    model_name: str = "gpt-4o"
    temperature: float = 0.0
    timeout_s: float = 30.0
    max_retries: int = 3
    max_inflight: int = 4

    def __post_init__(self):
        if self.temperature < 0:
            raise ValidationError("temperature must be >= 0")
        if self.max_retries < 0:
            raise ValidationError("max_retries must be >= 0")
        if self.max_inflight < 1:
            raise ValidationError("max_inflight must be >= 1")


class Telemetry:
    """Thread-safe request/retry counters."""

    def __init__(self):
        self._lock = threading.Lock()
        self.requests_sent = 0
        self.retries_total = 0

    def record(self, attempts: int):
        with self._lock:
            self.requests_sent += attempts
            self.retries_total += attempts - 1


def backoff_delays(base_s: float, cap_s: float, max_retries: int) -> list[float]:
    """Capped exponential schedule; non-decreasing by construction."""
    return [min(cap_s, base_s * (2 ** attempt)) for attempt in range(max_retries)]


class GatewayClient:
    """Shareable across threads; enforces the bounded-inflight contract."""

    def __init__(
        self,
        config: ProviderConfig,
        embed_batch_size: int = 64,
        backoff_base_s: float = 0.5,
        backoff_cap_s: float = 8.0,
        sleep=time.sleep,
    ):
        if embed_batch_size < 1:
            raise ValidationError("embed_batch_size must be >= 1")
        self.config = config
        self.embed_batch_size = embed_batch_size
        self._delays = backoff_delays(backoff_base_s, backoff_cap_s, config.max_retries)
        self._sleep = sleep
        self._semaphore = threading.BoundedSemaphore(config.max_inflight)
        self._session = requests.Session()
        self.telemetry = Telemetry()

    def _api_key(self) -> str:
        key = os.environ.get(self.config.api_key_env, "")
        if not key:
            raise ConfigurationError(
                f"environment variable {self.config.api_key_env} is not set"
            )
        return key

    def _post(self, path: str, payload: dict) -> dict:
        url = self.config.base_url.rstrip("/") + path
        headers = {"Authorization": f"Bearer {self._api_key()}"}
        last_failure = ""
        for attempt in range(self.config.max_retries + 1):
            retryable = False
            with self._semaphore:
                try:
                    response = self._session.post(
                        url, json=payload, headers=headers, timeout=self.config.timeout_s
                    )
                except (requests.Timeout, requests.ConnectionError) as exc:
                    retryable = True
                    last_failure = f"transport error: {exc}"
                else:
                    if response.status_code == 200:
                        self.telemetry.record(attempt + 1)
                        try:
                            return response.json()
                        except ValueError as exc:
                            raise ProviderPermanentError(
                                f"non-JSON response from {url}: {exc}"
                            ) from exc
                    if response.status_code == 429 or response.status_code >= 500:
                        retryable = True
                        last_failure = f"HTTP {response.status_code}"
                    else:
                        self.telemetry.record(attempt + 1)
                        raise ProviderPermanentError(
                            f"HTTP {response.status_code} from {url}: "
                            f"{response.text[:200]}"
                        )
            if retryable and attempt < self.config.max_retries:
                self._sleep(self._delays[attempt])
        self.telemetry.record(self.config.max_retries + 1)
        raise ProviderExhaustedError(
            f"{last_failure} from {url}", self.config.max_retries
        )

    def chat_complete(self, prompt: str) -> str:
        """Single-turn completion; returns the assistant text verbatim."""
        if not prompt:
            raise ValidationError("prompt must be non-empty")
        doc = self._post(
            "/chat/completions",
            {
                "model": self.config.model_name,
                "temperature": self.config.temperature,
                "messages": [{"role": "user", "content": prompt}],
            },
        )
        try:
            return doc["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ProviderPermanentError(
                f"unexpected chat response shape: {exc!r}"
            ) from exc

    def embed_texts(self, texts: list[str]) -> list[list[float]]:
        """One vector per input, in order; batching is transparent."""
        if not texts:
            raise ValidationError("embed_texts requires at least one text")
        vectors: list[list[float]] = []
        for offset in range(0, len(texts), self.embed_batch_size):
            batch = texts[offset : offset + self.embed_batch_size]
            doc = self._post(
                "/embeddings", {"model": self.config.model_name, "input": batch}
            )
            try:
                rows = doc["data"]
                batch_vectors = [row["embedding"] for row in rows]
            except (KeyError, TypeError) as exc:
                raise ProviderPermanentError(
                    f"unexpected embeddings response shape: {exc!r}"
                ) from exc
            if len(batch_vectors) != len(batch):
                raise IntegrityError(
                    f"provider returned {len(batch_vectors)} vectors for "
                    f"{len(batch)} inputs"
                )
            vectors.extend(batch_vectors)
        dims = {len(v) for v in vectors}
        if len(dims) > 1:
            raise IntegrityError(f"inconsistent embedding dimensions: {sorted(dims)}")
        return vectors
