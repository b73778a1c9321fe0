"""Loopback stand-in for a remote LLM gateway, run inside the benchmark's
own process.

It is the test suite's gateway stub (tests/stubserver.py), answering the
way a provider would for the generated units: every request after a fixed
delay (in place of model latency), a chat answer with the unit's quadruple
in alias spellings, and an embedding that is a seeded function of the
text, not of unit length. A few units get one malformed chat answer first,
so the extractor's retry path runs. Each request is logged with the unit
it belongs to.
"""

import hashlib
import random
import re
import sys
import time
from pathlib import Path

import numpy as np

import gen

sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))
from stubserver import StubServer  # noqa: E402

DIM = 384
UNIT_ID = re.compile(r"unit-id: (\S+)")
LABELS = ("Intent Summary", "Serverless Platforms", "Cloud Services", "Programming Languages")


def stub_vector(text: str) -> np.ndarray:
    entropy = int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")
    return np.random.default_rng(entropy).standard_normal(DIM) * 3.0


def malformed_first(seed: int, unit_id: str) -> bool:
    """Units whose first chat answer lacks a section (about 1 in 25)."""
    return random.Random(f"malformed-{seed}-{unit_id}").random() < 0.04


def render(seed: int, unit_id: str, intent: str, sets) -> str:
    rng = random.Random(f"spell-{seed}-{unit_id}")
    values = [intent] + [
        ", ".join(gen._spell(rng, level, t) for t in sorted(sets[level])) or "None"
        for level in gen.LEVELS
    ]
    if rng.random() < 0.3:
        return "\n".join(f"**{label}:** {value}" for label, value in zip(LABELS, values))
    return "\n".join(f"{label}: {value}" for label, value in zip(LABELS, values))


class Stub(StubServer):
    def __init__(self, units: dict, seed: int, delay_s: float):
        super().__init__(embed_dim=DIM, handler_delay_s=delay_s)
        self.units = units
        self.seed = seed
        self.phase = None
        self.log: list[tuple] = []  # (phase, kind, unit id or text count, arrival)
        self.answered: set[str] = set()

    def vector_for(self, text):
        return stub_vector(text).tolist()

    def default_body(self, path, payload):
        # called after the delay; the log below keeps what the checks need,
        # so the base class's copy of every payload is dropped
        arrival = time.perf_counter() - self.handler_delay_s
        with self.lock:
            self.requests.clear()
        if path.endswith("/embeddings"):
            with self.lock:
                self.log.append((self.phase, "embed", len(payload["input"]), arrival))
            return super().default_body(path, payload)
        prompt = payload["messages"][0]["content"]
        unit_id = UNIT_ID.search(prompt).group(1)
        unit = self.units[unit_id]
        text = render(self.seed, unit_id, unit["intent"], unit["sets"])
        with self.lock:
            self.log.append((self.phase, "chat", unit_id, arrival))
            key = f"{self.phase}:{unit_id}"
            if key not in self.answered and malformed_first(self.seed, unit_id):
                text = text.rsplit("\n", 1)[0]  # drop the languages section
            self.answered.add(key)
        return {"choices": [{"message": {"role": "assistant", "content": text}}]}
