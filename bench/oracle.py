"""Computations the checks compare the program against, made apart from it.

- Embedder: the deterministic embedder's documented recipe (seeded
  per-token directions, count-weighted sum) in plain numpy.
- Store: the paper's pruning rule over term-incidence matrices. A level
  keeps every full-coverage match plus the Pareto front of the partial
  matches under (Jaccard distance, coverage gap), found by brute-force
  dominance over exact fractions; survivors are ranked by cosine, then
  (-score, id).
- recall_mrr: Recall@k and MRR@k from rankings, with Fraction.
"""

import hashlib
from fractions import Fraction

import numpy as np

LEVELS = ("platforms", "services", "languages")


class Embedder:
    def __init__(self, dim: int = 384, seed: int = 7):
        self.dim = dim
        self.seed = seed
        self._directions: dict[str, np.ndarray] = {}

    def _direction(self, token: str) -> np.ndarray:
        vec = self._directions.get(token)
        if vec is None:
            entropy = int.from_bytes(hashlib.sha256(token.encode("utf-8")).digest()[:8], "big")
            vec = np.random.default_rng([self.seed, entropy]).standard_normal(self.dim)
            self._directions[token] = vec
        return vec

    def unit(self, text: str) -> np.ndarray:
        counts: dict[str, int] = {}
        token = []
        for ch in text.lower() + " ":
            if ch.isalnum():
                token.append(ch)
            elif token:
                word = "".join(token)
                counts[word] = counts.get(word, 0) + 1
                token = []
        if not counts:
            counts = {text: 1}
        acc = np.zeros(self.dim)
        for word, count in counts.items():
            acc += count * self._direction(word)
        return acc / float(np.linalg.norm(acc))


class Store:
    """Ids in ascending order, canonical attribute sets, unit vectors."""

    def __init__(self, ids, sets, matrix):
        self.ids = list(ids)
        self.id_array = np.array(self.ids)
        self.matrix = matrix
        self.incidence = {}
        self.sizes = {}
        self.vocab = {}
        for level in LEVELS:
            vocab = sorted({t.casefold() for s in sets for t in s[level]})
            self.vocab[level] = {t: i for i, t in enumerate(vocab)}
            inc = np.zeros((len(self.ids), len(vocab)), dtype=np.int64)
            for row, s in enumerate(sets):
                for t in s[level]:
                    inc[row, self.vocab[level][t.casefold()]] = 1
            self.incidence[level] = inc
            self.sizes[level] = inc.sum(axis=1)

    def prune(self, query_sets):
        """Survivor mask and per-level (level, applied, full, pareto,
        retained) audit."""
        alive = np.ones(len(self.ids), dtype=bool)
        audit = []
        for level in LEVELS:
            query = {t.casefold() for t in query_sets[level]}
            if not query:
                audit.append((level, False, 0, 0, int(alive.sum())))
                continue
            inc = self.incidence[level]
            cols = [self.vocab[level][t] for t in query if t in self.vocab[level]]
            inter = inc[:, cols].sum(axis=1)
            qlen = len(query)
            union = qlen + self.sizes[level] - inter
            full = alive & (inter == qlen)
            partial = np.flatnonzero(alive & ~full)
            # objective pairs as exact fractions, deduplicated by packing
            # (union - inter, union, qlen - inter) into one integer
            base = int(union.max()) + 1
            packed = ((union - inter) * base + union) * base + (qlen - inter)
            keys, inverse = np.unique(packed[partial], return_inverse=True)
            points = [
                (Fraction(int(key) // base // base, int(key) // base % base),
                 Fraction(int(key) % base, qlen))
                for key in keys
            ]
            front = [
                i for i, (d, g) in enumerate(points)
                if not any(d2 <= d and g2 <= g and (d2 < d or g2 < g) for d2, g2 in points)
            ]
            kept = np.zeros(len(self.ids), dtype=bool)
            kept[partial[np.isin(inverse.ravel(), front)]] = True
            alive = full | kept
            audit.append((level, True, int(full.sum()), int(kept.sum()), int(alive.sum())))
        return alive, audit

    def rank(self, alive, query_vector, k):
        """Top-k (id, score) of the survivors by cosine, ties by id."""
        rows = np.flatnonzero(alive)
        scores = np.clip(self.matrix @ query_vector, -1.0, 1.0)[rows]
        order = np.lexsort((self.id_array[rows], -scores))[:k]
        return [(self.ids[rows[i]], float(scores[i])) for i in order]


def same_ranking(got, want, tol=1e-9):
    """Ids in the same order and scores within tol. Two neighbours whose
    scores differ by less than 1e-12 may appear in either order, since
    the last bits of a dot product depend on summation order."""
    if len(got) != len(want):
        return False
    want_score = dict(want)
    for (gid, gscore), (wid, wscore) in zip(got, want):
        if gid not in want_score or abs(gscore - want_score[gid]) > tol:
            return False
        if gid != wid and abs(want_score[gid] - wscore) > 1e-12:
            return False
    return True


def recall_mrr(ranked_ids, truth, ks):
    """Recall@k (percent) and MRR@k from {query: [ids]} and {query: id}."""
    ranks = []
    for qid, target in truth.items():
        ids = ranked_ids[qid]
        ranks.append(ids.index(target) + 1 if target in ids else None)
    n = len(ranks)
    recall = {k: Fraction(100 * sum(1 for r in ranks if r and r <= k), n) for k in ks}
    mrr = {k: sum((Fraction(1, r) for r in ranks if r and r <= k), Fraction(0)) / n for k in ks}
    return recall, mrr
