"""The per-candidate matching path that the columnar store replaced, kept
as the reference the store is tested against: pruning over id sets with
one set intersection per candidate, one cosine per survivor in id order,
and a full (-score, id) sort truncated to k.
"""

from slsrec.errors import IntegrityError
from slsrec.matching import LEVELS, LevelAudit, _pareto_front_pairs, cosine_similarity


def reference_prune_level(ids, reps, query_attr, level):
    """(surviving ids, audit) of one level over the candidate ids."""
    query = frozenset(term.casefold() for term in query_attr)
    query_len = len(query)
    full, partial_ids, partial_pairs = [], [], []
    for fid in ids:
        rep = reps.get(fid)
        if rep is None:
            raise IntegrityError(f"candidate '{fid}' is not in the representation store")
        attr = frozenset(term.casefold() for term in getattr(rep, level))
        inter = len(query & attr)
        if inter == query_len:
            full.append(fid)
        else:
            union = query_len + len(attr) - inter
            partial_ids.append(fid)
            partial_pairs.append(((union - inter) / union, (query_len - inter) / query_len))
    kept = _pareto_front_pairs(partial_pairs)
    retained = frozenset(full) | {partial_ids[i] for i in kept}
    return retained, LevelAudit(level, True, len(full), len(kept), len(retained))


def reference_multi_level_prune(reps, query_rep):
    """(surviving ids, per-level audits), skipping levels the query leaves
    empty."""
    ids, audit = frozenset(reps), ()
    for level in LEVELS:
        query_attr = query_rep.attribute_set(level)
        if not query_attr:
            audit += (LevelAudit(level, False, 0, 0, len(ids)),)
            continue
        ids, level_audit = reference_prune_level(ids, reps, query_attr, level)
        audit += (level_audit,)
    return ids, audit


def reference_recommend(query_rep, reps, k):
    """(surviving ids, audits, top-k (id, score) entries)."""
    ids, audit = reference_multi_level_prune(reps, query_rep)
    scored = []
    for fid in sorted(ids):
        vector = reps[fid].intent_vector
        if vector is None:
            raise IntegrityError(f"function '{fid}' has no intent vector")
        scored.append((fid, cosine_similarity(query_rep.intent_vector, vector)))
    ordered = sorted(scored, key=lambda entry: (-entry[1], entry[0]))
    return ids, audit, ordered[:k]
