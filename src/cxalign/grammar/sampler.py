"""Latent-study sampling: the corpus's one sampling profile, as constants.

A study is normal with probability NORMAL_PROB; otherwise it draws 1 to
MAX_FINDINGS findings, each of a kind drawn with KIND_PROBS (uniform), at a
distinct (kind, location). A finding is negated with probability
NEGATED_PROB, and a finding that is not negated carries a temporal flag
with probability TEMPORAL_PROB. The order of the RNG draws fixes every
corpus byte, and through them every checkpoint and metric, so it changes
only deliberately (`test_default_corpus_digest_is_pinned`).
"""

from __future__ import annotations

import numpy as np

from .types import (
    KINDS,
    MAX_FINDINGS,
    SEVERITIES,
    ZONE_LOCATIONS,
    LatentFinding,
    LatentStudy,
    fixed_location,
)

NORMAL_PROB = 0.25
NEGATED_PROB = 0.2
TEMPORAL_PROB = 0.4
KIND_PROBS = np.full(len(KINDS), 1 / len(KINDS))

_TEMPORAL_CHOICES = ("new", "stable", "improved", "worsened")


def sample_latent_study(rng: np.random.Generator, study_id: str, seed: int) -> LatentStudy:
    if rng.random() < NORMAL_PROB:
        return LatentStudy(study_id=study_id, seed=seed, findings=())
    n = int(rng.integers(1, MAX_FINDINGS + 1))
    findings = []
    taken = set()
    for _ in range(100):
        if len(findings) == n:
            break
        kind = KINDS[int(rng.choice(len(KINDS), p=KIND_PROBS))]
        loc = fixed_location(kind)
        if loc is None:
            loc = ZONE_LOCATIONS[int(rng.integers(len(ZONE_LOCATIONS)))]
        if (kind, loc) in taken:
            continue
        taken.add((kind, loc))
        negated = bool(rng.random() < NEGATED_PROB)
        if kind == "support_device":
            severity = "mild"
        else:
            severity = SEVERITIES[int(rng.integers(3))]
        temporal = "none"
        if not negated and rng.random() < TEMPORAL_PROB:
            temporal = _TEMPORAL_CHOICES[int(rng.integers(4))]
        findings.append(LatentFinding(kind, loc, severity, negated, temporal))
    return LatentStudy(study_id=study_id, seed=seed, findings=tuple(findings))
