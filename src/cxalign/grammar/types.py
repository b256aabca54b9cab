"""Latent clinical state: the hidden truth both modalities render from."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

KINDS = (
    "opacity",
    "consolidation",
    "pleural_effusion",
    "pneumothorax",
    "cardiomegaly",
    "edema",
    "nodule",
    "granuloma",
    "atelectasis",
    "support_device",
)

SIDES = ("right", "left")
ROWS = ("upper", "mid", "lower")
ZONE_LOCATIONS = tuple(f"{s} {r}" for s in SIDES for r in ROWS)
LOCATIONS = ZONE_LOCATIONS + ("cardiac", "none")
SEVERITIES = ("mild", "moderate", "severe")
TEMPORALS = ("none", "new", "stable", "improved", "worsened")
# the most findings a study holds; the sampler draws 1 to MAX_FINDINGS
MAX_FINDINGS = 5

# nodule size in millimetres encodes severity; band edges are the oracle
NODULE_MM = {"mild": 4, "moderate": 8, "severe": 15}

# Canonical label tuple: (kind, location, severity-or-None, negated, temporal).
# Severity is None for negated findings (it is clinically meaningless there)
# and pinned to "mild" for support devices, whose sentences carry no severity.
Label = tuple


def fixed_location(kind: str) -> Optional[str]:
    if kind == "cardiomegaly":
        return "cardiac"
    if kind == "edema":
        return "none"
    return None


@dataclass(frozen=True)
class LatentFinding:
    kind: str
    location: str
    severity: str = "mild"
    negated: bool = False
    temporal: str = "none"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.location not in LOCATIONS:
            raise ValueError(f"unknown location {self.location!r}")
        fixed = fixed_location(self.kind)
        if fixed is not None and self.location != fixed:
            raise ValueError(f"{self.kind} location must be {fixed!r}")
        if fixed is None and self.location not in ZONE_LOCATIONS:
            raise ValueError(f"{self.kind} needs a lung-zone location")
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")
        if self.temporal not in TEMPORALS:
            raise ValueError(f"unknown temporal flag {self.temporal!r}")
        if self.negated and self.temporal != "none":
            raise ValueError("negated finding cannot carry a temporal flag")

    def label(self) -> Label:
        if self.negated:
            sev = None
        elif self.kind == "support_device":
            sev = "mild"
        else:
            sev = self.severity
        return (self.kind, self.location, sev, self.negated, self.temporal)


@dataclass(frozen=True)
class LatentStudy:
    study_id: str
    seed: int
    findings: tuple = ()

    def __post_init__(self):
        pairs = [(f.kind, f.location) for f in self.findings]
        if len(set(pairs)) != len(pairs):
            raise ValueError("duplicate (kind, location) pair in study")
        if len(self.findings) > MAX_FINDINGS:
            raise ValueError(f"at most {MAX_FINDINGS} findings per study")

    @property
    def is_normal(self) -> bool:
        return len(self.findings) == 0

    def positives(self) -> list:
        return [f for f in self.findings if not f.negated]

    def label_set(self) -> frozenset:
        return frozenset(f.label() for f in self.findings)


@dataclass
class RenderedStudy:
    latent: LatentStudy
    image: np.ndarray
    findings_text: str
    impression_text: str
    variants: dict  # paraphrase / split / prior_omitted / partitioned / abbreviated
    errors: list  # [(category, text)] exactly 3 entries

    @property
    def study_id(self) -> str:
        return self.latent.study_id
