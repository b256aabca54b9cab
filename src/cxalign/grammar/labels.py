"""Exact label extraction over grammar-generated text.

The parser is keyword-driven: every surface form the renderer can emit maps
back to its (kind, location, severity, negated, temporal) tuple. Sentences
that carry no finding keyword are either known neutral filler (ignored) or
recorded as unparsed remainder.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .lexicon import expand_acronyms
from .render import (
    GRANULOMA_SEV,
    NORMAL_FINDINGS,
    NORMAL_IMPRESSION,
    SEV_ADVERBS,
    SEV_WORDS,
    drop_articles,
)
from .types import SEVERITIES

# ordered so that more specific keywords win ("nodular opacity" is a nodule)
_KIND_KEYWORDS = (
    ("pleural effusion", "pleural_effusion"),
    ("pleural fluid", "pleural_effusion"),
    ("pneumothorax", "pneumothorax"),
    ("consolidation", "consolidation"),
    ("granuloma", "granuloma"),
    ("nodul", "nodule"),
    ("opacity", "opacity"),
    ("atelectasis", "atelectasis"),
    ("collapse", "atelectasis"),
    ("pulmonary edema", "edema"),
    ("support device", "support_device"),
)

# the renderer's severity words, mildest first: (word, severity) pairs
_SEVERITY_WORDS = tuple(
    dict.fromkeys(
        (word, sev)
        for sev in SEVERITIES
        for word in (SEV_ADVERBS[sev], *SEV_WORDS[sev], GRANULOMA_SEV[sev])
    )
)

_TEMPORAL_RE = re.compile(r"\b(new|stable|improved|worsened)\b")
_BILATERAL_RE = re.compile(r"\bbilateral (upper|mid|lower) lung")
_ZONE_RE = re.compile(r"\b(right|left) (upper|mid|lower) lung")
_MM_RE = re.compile(r"\b(\d+)\s*mm\b")
_HEADINGS = ("right lung:", "left lung:", "heart:", "other:")


def _neutral_sentences() -> frozenset:
    base = set()
    for pair in NORMAL_FINDINGS.values():
        base.update(pair)
    base.add(NORMAL_IMPRESSION)
    base.add("No acute cardiopulmonary process.")
    out = set()
    for s in base:
        s = s.rstrip(".").lower()
        out.add(s)
        out.add(drop_articles(s).strip())
    return frozenset(out)


_NEUTRAL = _neutral_sentences()


@dataclass
class LabelExtraction:
    labels: tuple = ()
    unparsed: list = field(default_factory=list)

    @property
    def label_set(self) -> frozenset:
        return frozenset(self.labels)


def _severity_from_mm(mm: int) -> str:
    if mm <= 5:
        return "mild"
    if mm <= 10:
        return "moderate"
    return "severe"


def _parse_clause(clause: str):
    """One clause -> list of label tuples (bilateral yields two)."""
    negated = bool(
        re.search(r"\bno\b", clause)
        or "within normal limits" in clause
        or "normal in size" in clause
    )

    kind = None
    for key, k in _KIND_KEYWORDS:
        if key in clause:
            kind = k
            break
    if kind is None:
        if ("heart" in clause or "cardiac" in clause) and (
            "enlarg" in clause or negated
        ):
            kind = "cardiomegaly"
    if kind is None:
        return None

    temporal = "none"
    if not negated:
        m = _TEMPORAL_RE.search(clause)
        if m:
            temporal = m.group(1)

    if negated:
        severity = None
    elif kind == "nodule":
        m = _MM_RE.search(clause)
        severity = _severity_from_mm(int(m.group(1))) if m else "mild"
    elif kind == "support_device":
        severity = "mild"
    else:
        severity = None
        for word, sev in _SEVERITY_WORDS:
            if re.search(rf"\b{word}\b", clause):
                severity = sev
                break
        if severity is None:
            severity = "mild"

    if kind == "cardiomegaly":
        return [(kind, "cardiac", severity, negated, temporal)]
    if kind == "edema":
        return [(kind, "none", severity, negated, temporal)]
    m = _BILATERAL_RE.search(clause)
    if m:
        row = m.group(1)
        return [
            (kind, f"right {row}", severity, negated, temporal),
            (kind, f"left {row}", severity, negated, temporal),
        ]
    m = _ZONE_RE.search(clause)
    loc = f"{m.group(1)} {m.group(2)}" if m else "none"
    return [(kind, loc, severity, negated, temporal)]


def extract_labels(text: str) -> LabelExtraction:
    """Parse grammar text (any style or variant) into exact label tuples."""
    low = expand_acronyms(text).lower()
    for heading in _HEADINGS:
        low = low.replace(heading, " ")
    labels: list = []
    unparsed: list = []
    for sentence in low.split("."):
        sentence = sentence.strip()
        if not sentence:
            continue
        for clause in sentence.split(", and "):
            clause = clause.strip().strip(",").strip()
            if not clause:
                continue
            if clause in _NEUTRAL:
                continue
            parsed = _parse_clause(clause)
            if parsed is None:
                unparsed.append(clause)
            else:
                labels.extend(parsed)
    # deduplicate while preserving order (bilateral phrasing can repeat)
    seen = set()
    uniq = []
    for lab in labels:
        if lab not in seen:
            seen.add(lab)
            uniq.append(lab)
    return LabelExtraction(labels=tuple(uniq), unparsed=unparsed)
