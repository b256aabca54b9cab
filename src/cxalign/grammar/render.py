"""Report rendering: canonical/verbose/abbreviated styles, the four report
variants, erroneous impressions, and status sentences.

All rendering is a pure function of the latent study (plus an rng only for
error injection), so every label is recoverable exactly by the parser in
`labels.py`.
"""

from __future__ import annotations

import re
from dataclasses import replace

import numpy as np

from .lexicon import contract_acronyms
from .types import (
    KINDS,
    NODULE_MM,
    SEVERITIES,
    ZONE_LOCATIONS,
    LatentFinding,
    LatentStudy,
    fixed_location,
)

# surface noun phrases: bank 0 (canonical) / bank 1 (paraphrase)
NOUN_PHRASES = {
    "opacity": ("opacity", "airspace opacity"),
    "consolidation": ("consolidation", "focal consolidation"),
    "pleural_effusion": ("pleural effusion", "pleural fluid collection"),
    "pneumothorax": ("pneumothorax", "pneumothorax"),
    "atelectasis": ("atelectasis", "collapse of the lung"),
}

SEV_WORDS = {"mild": ("mild", "minimal"), "moderate": ("moderate", "moderate"), "severe": ("severe", "large")}
SEV_ADVERBS = {"mild": "mildly", "moderate": "moderately", "severe": "severely"}
GRANULOMA_SEV = {"mild": "tiny", "moderate": "small", "severe": "large"}

NORMAL_FINDINGS = {
    "canonical": ("The lungs are clear.", "No acute cardiopulmonary process is seen."),
    "paraphrase": ("The lungs are well expanded and clear.", "No acute findings are identified."),
    "verbose": (
        "The frontal radiograph demonstrates clear lungs.",
        "No acute cardiopulmonary process is identified.",
    ),
}
NORMAL_IMPRESSION = "No active lung disease."

STATUS_NAMES = {
    "opacity": "opacity",
    "consolidation": "consolidation",
    "pleural_effusion": "pleural effusion",
    "pneumothorax": "pneumothorax",
    "cardiomegaly": "heart enlargement",
    "edema": "pulmonary edema",
    "nodule": "nodule",
    "granuloma": "granuloma",
    "atelectasis": "atelectasis",
    "support_device": "support device",
}

ERROR_CATEGORIES = (
    "Change Severity",
    "Change Location",
    "False Prediction",
    "False Negation",
    "Change Measurement",
    "Add Opposite Sentence",
    "Add Medical Device",
    "Change Position of Device",
)


def _temp_clause(f: LatentFinding) -> str:
    if f.temporal == "none":
        return ""
    return f", {f.temporal} compared to the prior study"


def _loc_phrase(location: str) -> str:
    return f"{location} lung field"


def _negated_where(f: LatentFinding) -> str:
    """Where a negation applies: edema is diffuse and names no location."""
    return "" if f.kind == "edema" else f" in the {_loc_phrase(f.location)}"


def _positive_clause(f: LatentFinding) -> str:
    """Bank-0 clause for a positive, non-cardiomegaly finding."""
    t = _temp_clause(f)
    if f.kind == "edema":
        return f"{f.severity} pulmonary edema{t}"
    loc = _loc_phrase(f.location)
    if f.kind == "nodule":
        return f"a {NODULE_MM[f.severity]} mm nodule in the {loc}{t}"
    if f.kind == "granuloma":
        return f"a {GRANULOMA_SEV[f.severity]} calcified granuloma in the {loc}{t}"
    if f.kind == "support_device":
        return f"a support device projecting over the {loc}{t}"
    return f"a {f.severity} {NOUN_PHRASES[f.kind][0]} in the {loc}{t}"


def _sentence_canonical(f: LatentFinding) -> str:
    if f.kind == "cardiomegaly":
        if f.negated:
            return "The heart size is within normal limits."
        return f"The heart is {SEV_ADVERBS[f.severity]} enlarged{_temp_clause(f)}."
    if f.negated:
        return f"No {STATUS_NAMES[f.kind]} is seen{_negated_where(f)}."
    return f"There is {_positive_clause(f)}."


def _sentence_paraphrase(f: LatentFinding) -> str:
    if f.kind == "cardiomegaly":
        if f.negated:
            return "The cardiac silhouette is normal in size."
        return f"The cardiac silhouette is {SEV_ADVERBS[f.severity]} enlarged{_temp_clause(f)}."
    if f.negated:
        return f"There is no {STATUS_NAMES[f.kind]}{_negated_where(f)}."
    t = _temp_clause(f)
    if f.kind == "edema":
        return f"{SEV_WORDS[f.severity][1].capitalize()} pulmonary edema is noted{t}."
    loc = _loc_phrase(f.location)
    if f.kind == "nodule":
        return f"A {NODULE_MM[f.severity]} mm nodular opacity is seen in the {loc}{t}."
    if f.kind == "granuloma":
        return f"A {GRANULOMA_SEV[f.severity]} calcified granuloma is noted in the {loc}{t}."
    if f.kind == "support_device":
        return f"A support device is seen in the {loc}{t}."
    return f"{SEV_WORDS[f.severity][1].capitalize()} {NOUN_PHRASES[f.kind][1]} is noted in the {loc}{t}."


def _sentence_verbose(f: LatentFinding) -> str:
    lead = "The frontal radiograph demonstrates"
    if f.kind == "cardiomegaly":
        if f.negated:
            return "The cardiac silhouette is within normal limits."
        return f"{lead} {f.severity} enlargement of the cardiac silhouette{_temp_clause(f)}."
    if f.negated:
        return f"{lead} no {STATUS_NAMES[f.kind]}{_negated_where(f)}."
    return f"{lead} {_positive_clause(f)}."


def _impression_sentence(f: LatentFinding, location: str | None = None) -> str:
    """Compressed impression form; `location` overrides for bilateral merges."""
    t = _temp_clause(f)
    if f.negated:
        if f.kind == "cardiomegaly":
            return "Heart size within normal limits."
        return f"No {STATUS_NAMES[f.kind]}{_negated_where(f)}."
    if f.kind == "cardiomegaly":
        return f"{SEV_ADVERBS[f.severity].capitalize()} enlarged heart{t}."
    if f.kind == "edema":
        return f"{f.severity.capitalize()} pulmonary edema{t}."
    # `location` is a full phrase override, e.g. "bilateral lower lung fields"
    loc = location if location else _loc_phrase(f.location)
    if f.kind == "nodule":
        return f"{NODULE_MM[f.severity]} mm nodule in the {loc}{t}."
    if f.kind == "granuloma":
        return f"{GRANULOMA_SEV[f.severity].capitalize()} calcified granuloma in the {loc}{t}."
    if f.kind == "support_device":
        return f"Support device over the {loc}{t}."
    return f"{f.severity.capitalize()} {NOUN_PHRASES[f.kind][0]} in the {loc}{t}."


def _clauseable(f: LatentFinding) -> bool:
    return not f.negated and f.kind != "cardiomegaly"


def _findings_sentences_canonical(findings) -> list[str]:
    """Bank-0 sentences; adjacent clause-able findings pair into compounds."""
    out = []
    i = 0
    fs = list(findings)
    while i < len(fs):
        f = fs[i]
        if _clauseable(f) and i + 1 < len(fs) and _clauseable(fs[i + 1]):
            out.append(f"There is {_positive_clause(f)}, and {_positive_clause(fs[i + 1])}.")
            i += 2
        else:
            out.append(_sentence_canonical(f))
            i += 1
    return out


def _merge_bilateral(positives) -> dict:
    """Location override by `id` of each positive finding that renders: a
    bilateral phrase when its mirrored twin was merged into it, else None.
    Twins merged away are absent."""
    out = {}
    consumed = set()
    for i, f in enumerate(positives):
        if i in consumed:
            continue
        override = None
        if f.location in ZONE_LOCATIONS:
            twin = (f.kind, _swap_side(f.location), f.severity, f.temporal)
            for j in range(i + 1, len(positives)):
                g = positives[j]
                if j not in consumed and (g.kind, g.location, g.severity, g.temporal) == twin:
                    consumed.add(j)
                    override = f"bilateral {f.location.split()[1]} lung fields"
                    break
        out[id(f)] = override
    return out


def render_impression(findings, keep_negated: bool = False) -> str:
    """Compression of the findings list: negations dropped, mirrored
    locations merged. `keep_negated` is used for erroneous impressions."""
    kept = [f for f in findings if keep_negated or not f.negated]
    if not kept:
        return NORMAL_IMPRESSION
    sentences = []
    positives = [f for f in kept if not f.negated]
    by_id = _merge_bilateral(positives)
    for f in kept:
        if f.negated:
            sentences.append(_impression_sentence(f))
        elif id(f) in by_id:
            sentences.append(_impression_sentence(f, by_id[id(f)]))
        # mirrored twins merged away render nothing
    return " ".join(sentences)


def drop_articles(text: str) -> str:
    return re.sub(r"\b([Aa]n?|[Tt]he)\s+", "", text)


def abbreviate_text(text: str) -> str:
    """Shorthand style: reverse lexicon lookup plus article dropping."""
    return drop_articles(contract_acronyms(text))


def render_report(study: LatentStudy, style: str = "canonical") -> tuple[str, str]:
    """Render (findings_text, impression_text) in the requested style."""
    if style not in ("canonical", "verbose", "abbreviated"):
        raise ValueError(f"unknown style {style!r}")
    impression = render_impression(study.findings)
    if study.is_normal:
        if style == "verbose":
            return " ".join(NORMAL_FINDINGS["verbose"]), impression
        findings = " ".join(NORMAL_FINDINGS["canonical"])
    elif style == "verbose":
        return " ".join(_sentence_verbose(f) for f in study.findings), impression
    else:
        findings = " ".join(_findings_sentences_canonical(study.findings))
    if style == "abbreviated":
        return abbreviate_text(findings), abbreviate_text(impression)
    return findings, impression


REGION_ORDER = ("Right lung", "Left lung", "Heart", "Other")


def _region(f: LatentFinding) -> str:
    if f.kind == "cardiomegaly":
        return "Heart"
    if f.location.startswith("right"):
        return "Right lung"
    if f.location.startswith("left"):
        return "Left lung"
    return "Other"


def make_variants(study: LatentStudy, findings_text: str | None = None) -> dict:
    """The five variant texts of a study's findings section."""
    if findings_text is None:
        findings_text, _ = render_report(study, "canonical")
    if study.is_normal:
        paraphrase = " ".join(NORMAL_FINDINGS["paraphrase"])
        return {
            "paraphrase": paraphrase,
            "split": findings_text,
            "prior_omitted": findings_text,
            "partitioned": findings_text,
            "abbreviated": abbreviate_text(findings_text),
        }
    atomic = [_sentence_canonical(f) for f in study.findings]
    omitted = " ".join(
        _findings_sentences_canonical([replace(f, temporal="none") for f in study.findings])
    )
    groups: dict[str, list[str]] = {r: [] for r in REGION_ORDER}
    for f, s in zip(study.findings, atomic):
        groups[_region(f)].append(s)
    parts = [f"{r}: " + " ".join(groups[r]) for r in REGION_ORDER if groups[r]]
    return {
        "paraphrase": " ".join(_sentence_paraphrase(f) for f in study.findings),
        "split": " ".join(atomic),
        "prior_omitted": omitted,
        "partitioned": " ".join(parts),
        "abbreviated": abbreviate_text(findings_text),
    }


def status_sentence(kind: str, status: str) -> str:
    """Canonical status sentence used as a classification-pair positive."""
    if status not in ("new", "stable", "improved", "worsened", "present", "absent"):
        raise ValueError(f"unknown status {status!r}")
    return f"The {STATUS_NAMES[kind]} is {status}."


def finding_status(f: LatentFinding) -> str:
    if f.negated:
        return "absent"
    if f.temporal != "none":
        return f.temporal
    return "present"


# ---------------------------------------------------------------------------
# error injection
# ---------------------------------------------------------------------------


def _free_kind_locations(study: LatentStudy):
    taken = {(f.kind, f.location) for f in study.findings}
    combos = []
    for kind in KINDS:
        fixed = fixed_location(kind)
        locs = [fixed] if fixed else list(ZONE_LOCATIONS)
        for loc in locs:
            if (kind, loc) not in taken:
                combos.append((kind, loc))
    return combos


def _swap_side(location: str) -> str:
    side, row = location.split()
    return ("left" if side == "right" else "right") + f" {row}"


def inject_errors(study: LatentStudy, rng: np.random.Generator):
    """Synthesize three tagged erroneous impressions, each one edit away
    from the true impression and guaranteed label-distinct from it."""
    from .labels import extract_labels  # local import avoids a cycle

    positives = study.positives()
    truth_labels = extract_labels(render_impression(study.findings)).label_set

    def pick(items):
        return items[int(rng.integers(len(items)))]

    sev_editable = [f for f in positives if f.kind not in ("nodule", "support_device")]
    loc_editable = [f for f in positives if f.location in ZONE_LOCATIONS]
    nodules = [f for f in positives if f.kind == "nodule"]
    devices = [f for f in positives if f.kind == "support_device"]

    eligible = [
        category
        for category, possible in (
            ("Change Severity", sev_editable),
            ("Change Location", loc_editable),
            ("False Prediction", True),
            ("False Negation", positives),
            ("Change Measurement", nodules),
            ("Add Opposite Sentence", True),
        )
        if possible
    ]
    device_eligible = ["Change Position of Device" if devices else "Add Medical Device"]

    # non-device categories first, per the generation protocol; "False
    # Prediction" and "Add Opposite Sentence" are always eligible, so with
    # the one device category there are always at least three
    order = list(rng.permutation(eligible)) + list(rng.permutation(device_eligible))
    chosen = order[:3]

    used_insertions: set = set()

    def negate(f: LatentFinding) -> LatentFinding:
        return replace(f, negated=True, temporal="none")  # a negation carries no temporal flag

    def edit(category: str) -> list[LatentFinding]:
        """One finding changed in one field, or one finding added."""
        if category in ("Change Severity", "Change Measurement"):
            f = pick(sev_editable if category == "Change Severity" else nodules)
            new = replace(f, severity=pick([s for s in SEVERITIES if s != f.severity]))
        elif category in ("Change Location", "Change Position of Device"):
            f = pick(loc_editable if category == "Change Location" else devices)
            new = replace(f, location=_swap_side(f.location))
        elif category == "False Negation":
            f = pick(positives)
            new = negate(f)
        elif category == "False Prediction":
            kind, loc = pick([c for c in _free_kind_locations(study) if c not in used_insertions])
            used_insertions.add((kind, loc))
            return positives + [LatentFinding(kind, loc, pick(SEVERITIES))]
        elif category == "Add Opposite Sentence":
            if positives:
                return positives + [negate(pick(positives))]
            kind, loc = pick(_free_kind_locations(study))
            return positives + [LatentFinding(kind, loc, pick(SEVERITIES))]
        elif category == "Add Medical Device":
            taken = {f.location for f in study.findings if f.kind == "support_device"}
            locs = [loc for loc in ZONE_LOCATIONS if loc not in taken]
            return positives + [LatentFinding("support_device", pick(locs))]
        else:
            raise ValueError(f"unknown error category {category!r}")
        return [new if g is f else g for g in positives]

    out = []
    for category in chosen:
        for _ in range(20):
            text = render_impression(edit(category), keep_negated=True)
            if extract_labels(text).label_set != truth_labels:
                break
        else:  # pragma: no cover - construction guarantees distinctness
            raise RuntimeError(f"could not build a label-distinct {category} error")
        out.append((category, text))
    return out
