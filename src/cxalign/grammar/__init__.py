"""Deterministic paired-study generator and its exact label oracle."""

from .types import (
    KINDS,
    LOCATIONS,
    SEVERITIES,
    TEMPORALS,
    Label,
    LatentFinding,
    LatentStudy,
    RenderedStudy,
)
from .lexicon import DEFAULT_LEXICON, expand_acronyms
from .sampler import sample_latent_study
from .render import (
    abbreviate_text,
    inject_errors,
    make_variants,
    render_report,
    status_sentence,
)
from .labels import LabelExtraction, extract_labels
from .image import render_image
from .corpus import generate_corpus, read_corpus, write_corpus

__all__ = [
    "KINDS",
    "LOCATIONS",
    "SEVERITIES",
    "TEMPORALS",
    "Label",
    "LatentFinding",
    "LatentStudy",
    "RenderedStudy",
    "DEFAULT_LEXICON",
    "expand_acronyms",
    "sample_latent_study",
    "render_report",
    "make_variants",
    "inject_errors",
    "abbreviate_text",
    "status_sentence",
    "LabelExtraction",
    "extract_labels",
    "render_image",
    "generate_corpus",
    "read_corpus",
    "write_corpus",
]
