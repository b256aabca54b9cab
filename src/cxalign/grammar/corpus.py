"""Corpus generation and JSON Lines round-trip serialization."""

from __future__ import annotations

import base64
import json
from dataclasses import asdict, fields

import numpy as np

from ..checkpoint import replacing
from .image import render_image
from .render import inject_errors, make_variants, render_report
from .sampler import sample_latent_study
from .types import LatentFinding, LatentStudy, RenderedStudy


class CorpusFormatError(ValueError):
    """Malformed corpus line; the message names the line."""


def build_study(latent: LatentStudy, seed: int, index: int, noise_sigma: float) -> RenderedStudy:
    findings_text, impression_text = render_report(latent, "canonical")
    variants = make_variants(latent, findings_text)
    image = render_image(latent, np.random.default_rng([seed, index, 1]), noise_sigma)
    errors = inject_errors(latent, np.random.default_rng([seed, index, 2]))
    return RenderedStudy(
        latent=latent,
        image=image,
        findings_text=findings_text,
        impression_text=impression_text,
        variants=variants,
        errors=errors,
    )


def generate_corpus(n: int, seed: int, noise_sigma: float = 0.05) -> list[RenderedStudy]:
    """Deterministic corpus of paired studies: same (n, seed, noise_sigma)
    always yields bit-identical output."""
    out = []
    for i in range(n):
        rng = np.random.default_rng([seed, i, 0])
        latent = sample_latent_study(rng, f"s{i:06d}", seed)
        out.append(build_study(latent, seed, i, noise_sigma))
    return out


def _encode_image(image: np.ndarray) -> dict:
    return {
        "encoding": "b64f32",
        "shape": list(image.shape),
        "data": base64.b64encode(np.ascontiguousarray(image, dtype="<f4").tobytes()).decode(),
    }


def _decode_image(blob: dict) -> np.ndarray:
    if blob.get("encoding") != "b64f32":
        raise ValueError(f"unknown image encoding {blob.get('encoding')!r}")
    raw = base64.b64decode(blob["data"])
    return np.frombuffer(raw, dtype="<f4").reshape(blob["shape"]).astype(np.float32)


_FINDING_KEYS = sorted(f.name for f in fields(LatentFinding))


def study_to_dict(s: RenderedStudy) -> dict:
    return {
        "study_id": s.latent.study_id,
        "seed": s.latent.seed,
        "findings": [asdict(f) for f in s.latent.findings],
        "image": _encode_image(s.image),
        "findings_text": s.findings_text,
        "impression_text": s.impression_text,
        "variants": s.variants,
        "errors": [{"category": c, "text": t} for c, t in s.errors],
    }


def study_from_dict(d: dict) -> RenderedStudy:
    for f in d["findings"]:
        if sorted(f) != _FINDING_KEYS:  # a default must not stand in for a lost field
            raise ValueError(f"finding keys {sorted(f)} != {_FINDING_KEYS}")
    latent = LatentStudy(
        study_id=d["study_id"],
        seed=d["seed"],
        findings=tuple(LatentFinding(**f) for f in d["findings"]),
    )
    return RenderedStudy(
        latent=latent,
        image=_decode_image(d["image"]),
        findings_text=d["findings_text"],
        impression_text=d["impression_text"],
        variants=dict(d["variants"]),
        errors=[(e["category"], e["text"]) for e in d["errors"]],
    )


def write_corpus(studies, path) -> None:
    """Write `studies` as JSON Lines through a temp file that replaces
    `path` once every line is written (`checkpoint.replacing`)."""
    with replacing(path, "w", encoding="utf-8") as fh:
        for s in studies:
            fh.write(json.dumps(study_to_dict(s), sort_keys=True) + "\n")


def read_corpus(path) -> list[RenderedStudy]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                out.append(study_from_dict(json.loads(line)))
            except (ValueError, KeyError, TypeError) as e:
                raise CorpusFormatError(f"corpus line {lineno}: {e}") from e
    return out
