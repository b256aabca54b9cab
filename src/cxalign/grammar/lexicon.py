"""Acronym lexicon: shorthand <-> expansion, single-pass idempotent."""

from __future__ import annotations

import re

DEFAULT_LEXICON = {
    "PTX": "pneumothorax",
    "GGO": "ground-glass opacity",
    "RULF": "right upper lung field",
    "RMLF": "right mid lung field",
    "RLLF": "right lower lung field",
    "LULF": "left upper lung field",
    "LMLF": "left mid lung field",
    "LLLF": "left lower lung field",
    "BULF": "bilateral upper lung fields",
    "BMLF": "bilateral mid lung fields",
    "BLLF": "bilateral lower lung fields",
    "s/p": "status post",
    "CXR": "chest x-ray",
}


def _validate(lexicon: dict) -> None:
    keys = [k.lower() for k in lexicon]
    for expansion in lexicon.values():
        low = expansion.lower()
        for k in keys:
            if re.search(rf"(?<![a-z0-9]){re.escape(k)}(?![a-z0-9])", low):
                raise ValueError(f"expansion {expansion!r} contains shorthand {k!r}")


_validate(DEFAULT_LEXICON)


def expand_acronyms(text: str) -> str:
    """Replace every shorthand with its expansion, one pass, case-insensitive."""
    out = text
    for key, expansion in sorted(DEFAULT_LEXICON.items(), key=lambda kv: -len(kv[0])):
        out = re.sub(
            rf"(?<![a-zA-Z0-9]){re.escape(key)}(?![a-zA-Z0-9])",
            expansion,
            out,
            flags=re.IGNORECASE,
        )
    return out


def contract_acronyms(text: str) -> str:
    """Reverse lookup: replace expansions with their shorthand."""
    out = text
    for key, expansion in sorted(DEFAULT_LEXICON.items(), key=lambda kv: -len(kv[1])):
        out = re.sub(
            rf"(?<![a-zA-Z0-9]){re.escape(expansion)}(?![a-zA-Z0-9])",
            key,
            out,
            flags=re.IGNORECASE,
        )
    return out

