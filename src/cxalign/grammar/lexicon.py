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


def _word_patterns(pairs) -> tuple:
    """(compiled pattern, replacement) per (word, replacement) pair, in
    order: the word as a whole token, case-insensitive."""
    return tuple(
        (re.compile(rf"(?<![a-zA-Z0-9]){re.escape(word)}(?![a-zA-Z0-9])", re.IGNORECASE), repl)
        for word, repl in pairs
    )


# longest first, so a shorthand or expansion that holds another is replaced whole
_EXPAND = _word_patterns(sorted(DEFAULT_LEXICON.items(), key=lambda kv: -len(kv[0])))
_CONTRACT = _word_patterns(
    (expansion, key)
    for key, expansion in sorted(DEFAULT_LEXICON.items(), key=lambda kv: -len(kv[1]))
)


def _replace_all(text: str, patterns) -> str:
    for pattern, repl in patterns:
        text = pattern.sub(repl, text)
    return text


def expand_acronyms(text: str) -> str:
    """Replace every shorthand with its expansion, one pass, case-insensitive."""
    return _replace_all(text, _EXPAND)


def contract_acronyms(text: str) -> str:
    """Reverse lookup: replace expansions with their shorthand."""
    return _replace_all(text, _CONTRACT)
