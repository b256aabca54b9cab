"""Word-level tokenizer over the closed grammar vocabulary.

Reserved ids 0..5: PAD, MASK, BOS, EOS, [FINDINGS], [IMPRESSION]; UNK sits
at id 6. Encoding lowercases; decode(encode(t)) reproduces the lowercased
text for every grammar output.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

PAD, MASK, BOS, EOS, SECTION_FINDINGS, SECTION_IMPRESSION, UNK = range(7)
RESERVED_TOKENS = ("<pad>", "<mask>", "<bos>", "<eos>", "[findings]", "[impression]", "<unk>")
SECTION_IDS = {"findings": SECTION_FINDINGS, "impression": SECTION_IMPRESSION}

_TOKEN_RE = re.compile(r"[a-z0-9]+(?:[-/'][a-z0-9]+)*|[.,:]")
_NO_SPACE_BEFORE = {".", ",", ":"}


class UnknownTokenError(KeyError):
    pass


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def detokenize(tokens) -> str:
    parts: list[str] = []
    for tok in tokens:
        if parts and tok in _NO_SPACE_BEFORE:
            parts[-1] += tok
        else:
            parts.append(tok)
    return " ".join(parts)


@dataclass(frozen=True)
class Vocabulary:
    tokens: tuple

    def __post_init__(self):
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError("duplicate tokens in vocabulary")
        if self.tokens[: len(RESERVED_TOKENS)] != RESERVED_TOKENS:
            raise ValueError("reserved tokens must occupy the leading ids")
        object.__setattr__(self, "_ids", {t: i for i, t in enumerate(self.tokens)})

    def __len__(self):
        return len(self.tokens)

    def id_of(self, token: str, strict: bool = True) -> int:
        i = self._ids.get(token)
        if i is None:
            if strict:
                raise UnknownTokenError(token)
            return UNK
        return i

    def token_of(self, idx: int) -> str:
        return self.tokens[idx]

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for t in self.tokens:
                fh.write(t + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        with open(path, encoding="utf-8") as fh:
            return cls(tuple(line.rstrip("\n") for line in fh if line.rstrip("\n")))


def build_vocab(texts) -> Vocabulary:
    """Frequency-then-lexicographic vocabulary over an iterable of texts."""
    counts: Counter = Counter()
    n = 0
    for text in texts:
        n += 1
        counts.update(tokenize(text))
    if n == 0:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return Vocabulary(RESERVED_TOKENS + tuple(t for t, _ in ordered))


@dataclass
class TokenSequence:
    ids: list
    instruction_span: tuple = (1, 1)  # half-open prefix range excluded from pooling
    mask_positions: list = field(default_factory=list)
    mask_targets: list = field(default_factory=list)
    truncated: bool = False

    def content_range(self) -> tuple:
        """Positions eligible for masking/pooling: after the instruction
        span (and BOS), before the final EOS."""
        return (self.instruction_span[1], len(self.ids) - 1)


def encode(
    text: str,
    vocab: Vocabulary,
    instruction: str | None = None,
    section: str | None = None,
    max_len: int = 128,
    strict: bool = True,
) -> TokenSequence:
    """Layout: BOS, instruction tokens, section token, content, EOS."""
    prefix = [BOS]
    if instruction:
        prefix.extend(vocab.id_of(t, strict) for t in tokenize(instruction))
    if section is not None:
        if section not in SECTION_IDS:
            raise ValueError(f"unknown section {section!r}")
        prefix.append(SECTION_IDS[section])
    content = [vocab.id_of(t, strict) for t in tokenize(text)]
    truncated = False
    room = max_len - len(prefix) - 1
    if room <= 0:
        raise ValueError("instruction prefix alone exceeds max_len")
    if len(content) > room:
        content = content[:room]
        truncated = True
    return TokenSequence(
        ids=prefix + content + [EOS],
        instruction_span=(1, len(prefix)),
        truncated=truncated,
    )


def decode(seq: TokenSequence, vocab: Vocabulary) -> str:
    toks = [
        vocab.token_of(i)
        for i in seq.ids
        if i not in (PAD, BOS, EOS, SECTION_FINDINGS, SECTION_IMPRESSION)
    ]
    return detokenize(toks)


def apply_mntp_mask(
    seq: TokenSequence, p: float, rng: np.random.Generator
) -> TokenSequence:
    """Mask at least one content token, with each of the n content tokens
    masked at rate exactly p whenever p*n >= 1.

    The mask count is K = 1 + Binomial(n - 1, (p*n - 1) / (n - 1)), so
    E[K] = p*n, and K positions are then drawn uniformly without
    replacement. When p*n < 1 exactly one token is masked. (Redrawing
    independent per-token masks until one hits would instead bias the rate
    up to p / (1 - (1 - p)**n).) The one-mask minimum keeps the MNTP loss
    defined for every sequence."""
    if not 0.0 < p < 1.0:
        raise ValueError("mask probability must be in (0, 1)")
    lo, hi = seq.content_range()
    if hi <= lo:
        raise ValueError("sequence has no content to mask")
    n = hi - lo
    k = 1
    if p * n > 1.0:
        k += int(rng.binomial(n - 1, (p * n - 1.0) / (n - 1)))
    hit = np.sort(rng.choice(n, size=k, replace=False))
    ids = list(seq.ids)
    positions, targets = [], []
    for off in hit:
        pos = lo + int(off)
        positions.append(pos)
        targets.append(ids[pos])
        ids[pos] = MASK
    return replace(seq, ids=ids, mask_positions=positions, mask_targets=targets)
