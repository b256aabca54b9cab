"""Tokenizer: reserved ids, round trips, layout, MNTP masking."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxalign import tokenizer as tk
from cxalign.grammar.corpus import generate_corpus
from cxalign.pipeline import corpus_vocab


@pytest.fixture(scope="module")
def vocab():
    return corpus_vocab(generate_corpus(40, seed=11))


def test_reserved_ids_fixed():
    assert (tk.PAD, tk.MASK, tk.BOS, tk.EOS) == (0, 1, 2, 3)
    assert tk.SECTION_IDS == {"findings": 4, "impression": 5}
    assert tk.UNK == 6


def test_vocab_reserved_first(vocab):
    for i, token in enumerate(tk.RESERVED_TOKENS):
        assert vocab.token_of(i) == token


def test_encode_decode_round_trip(vocab):
    text = "There is a moderate opacity in the right lower lung field."
    seq = tk.encode(text, vocab)
    assert tk.decode(seq, vocab) == text.lower()


def test_encode_layout_with_instruction_and_section(vocab):
    seq = tk.encode("No pneumothorax.", vocab, instruction="Summarize the CXR report.", section="findings")
    assert seq.ids[0] == tk.BOS
    assert seq.ids[-1] == tk.EOS
    lo, hi = seq.content_range()
    assert seq.ids[lo - 1] == tk.SECTION_IDS["findings"]
    assert hi == len(seq.ids) - 1
    # decoding skips structural tokens but keeps instruction words
    assert tk.decode(seq, vocab).endswith("no pneumothorax.")


def test_unknown_token_raises(vocab):
    with pytest.raises(tk.UnknownTokenError):
        tk.encode("xylophone", vocab)


def test_truncation_flag(vocab):
    long = " ".join(["The lungs are clear."] * 80)
    seq = tk.encode(long, vocab, max_len=32)
    assert seq.truncated and len(seq.ids) == 32


def test_mask_targets_recorded(vocab):
    seq = tk.encode("There is a small granuloma in the left upper lung field.", vocab)
    masked = tk.apply_mntp_mask(seq, 0.2, np.random.default_rng(0))
    assert masked.mask_positions
    for pos, target in zip(masked.mask_positions, masked.mask_targets):
        assert masked.ids[pos] == tk.MASK
        assert seq.ids[pos] == target
    lo, hi = seq.content_range()
    assert all(lo <= p < hi for p in masked.mask_positions)


def test_mask_rate_calibration(vocab):
    """Realized mask rate 0.2 +/- 0.01 over 10,000 sequences."""
    seq = tk.encode(
        "There is a moderate opacity in the right lower lung field. "
        "The heart is enlarged. No pleural effusion is seen.",
        vocab,
    )
    rng = np.random.default_rng(42)
    lo, hi = seq.content_range()
    masked = total = 0
    for _ in range(10_000):
        m = tk.apply_mntp_mask(seq, 0.2, rng)
        masked += len(m.mask_positions)
        total += hi - lo
    assert abs(masked / total - 0.2) <= 0.01


def test_mask_always_nonempty(vocab):
    seq = tk.encode("Clear.", vocab)
    rng = np.random.default_rng(7)
    for _ in range(200):
        assert tk.apply_mntp_mask(seq, 0.05, rng).mask_positions


def test_mask_rate_per_position(vocab):
    """Every content position, not just the average, is masked at rate p."""
    seq = tk.encode("There is a moderate opacity in the right lower lung field.", vocab)
    lo, hi = seq.content_range()
    rng = np.random.default_rng(11)
    hits = np.zeros(len(seq.ids))
    trials = 20_000
    for _ in range(trials):
        hits[tk.apply_mntp_mask(seq, 0.2, rng).mask_positions] += 1
    rates = hits[lo:hi] / trials
    assert np.all(np.abs(rates - 0.2) <= 0.015), rates
    assert not hits[:lo].any() and not hits[hi:].any()


def test_mask_exactly_one_when_rate_below_one_token(vocab):
    seq = tk.encode("No pleural effusion is seen.", vocab)
    lo, hi = seq.content_range()
    assert 0.1 * (hi - lo) < 1
    rng = np.random.default_rng(12)
    seen = set()
    for _ in range(500):
        m = tk.apply_mntp_mask(seq, 0.1, rng)
        assert len(m.mask_positions) == 1
        seen.update(m.mask_positions)
    assert seen == set(range(lo, hi))


def test_vocab_save_load_round_trip(vocab, tmp_path):
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    loaded = tk.Vocabulary.load(path)
    assert loaded.tokens == vocab.tokens


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from("no opacity right left lung field . ,".split()), min_size=1, max_size=12))
def test_round_trip_property(vocab, words):
    text = tk.detokenize(words)
    seq = tk.encode(text, vocab)
    assert tk.decode(seq, vocab) == text.lower()
