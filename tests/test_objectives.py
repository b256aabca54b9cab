"""Loss identities, invariances, and finite-difference gradient checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxalign import objectives as obj
from cxalign.autodiff import Tensor, backward, cross_entropy, l2_normalize
from cxalign.grammar.corpus import generate_corpus

from conftest import finite_difference, rel_error


def unit_rows(rng, n, d):
    x = rng.normal(size=(n, d)).astype(np.float32)
    return x / np.linalg.norm(x, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# clip_loss identities (Eq. 1)
# ---------------------------------------------------------------------------


def test_clip_loss_single_pair_is_zero(rng):
    v = Tensor(unit_rows(rng, 1, 8))
    assert float(obj.clip_loss(v, v, obj.init_log_tau()).data) == 0.0


def test_clip_loss_uniform_similarities_is_ln_n():
    v = Tensor(np.tile(np.eye(1, 8, dtype=np.float32), (4, 1)))
    loss = obj.clip_loss(v, v, math.log(1.0))
    assert abs(float(loss.data) - math.log(4)) < 1e-5


def test_clip_loss_identity_similarity_hand_value():
    """N=2 orthonormal rows, tau=1: hand-summed Eq. 1 gives 0.3133."""
    v = Tensor(np.eye(2, 4, dtype=np.float32))
    loss = obj.clip_loss(v, v, math.log(1.0))
    assert abs(float(loss.data) - 0.3132617) < 1e-4


def test_clip_loss_symmetric_under_tower_swap(rng):
    v, t = Tensor(unit_rows(rng, 5, 8)), Tensor(unit_rows(rng, 5, 8))
    log_tau = obj.init_log_tau()
    a = float(obj.clip_loss(v, t, log_tau).data)
    b = float(obj.clip_loss(t, v, log_tau).data)
    assert abs(a - b) < 1e-6


def test_clip_loss_permutation_invariant(rng):
    v, t = unit_rows(rng, 6, 8), unit_rows(rng, 6, 8)
    perm = rng.permutation(6)
    a = float(obj.clip_loss(Tensor(v), Tensor(t), math.log(0.5)).data)
    b = float(obj.clip_loss(Tensor(v[perm]), Tensor(t[perm]), math.log(0.5)).data)
    assert abs(a - b) < 1e-5


def test_clip_loss_nonnegative(rng):
    for seed in range(10):
        r = np.random.default_rng(seed)
        v, t = Tensor(unit_rows(r, 4, 8)), Tensor(unit_rows(r, 4, 8))
        assert float(obj.clip_loss(v, t, obj.init_log_tau()).data) >= 0.0


def test_clip_loss_rejects_empty_and_mismatched(rng):
    v = Tensor(unit_rows(rng, 3, 8))
    with pytest.raises(ValueError):
        obj.clip_loss(Tensor(np.zeros((0, 8), np.float32)), Tensor(np.zeros((0, 8), np.float32)), 0.0)
    with pytest.raises(Exception):
        obj.clip_loss(v, Tensor(unit_rows(rng, 4, 8)), 0.0)


def test_temperature_clamped():
    # tau floor 0.01: inverse capped at 100
    low = Tensor(np.array([math.log(1e-4)], dtype=np.float32), requires_grad=True)
    assert float(obj.inverse_tau(low).data[0]) == 100.0
    assert abs(float(obj.inverse_tau(obj.init_log_tau()).data[0]) - 1 / 0.07) < 1e-3


# ---------------------------------------------------------------------------
# supcon_loss
# ---------------------------------------------------------------------------


def test_supcon_hand_value_two_orthogonal():
    anchor = Tensor(np.eye(2, 4, dtype=np.float32))
    positive = Tensor(np.eye(2, 4, dtype=np.float32))
    loss = obj.supcon_loss(anchor, positive, labels=["a", "b"], tau=1.0)
    assert abs(float(loss.data) - 0.3132617) < 1e-4


def test_supcon_equidistant_is_ln_batch():
    n = 5
    anchor = Tensor(np.tile(np.eye(1, 8, dtype=np.float32), (n, 1)))
    positive = Tensor(np.tile(np.eye(1, 8, dtype=np.float32), (n, 1)))
    loss = obj.supcon_loss(anchor, positive, labels=list(range(n)), tau=1.0)
    assert abs(float(loss.data) - math.log(n)) < 1e-5


def test_supcon_same_label_masked_out():
    """Masking the only negative leaves a single-candidate softmax: 0."""
    anchor = Tensor(np.eye(2, 4, dtype=np.float32))
    positive = Tensor(np.array([[1, 0, 0, 0], [1, 0, 0, 0]], dtype=np.float32))
    loss = obj.supcon_loss(anchor, positive, labels=["same", "same"], tau=1.0)
    assert abs(float(loss.data)) < 1e-6


def test_supcon_batch_of_one_rejected(rng):
    x = Tensor(unit_rows(rng, 1, 4))
    with pytest.raises(ValueError):
        obj.supcon_loss(x, x, labels=["a"])


# ---------------------------------------------------------------------------
# mntp_loss
# ---------------------------------------------------------------------------


def test_mntp_uniform_logits_ln_vocab():
    logits = Tensor(np.zeros((2, 6, 32), dtype=np.float32))
    loss = obj.mntp_loss(logits, [4, 9], [(0, 2), (1, 3)])
    assert abs(float(loss.data) - math.log(32)) < 1e-4


def test_mntp_perfect_logits_near_zero(rng):
    logits = np.zeros((1, 4, 10), dtype=np.float32)
    logits[0, 1, 7] = 50.0
    loss = obj.mntp_loss(Tensor(logits), [7], [(0, 2)])
    assert float(loss.data) < 1e-4


def test_mntp_invariant_to_unmasked_positions(rng):
    base = rng.normal(size=(2, 5, 12)).astype(np.float32)
    other = base.copy()
    other[1, 4] += 3.0  # not a masked position
    a = float(obj.mntp_loss(Tensor(base), [3, 5], [(0, 1), (1, 2)]).data)
    b = float(obj.mntp_loss(Tensor(other), [3, 5], [(0, 1), (1, 2)]).data)
    assert a == b


def test_mntp_empty_mask_rejected(rng):
    with pytest.raises(ValueError):
        obj.mntp_loss(Tensor(np.zeros((1, 3, 5), np.float32)), [], [])


def test_mntp_shift_reads_previous_position(rng):
    logits = rng.normal(size=(1, 4, 8)).astype(np.float32)
    shifted = float(obj.mntp_loss(Tensor(logits), [2], [(0, 2)]).data)
    manual = float(cross_entropy(Tensor(logits[0, [1]]), [2]).data)
    assert abs(shifted - manual) < 1e-6
    with pytest.raises(ValueError):
        obj.mntp_loss(Tensor(logits), [2], [(0, 0)])


# ---------------------------------------------------------------------------
# finite-difference gradients (acceptance criterion 1)
# ---------------------------------------------------------------------------


def _fd_check(build, x0, tol=1e-3):
    x = Tensor(x0.copy(), requires_grad=True)
    backward(build(x))
    analytic = x.grad.astype(np.float64)

    def value(arr):
        return float(build(Tensor(arr.astype(np.float32))).data)

    # h balances truncation against float32 forward-pass roundoff
    numeric = finite_difference(value, x0.astype(np.float64), h=1e-2)
    assert rel_error(analytic, numeric) <= tol


@pytest.mark.parametrize("case", range(18))
def test_loss_gradients_randomized(case):
    """50+ randomized finite-difference cases across the three losses."""
    rng = np.random.default_rng(case)
    n = int(rng.integers(2, 9))
    d = int(rng.integers(3, 17))
    raw = rng.normal(size=(n, d)).astype(np.float32)

    other = Tensor(unit_rows(rng, n, d))
    log_tau = float(rng.normal(math.log(0.3), 0.2))
    _fd_check(lambda x: obj.clip_loss(l2_normalize(x), other, log_tau), raw)

    labels = [int(v) for v in rng.integers(0, max(n - 1, 2), size=n)]
    _fd_check(lambda x: obj.supcon_loss(l2_normalize(x), other, labels, tau=0.5), raw)

    T, V = int(rng.integers(2, 6)), int(rng.integers(4, 12))
    logits = rng.normal(size=(n, T, V)).astype(np.float32)
    # logits row p predicts the token at p + 1
    positions = [(b, int(rng.integers(0, T)) + 1) for b in range(n)]
    targets = [int(rng.integers(0, V)) for _ in range(n)]
    _fd_check(lambda x: obj.mntp_loss(x, targets, positions), logits)


def test_learnable_tau_gradient():
    rng = np.random.default_rng(123)
    v, t = Tensor(unit_rows(rng, 4, 8)), Tensor(unit_rows(rng, 4, 8))

    def build(x):
        return obj.clip_loss(v, t, x)

    _fd_check(build, np.array([math.log(0.07)], dtype=np.float32))


# ---------------------------------------------------------------------------
# pair construction
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def studies():
    return generate_corpus(60, seed=21)


def test_pair_stream_deterministic(studies):
    a = obj.build_contrastive_pairs(studies, np.random.default_rng([1, 2]))
    b = obj.build_contrastive_pairs(studies, np.random.default_rng([1, 2]))
    assert a == b


def test_pair_relations_and_instructions(studies):
    pairs = obj.build_contrastive_pairs(studies, np.random.default_rng(0))
    relations = {p.relation for p in pairs}
    assert relations == {"similar", "summarize", "status"}
    for p in pairs:
        if p.relation == "summarize":
            assert p.instruction == obj.INSTR_SUMMARIZE
        if p.relation == "status":
            assert p.positive_text.startswith("The ")
            assert p.label_key[0] == "status"


def test_mntp_pool_mix_proportions(studies):
    texts = obj.mntp_text_pool(studies)
    # budget: five variant slots per study, plus impressions and abbreviated
    assert len(texts) == 7 * len(studies)
    originals = sum(1 for t in texts if t == studies[0].findings_text and t)
    assert originals >= 1
