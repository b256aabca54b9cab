"""AdamW behavior: group learning rates, state round trips, divergence."""

import numpy as np
import pytest

from cxalign.autodiff import Tensor
from cxalign.optim import AdamW, DivergenceError


def make_params(values):
    return {n: Tensor(np.asarray(v, dtype=np.float32), requires_grad=True) for n, v in values.items()}


def test_single_step_direction():
    params = make_params({"w": [1.0, -1.0]})
    params["w"].grad = np.array([1.0, -1.0], dtype=np.float32)
    opt = AdamW(group_lrs={"": 0.1}, weight_decay=0.0)
    opt.step(params)
    # Adam moves by ~lr against the gradient sign on the first step
    np.testing.assert_allclose(params["w"].data, [0.9, -0.9], atol=1e-3)


def test_weight_decay_is_decoupled():
    params = make_params({"w": [2.0]})
    params["w"].grad = np.array([0.0], dtype=np.float32)
    opt = AdamW(group_lrs={"": 0.5}, weight_decay=0.1)
    opt.step(params)
    # zero gradient: only the decay term lr*wd*w applies
    np.testing.assert_allclose(params["w"].data, [2.0 - 0.5 * 0.1 * 2.0], atol=1e-6)


def test_longest_prefix_group_wins():
    opt = AdamW(group_lrs={"": 1.0, "text.": 0.1, "text.l0.": 0.01})
    assert opt.lr_for("vision.w") == 1.0
    assert opt.lr_for("text.l1.wq") == 0.1
    assert opt.lr_for("text.l0.wq") == 0.01


def test_unmatched_parameter_rejected():
    opt = AdamW(group_lrs={"text.": 0.1})
    with pytest.raises(KeyError):
        opt.lr_for("vision.w")


def test_unmatched_parameter_raises_before_any_update():
    """A parameter that matches no group raises before an earlier one, its
    moments or the step count move."""
    params = make_params({"text.a": [1.0], "vision.b": [1.0]})
    params["text.a"].grad = np.array([1.0], dtype=np.float32)
    opt = AdamW(group_lrs={"text.": 0.1})
    opt.step(params)
    before = (params["text.a"].data.copy(), opt.m["text.a"].copy(), opt.v["text.a"].copy(), opt.t)
    params["vision.b"].grad = np.array([1.0], dtype=np.float32)
    with pytest.raises(KeyError, match="vision.b"):
        opt.step(params)
    after = (params["text.a"].data, opt.m["text.a"], opt.v["text.a"], opt.t)
    for was, now in zip(before, after):
        np.testing.assert_array_equal(now, was)
    assert "vision.b" not in opt.m and "vision.b" not in opt.v


def test_frozen_and_gradless_params_untouched():
    params = make_params({"a": [1.0], "b": [1.0]})
    params["a"].requires_grad = False
    opt = AdamW(group_lrs={"": 0.5})
    opt.step(params)
    np.testing.assert_array_equal(params["a"].data, [1.0])
    np.testing.assert_array_equal(params["b"].data, [1.0])


def test_nan_gradient_raises_divergence():
    params = make_params({"w": [1.0]})
    params["w"].grad = np.array([np.nan], dtype=np.float32)
    with pytest.raises(DivergenceError):
        AdamW(group_lrs={"": 0.1}).step(params)
    # a NaN in a later parameter's gradient leaves the earlier one, its
    # moments and the step count as they were
    params = make_params({"a": [1.0], "b": [1.0]})
    params["a"].grad = np.array([1.0], dtype=np.float32)
    opt = AdamW(group_lrs={"": 0.1})
    opt.step(params)
    before = (params["a"].data.copy(), opt.m["a"].copy(), opt.v["a"].copy(), opt.t)
    params["b"].grad = np.array([np.nan], dtype=np.float32)
    with pytest.raises(DivergenceError, match="'b'"):
        opt.step(params)
    after = (params["a"].data, opt.m["a"], opt.v["a"], opt.t)
    for was, now in zip(before, after):
        np.testing.assert_array_equal(now, was)
    assert "b" not in opt.m


def test_state_round_trip_preserves_trajectory(rng):
    def run(steps, opt=None, params=None):
        params = params or make_params({"w": rng.normal(size=8)})
        opt = opt or AdamW(group_lrs={"": 0.05})
        g = np.linspace(-1, 1, 8).astype(np.float32)
        for _ in range(steps):
            params["w"].grad = g * (1 + opt.t % 3)
            opt.step(params)
        return params, opt

    rng = np.random.default_rng(1)
    full, _ = run(10)

    rng = np.random.default_rng(1)
    half_params, half_opt = run(5)
    fresh = AdamW(group_lrs={"": 0.05})
    fresh.load_state_arrays(half_opt.state_arrays())
    resumed, _ = run(5, opt=fresh, params=half_params)
    np.testing.assert_array_equal(full["w"].data, resumed["w"].data)
