"""Gradient checks for the autograd kernels against central differences."""

import numpy as np
import pytest

import admitsim.autograd as ag
from oracles import lstm_per_step, max_rel_err, numeric_gradient


def check_against_numeric(build_loss, params, tol=1e-4):
    """Compare analytic grads for each param with central differences."""
    for p in params:
        p.zero_grad()
    loss = build_loss()
    ag.backward(loss)
    analytic = [p.grad.copy() for p in params]

    for p, got in zip(params, analytic):
        saved = p.data.copy()

        def fn(x, p=p):
            p.data = x.copy()
            return float(build_loss().data)

        want = numeric_gradient(fn, saved)
        p.data = saved
        err = max_rel_err(got, want)
        assert err < tol, f"param {getattr(p, 'name', '?')}: rel err {err:.2e}"


def make_param(rng, shape, name):
    return ag.Parameter(rng.standard_normal(shape), name=name)


def test_add_mul_broadcast():
    rng = np.random.default_rng(0)
    a = make_param(rng, (3, 4, 5), "a")
    bias = make_param(rng, (5,), "bias")
    scale = make_param(rng, (4, 1), "scale")

    def loss():
        out = ag.mul(ag.add(a, bias), scale)
        return ag.tsum(ag.mul(out, out))

    check_against_numeric(loss, [a, bias, scale])


def test_matmul_plain_and_batched():
    rng = np.random.default_rng(1)
    x = make_param(rng, (4, 6), "x")
    w = make_param(rng, (6, 3), "w")
    xb = make_param(rng, (2, 5, 6), "xb")

    def loss_plain():
        return ag.tsum(ag.tanh(ag.matmul(x, w)))

    def loss_batched():
        return ag.tsum(ag.sigmoid(ag.matmul(xb, w)))

    check_against_numeric(loss_plain, [x, w])
    check_against_numeric(loss_batched, [xb, w])


def test_reshape_transpose_narrow_select():
    rng = np.random.default_rng(2)
    x = make_param(rng, (3, 6, 4), "x")
    positions = np.array([1, 0, 5])

    def loss():
        t = ag.transpose(x, (0, 2, 1))          # (3, 4, 6)
        r = ag.reshape(t, (3, 24))
        n = ag.narrow(r, 1, 4, 10)
        picked = ag.select_positions(x, positions)
        return ag.add(ag.tsum(ag.mul(n, n)), ag.tsum(picked))

    check_against_numeric(loss, [x])


def test_sum_mean_axes():
    rng = np.random.default_rng(3)
    x = make_param(rng, (4, 5), "x")

    def loss():
        part = ag.tsum(x, axis=1, keepdims=True)
        return ag.tsum(ag.mul(part, ag.tmean(x, axis=1, keepdims=True)))

    check_against_numeric(loss, [x])


@pytest.mark.parametrize("act", [ag.sigmoid, ag.tanh, ag.gelu])
def test_activations(act):
    rng = np.random.default_rng(4)
    x = make_param(rng, (6, 7), "x")

    def loss():
        return ag.tsum(ag.mul(act(x), act(x)))

    check_against_numeric(loss, [x])


def test_softmax_rows_sum_to_one_and_grad():
    rng = np.random.default_rng(5)
    x = make_param(rng, (3, 4, 6), "x")
    out = ag.softmax(x)
    np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)

    v = np.random.default_rng(6).standard_normal((3, 4, 6))

    def loss():
        return ag.tsum(ag.mul(ag.softmax(x), ag.tensor(v)))

    check_against_numeric(loss, [x])


def test_layer_norm_grad_and_moments():
    rng = np.random.default_rng(7)
    x = make_param(rng, (4, 5, 8), "x")
    gain = make_param(rng, (8,), "gain")
    bias = make_param(rng, (8,), "bias")

    normed = ag.layer_norm(x, ag.Parameter(np.ones(8), "g1"), ag.Parameter(np.zeros(8), "b0"))
    np.testing.assert_allclose(normed.data.mean(axis=-1), 0.0, atol=1e-10)
    np.testing.assert_allclose(normed.data.std(axis=-1), 1.0, atol=1e-4)

    v = np.random.default_rng(8).standard_normal((4, 5, 8))

    def loss():
        return ag.tsum(ag.mul(ag.layer_norm(x, gain, bias), ag.tensor(v)))

    check_against_numeric(loss, [x, gain, bias])


def test_embedding_sum_matches_add_at():
    rng = np.random.default_rng(9)
    h = 5
    # with three tokens over four channels every position repeats a token
    for vocab in (11, 3):
        table = ag.Parameter(rng.standard_normal((vocab, h)), "emb")
        idx = rng.integers(0, vocab, size=(3, 4, 6))

        out = ag.embedding_sum(table, idx)
        np.testing.assert_allclose(out.data, table.data[idx].sum(axis=1), atol=0)

        g = rng.standard_normal(out.data.shape)
        loss = ag.tsum(ag.mul(out, ag.tensor(g)))
        ag.backward(loss)

        want = np.zeros_like(table.data)
        np.add.at(want, idx.reshape(-1), np.broadcast_to(g[:, None, :, :], (3, 4, 6, h)).reshape(-1, h))
        np.testing.assert_allclose(table.grad, want, atol=1e-12)


def test_embedding_sum_numeric_grad():
    rng = np.random.default_rng(10)
    table = ag.Parameter(rng.standard_normal((7, 4)), "emb")
    idx = rng.integers(0, 7, size=(2, 3, 5))

    def loss():
        out = ag.embedding_sum(table, idx)
        return ag.tsum(ag.mul(out, out))

    check_against_numeric(loss, [table])


def _lstm_weights(rng, d, h, name):
    return (
        ag.Parameter(rng.standard_normal((d, 4 * h)) / np.sqrt(d), f"{name}.wx"),
        ag.Parameter(rng.standard_normal((h, 4 * h)) / np.sqrt(h), f"{name}.wh"),
        ag.Parameter(0.5 * rng.standard_normal(4 * h), f"{name}.bias"),
    )


@pytest.mark.parametrize("n_layers", [1, 2])
def test_lstm_layer_matches_per_step_oracle(n_layers):
    rng = np.random.default_rng(16)
    b, l, d, h = 5, 7, 4, 3
    x = ag.Parameter(rng.standard_normal((b, l, d)), "x")
    layers = [_lstm_weights(rng, d if i == 0 else h, h, f"layer{i}") for i in range(n_layers)]
    lengths = np.array([7, 3, 1, 0, 5])
    v = rng.standard_normal((b, h))
    params = [x] + [w for layer in layers for w in layer]

    def fused():
        out = x
        for wx, wh, bias in layers:
            out = ag.lstm_layer(out, wx, wh, bias)
        last = ag.select_positions(out, np.maximum(lengths - 1, 0))
        return ag.mul(last, ag.tensor((lengths > 0)[:, None].astype(float)))

    results = []
    for build in (fused, lambda: lstm_per_step(x, layers, lengths)):
        for p in params:
            p.zero_grad()
        last = build()
        ag.backward(ag.tsum(ag.mul(last, ag.tensor(v))))
        results.append((last.data, [p.grad.copy() for p in params]))
    (got, got_grads), (want, want_grads) = results
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(got[3], 0.0)
    for p, gg, wg in zip(params, got_grads, want_grads):
        np.testing.assert_allclose(gg, wg, rtol=0, atol=1e-12, err_msg=p.name)


def test_lstm_layer_gradcheck():
    rng = np.random.default_rng(17)
    x = ag.Parameter(rng.standard_normal((2, 4, 3)), "x")
    wx, wh, bias = _lstm_weights(rng, 3, 2, "layer0")
    v = rng.standard_normal((2, 4, 2))

    def loss():
        return ag.tsum(ag.mul(ag.lstm_layer(x, wx, wh, bias), ag.tensor(v)))

    check_against_numeric(loss, [x, wx, wh, bias])


def test_logistic_matches_exp_form_and_never_overflows():
    z = np.linspace(-30.0, 30.0, 121)
    np.testing.assert_allclose(ag.logistic(z), 1.0 / (1.0 + np.exp(-z)), rtol=1e-12, atol=1e-15)
    with np.errstate(all="raise"):
        extreme = ag.logistic(np.array([-1e4, 1e4], dtype=np.float32))
    assert extreme.dtype == np.float32
    np.testing.assert_array_equal(extreme, [0.0, 1.0])


def test_bce_with_logits_value_and_grad():
    rng = np.random.default_rng(11)
    z = make_param(rng, (50,), "z")
    y = (rng.random(50) < 0.4).astype(float)

    loss = ag.bce_with_logits(z, y)
    p = 1.0 / (1.0 + np.exp(-z.data))
    want = -(y * np.log(p) + (1 - y) * np.log(1 - p)).mean()
    np.testing.assert_allclose(float(loss.data), want, rtol=1e-10)

    def loss_fn():
        return ag.bce_with_logits(z, y)

    check_against_numeric(loss_fn, [z])


def test_bce_extreme_logits_finite():
    z = ag.tensor(np.array([60.0, -60.0]), requires_grad=True)
    y = np.array([0.0, 1.0])
    loss = ag.bce_with_logits(z, y)
    assert np.isfinite(float(loss.data))
    ag.backward(loss)
    assert np.all(np.isfinite(z.grad))


def test_randomized_composite_gradchecks():
    rng = np.random.default_rng(12)
    for trial in range(60):
        b = int(rng.integers(1, 4))
        l = int(rng.integers(2, 8))
        h = 2 * int(rng.integers(1, 8))
        x = ag.Parameter(rng.standard_normal((b, l, h)), "x")
        w = ag.Parameter(rng.standard_normal((h, h)) / np.sqrt(h), "w")
        gain = ag.Parameter(1.0 + 0.1 * rng.standard_normal(h), "gain")
        bias = ag.Parameter(0.1 * rng.standard_normal(h), "bias")
        wout = ag.Parameter(rng.standard_normal((h, 1)) / np.sqrt(h), "wout")
        y = (rng.random(b) < 0.5).astype(float)

        def loss():
            hidden = ag.gelu(ag.matmul(x, w))
            normed = ag.layer_norm(ag.add(hidden, x), gain, bias)
            pooled = ag.tmean(normed, axis=1)
            logits = ag.reshape(ag.matmul(pooled, wout), (b,))
            return ag.bce_with_logits(logits, y)

        check_against_numeric(loss, [x, w, gain, bias, wout])


def test_attention_shaped_gradcheck():
    rng = np.random.default_rng(13)
    b, heads, l, hd = 2, 2, 4, 3
    q = ag.Parameter(rng.standard_normal((b, heads, l, hd)), "q")
    k = ag.Parameter(rng.standard_normal((b, heads, l, hd)), "k")
    v = ag.Parameter(rng.standard_normal((b, heads, l, hd)), "v")
    mask = np.where(np.arange(l) >= 3, -1e9, 0.0)[None, None, None, :]

    def loss():
        scores = ag.matmul(q, ag.transpose(k, (0, 1, 3, 2)))
        scores = ag.add(ag.mul(scores, 1.0 / np.sqrt(hd)), ag.tensor(mask))
        attn = ag.softmax(scores)
        out = ag.matmul(attn, v)
        return ag.tsum(ag.mul(out, out))

    check_against_numeric(loss, [q, k, v])


def test_backward_twice_raises():
    x = ag.Parameter(np.arange(3.0), "x")
    loss = ag.tsum(ag.mul(x, x))
    ag.backward(loss)
    with pytest.raises(RuntimeError):
        ag.backward(loss)


def test_backward_requires_scalar():
    x = ag.Parameter(np.arange(3.0), "x")
    with pytest.raises(ValueError):
        ag.backward(ag.mul(x, x))


def test_dropout_eval_identity_and_train_scaling():
    rng = np.random.default_rng(14)
    x = ag.tensor(np.ones((200, 50)), requires_grad=True)

    out_eval = ag.dropout(x, 0.3, np.random.default_rng(0), training=False)
    assert out_eval is x

    out = ag.dropout(x, 0.3, rng, training=True)
    kept = out.data != 0
    assert abs(kept.mean() - 0.7) < 0.02
    np.testing.assert_allclose(out.data[kept], 1.0 / 0.7, rtol=1e-12)

    loss = ag.tsum(out)
    ag.backward(loss)
    np.testing.assert_allclose(x.grad[kept], 1.0 / 0.7, rtol=1e-12)
    np.testing.assert_allclose(x.grad[~kept], 0.0, atol=0)


def test_adamw_decay_is_decoupled():
    w = ag.Parameter(np.full(4, 2.0), "w")
    opt = ag.AdamW([w], lr=1.0, weight_decay=0.01)
    w.grad = np.zeros(4)
    opt.step()
    np.testing.assert_allclose(w.data, 2.0 * 0.99, rtol=1e-12)


def test_adamw_moves_against_gradient():
    w = ag.Parameter(np.zeros(3), "w")
    opt = ag.AdamW([w], lr=0.1, weight_decay=0.0)
    w.grad = np.array([1.0, -1.0, 0.0])
    opt.step()
    assert w.data[0] < 0 and w.data[1] > 0 and w.data[2] == 0


def test_frozen_row_stays_zero_through_training():
    rng = np.random.default_rng(15)
    table = ag.Parameter(rng.standard_normal((6, 4)), "emb", frozen_rows=(1,))
    w = ag.Parameter(rng.standard_normal((4, 1)), "w")
    opt = ag.AdamW([table, w], lr=1e-2)
    idx = rng.integers(0, 6, size=(8, 3, 5))
    y = (rng.random(8) < 0.5).astype(float)

    np.testing.assert_array_equal(table.data[1], 0.0)
    for _ in range(100):
        opt.zero_grad()
        pooled = ag.tmean(ag.embedding_sum(table, idx), axis=1)
        logits = ag.reshape(ag.matmul(pooled, w), (8,))
        ag.backward(ag.bce_with_logits(logits, y))
        opt.step()
    np.testing.assert_array_equal(table.data[1], 0.0)
    assert np.abs(table.data[0]).max() > 0


def test_lr_schedule_shape():
    peak = 3e-4
    assert ag.lr_schedule(0, peak, warmup=100, total=1000) == 0.0
    assert ag.lr_schedule(100, peak, warmup=100, total=1000) == pytest.approx(peak)
    assert ag.lr_schedule(550, peak, warmup=100, total=1000) == pytest.approx(peak * 0.5)
    assert ag.lr_schedule(1000, peak, warmup=100, total=1000) == 0.0
    ramp = [ag.lr_schedule(s, peak, warmup=100, total=1000) for s in range(101)]
    assert all(b > a for a, b in zip(ramp, ramp[1:]))
    tail = [ag.lr_schedule(s, peak, warmup=100, total=1000) for s in range(100, 1001)]
    assert all(b <= a for a, b in zip(tail, tail[1:]))


def test_constant_subgraphs_are_pruned():
    x = ag.tensor(np.ones(3))
    y = ag.tensor(np.ones(3))
    out = ag.add(ag.mul(x, y), 1.0)
    assert not out.requires_grad
    assert out._parents == ()
