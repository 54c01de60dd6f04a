import json
import math
import struct

import numpy as np
import pytest

import admitsim.autograd as ag
from admitsim._seeds import substream
from admitsim.cohort import GeneratorConfig, generate_cohort, temporal_split, validation_split
from admitsim.models.sequence import (
    LSTMClassifier,
    LSTMConfig,
    TransformerClassifier,
    TransformerConfig,
    evaluate_loss,
    load_checkpoint,
    predict_proba,
    save_checkpoint,
    train_sequence_model,
)
from admitsim.seqenc import (
    CLS,
    NULL,
    PAD,
    TokenSequenceBatch,
    build_vocabulary,
    compute_L,
    encode_cohort,
    fit_binning_rules,
    sequence_lengths,
)
from oracles import max_rel_err, numeric_gradient, transformer_full_sequence

VOCAB = 24


def rand_batch(n=6, c=4, length=7, seed=0, vocab_hash="", dtype=np.int32):
    rng = substream(seed, "rand-batch")
    tokens = rng.integers(4, VOCAB, size=(n, c, length)).astype(dtype)
    tokens[:, 0, 0] = CLS
    tokens[:, 1:, 0] = NULL
    lengths = rng.integers(1, length + 1, size=n).astype(np.int32)
    for i in range(n):
        tokens[i, :, lengths[i] :] = PAD
    labels = rng.integers(0, 2, size=n).astype(np.int8)
    return TokenSequenceBatch(
        tokens=tokens,
        lengths=lengths,
        student_ids=np.arange(n, dtype=np.int64),
        labels=labels,
        variant="academic",
        vocab_hash=vocab_hash,
    )


def tiny_transformer(dtype="float64", dropout=0.0, seed=3):
    cfg = TransformerConfig(n_layers=1, hidden=8, n_heads=2, ff_hidden=16, dropout=dropout, dtype=dtype)
    return TransformerClassifier(VOCAB, cfg, seed=seed)


def tiny_lstm(dtype="float64", dropout=0.0, seed=4):
    cfg = LSTMConfig(n_layers=2, hidden=6, dropout=dropout, dtype=dtype)
    return LSTMClassifier(VOCAB, cfg, seed=seed)


def check_param_grads(model, batch, tol=1e-4):
    params = model.params()

    def build_loss():
        logits = model.forward(batch.tokens, batch.lengths)
        return ag.bce_with_logits(logits, batch.labels)

    for p in params:
        p.zero_grad()
    loss = build_loss()
    ag.backward(loss)
    analytic = [(p, p.grad.copy() if p.grad is not None else np.zeros_like(p.data)) for p in params]

    for p, got in analytic:
        saved = p.data.copy()

        def fn(x, p=p):
            p.data = x.copy()
            return float(build_loss().data)

        want = numeric_gradient(fn, saved)
        p.data = saved
        err = max_rel_err(got, want)
        assert err < tol, f"param {p.name}: rel err {err:.2e}"


# ---------------------------------------------------------------------------
# construction and validation


def test_config_validation():
    with pytest.raises(ValueError, match="heads"):
        TransformerClassifier(VOCAB, TransformerConfig(hidden=30, n_heads=4))
    with pytest.raises(ValueError, match="dropout"):
        TransformerClassifier(VOCAB, TransformerConfig(dropout=1.0))
    with pytest.raises(ValueError, match="layer"):
        LSTMClassifier(VOCAB, LSTMConfig(n_layers=0))
    with pytest.raises(ValueError, match="reserved"):
        TransformerClassifier(3, TransformerConfig())


def test_untrained_predictions_hover_at_half():
    batch = rand_batch(n=32)
    for model in (tiny_transformer("float32"), tiny_lstm("float32")):
        p = predict_proba(model, batch)
        assert np.abs(p - 0.5).max() < 0.2


def test_training_requires_rng_for_dropout():
    batch = rand_batch()
    model = tiny_transformer(dropout=0.1)
    with pytest.raises(ValueError, match="rng"):
        model.forward(batch.tokens, batch.lengths, training=True, rng=None)


# ---------------------------------------------------------------------------
# padding and masking


@pytest.mark.parametrize("factory", [tiny_transformer, tiny_lstm])
def test_padding_extension_is_exact(factory):
    model = factory()
    batch = rand_batch(n=5, length=6, seed=8)
    extra = np.full((5, batch.n_channels, 9), PAD, dtype=np.int32)
    wide = np.concatenate([batch.tokens, extra], axis=2)
    a = model.forward(batch.tokens, batch.lengths).data
    b = model.forward(wide, batch.lengths).data
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("factory", [tiny_transformer, tiny_lstm])
def test_padded_positions_get_zero_gradient(factory):
    model = factory()
    batch = rand_batch(n=5, length=6, seed=9)
    emb = model.embed(batch.tokens)
    logits = model.forward_from_embeddings(emb, batch.lengths)
    ag.backward(ag.tsum(logits))
    for i, ln in enumerate(batch.lengths):
        tail = emb.grad[i, ln:, :]
        assert np.all(tail == 0.0)
        assert np.any(emb.grad[i, :ln, :] != 0.0)


def test_garbage_on_padded_positions_is_ignored():
    model = tiny_transformer()
    batch = rand_batch(n=4, length=6, seed=10)
    noisy = batch.tokens.copy()
    rng = substream(1, "garbage")
    for i, ln in enumerate(batch.lengths):
        if ln < 6:
            noisy[i, :, ln:] = rng.integers(4, VOCAB, size=(batch.n_channels, 6 - ln))
    a = model.forward(batch.tokens, batch.lengths).data
    b = model.forward(noisy, batch.lengths).data
    np.testing.assert_allclose(a, b, atol=1e-12)


# ---------------------------------------------------------------------------
# gradients


def test_transformer_gradcheck():
    model = tiny_transformer()
    check_param_grads(model, rand_batch(n=3, c=3, length=5, seed=12))


def test_lstm_gradcheck():
    model = tiny_lstm()
    check_param_grads(model, rand_batch(n=3, c=3, length=5, seed=13))


@pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
@pytest.mark.parametrize("n_layers", [1, 2, 3])
def test_transformer_matches_full_sequence_oracle(n_layers, training):
    cfg = TransformerConfig(n_layers=n_layers, hidden=8, n_heads=2, ff_hidden=16, dropout=0.3, dtype="float64")
    model = TransformerClassifier(VOCAB, cfg, seed=6)
    # weights far from the small init, so every path carries a visible gradient
    rng = substream(6, "oracle-weights")
    for p in model.params():
        p.data = rng.normal(0.0, 0.5, p.shape)
        p.data[list(p.frozen_rows)] = 0.0
    batch = rand_batch(n=6, length=7, seed=14)
    tokens, lengths = batch.tokens.copy(), batch.lengths.copy()
    tokens[2], lengths[2] = PAD, 0
    v = rng.standard_normal(len(lengths))

    results = []
    for build in (model.forward_from_embeddings, lambda *a: transformer_full_sequence(model, *a)):
        for p in model.params():
            p.zero_grad()
        drop_rng = np.random.default_rng(21)
        emb = model.embed(tokens)
        logits = build(emb, lengths, training, drop_rng)
        ag.backward(ag.tsum(ag.mul(logits, ag.tensor(v))))
        grads = {p.name: p.grad.copy() for p in model.params()}
        results.append((logits.data, grads, emb.grad, drop_rng.random()))
    (got, got_grads, got_emb, got_next), (want, want_grads, want_emb, want_next) = results
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    for name, wg in want_grads.items():
        np.testing.assert_allclose(got_grads[name], wg, rtol=0, atol=1e-12, err_msg=name)
    np.testing.assert_allclose(got_emb, want_emb, rtol=0, atol=1e-12)
    assert got_next == want_next


# ---------------------------------------------------------------------------
# training loop


@pytest.fixture(scope="module")
def encoded():
    cohort = generate_cohort(GeneratorConfig(n_students=700, n_programs=8), seed=23)
    train_c, test_c = temporal_split(cohort)
    train_c, val_c = validation_split(train_c, fraction=0.15, seed=23)
    rules = fit_binning_rules(train_c)
    vocab = build_vocabulary(train_c, "academic", min_count=5, rules=rules)
    L = compute_L(sequence_lengths(train_c, "academic", rules))
    train = encode_cohort(train_c, vocab, rules, L)
    val = encode_cohort(val_c, vocab, rules, L)
    test = encode_cohort(test_c, vocab, rules, L)
    return vocab, train, val, test


def test_transformer_training_learns(encoded):
    vocab, train, val, _ = encoded
    cfg = TransformerConfig(n_layers=1, hidden=32, n_heads=2, dropout=0.1)
    model = TransformerClassifier(len(vocab), cfg, seed=5, vocab_hash=vocab.vocab_hash())
    history = train_sequence_model(model, train, val, seed=5, epochs=8, batch_size=128, warmup=5, peak_lr=2e-3)
    assert len(history["train_loss"]) == history["epochs_run"] <= 8
    assert history["train_loss"][-1] < history["train_loss"][0]
    assert history["val_loss"][history["best_epoch"]] == min(history["val_loss"])
    assert auc_of(model, train) > 0.6
    assert history["val_auc"][-1] > 0.55


def test_lstm_training_learns(encoded):
    vocab, train, val, _ = encoded
    cfg = LSTMConfig(n_layers=1, hidden=24, dropout=0.0)
    model = LSTMClassifier(len(vocab), cfg, seed=6, vocab_hash=vocab.vocab_hash())
    history = train_sequence_model(model, train, val, seed=6, epochs=6, batch_size=128, warmup=5, peak_lr=2e-3)
    assert history["train_loss"][-1] < history["train_loss"][0]
    assert auc_of(model, train) > 0.6
    assert history["val_auc"][-1] > 0.55


def auc_of(model, batch):
    from admitsim.policy import auc

    return auc(predict_proba(model, batch), batch.labels)


def test_best_epoch_weights_are_restored(encoded):
    vocab, train, val, _ = encoded
    shuffled = val.subset(np.arange(len(val)))
    rng = substream(99, "label-noise")
    shuffled.labels = rng.permutation(shuffled.labels)  # noise target forces early plateau
    model = TransformerClassifier(len(vocab), TransformerConfig(n_layers=1, hidden=16, n_heads=2, dtype="float64"), seed=7, vocab_hash=vocab.vocab_hash())
    history = train_sequence_model(model, train, shuffled, seed=7, epochs=5, patience=1, batch_size=256)
    assert history["epochs_run"] <= 5
    restored = evaluate_loss(model, shuffled, 256)
    assert restored == pytest.approx(min(history["val_loss"]), abs=1e-12)


def test_frozen_embedding_rows_survive_training(encoded):
    vocab, train, val, _ = encoded
    model = LSTMClassifier(len(vocab), LSTMConfig(n_layers=1, hidden=12), seed=8, vocab_hash=vocab.vocab_hash())
    train_sequence_model(model, train, val, seed=8, epochs=1, batch_size=256)
    emb = model._params["embedding"].data
    assert np.all(emb[PAD] == 0.0)
    assert np.all(emb[NULL] == 0.0)
    assert np.any(emb[CLS] != 0.0)


def test_validation_is_scored_in_one_forward_pass():
    model = tiny_transformer()
    train, val = rand_batch(n=10, seed=1), rand_batch(n=7, seed=2)
    calls = []
    forward = model.forward

    def counted(*args, **kwargs):
        calls.append(1)
        return forward(*args, **kwargs)

    model.forward = counted
    train_sequence_model(model, train, val, epochs=1, batch_size=4, warmup=1)
    assert len(calls) == math.ceil(len(train) / 4) + math.ceil(len(val) / 4)


def test_float64_rerun_is_bit_identical(encoded):
    vocab, train, val, test = encoded

    def run():
        cfg = TransformerConfig(n_layers=1, hidden=16, n_heads=2, dtype="float64")
        model = TransformerClassifier(len(vocab), cfg, seed=9, vocab_hash=vocab.vocab_hash())
        train_sequence_model(model, train, val, seed=9, epochs=2, batch_size=256)
        return model

    a, b = run(), run()
    for name in a._params:
        assert np.array_equal(a._params[name].data, b._params[name].data), name
    np.testing.assert_array_equal(predict_proba(a, test), predict_proba(b, test))


# ---------------------------------------------------------------------------
# hash guards and checkpoints


def test_vocab_hash_guard():
    model = tiny_transformer()
    model.vocab_hash = "aaaa"
    batch = rand_batch(vocab_hash="bbbb")
    with pytest.raises(ValueError, match="different vocabulary"):
        predict_proba(model, batch)
    with pytest.raises(ValueError, match="different vocabulary"):
        train_sequence_model(model, batch, batch, epochs=1)


@pytest.mark.parametrize("factory", [tiny_transformer, tiny_lstm])
def test_checkpoint_round_trip(factory, tmp_path):
    model = factory("float32")
    model.vocab_hash = "cafe"
    batch = rand_batch(n=10, vocab_hash="cafe")
    path = tmp_path / "model.bin"
    save_checkpoint(model, path)
    clone = load_checkpoint(path)
    assert clone.arch == model.arch
    assert clone.config == model.config
    assert clone.vocab_hash == "cafe"
    np.testing.assert_array_equal(predict_proba(clone, batch), predict_proba(model, batch))


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTAMODEL")
    with pytest.raises(ValueError, match="checkpoint"):
        load_checkpoint(path)

    model = tiny_lstm()
    good = tmp_path / "good.bin"
    save_checkpoint(model, good)
    good.write_bytes(good.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match="trailing"):
        load_checkpoint(good)


def _rewrite_checkpoint(path, edit):
    """Re-pack a float64 checkpoint after ``edit`` changes its (name, array) list."""
    raw = path.read_bytes()
    magic = raw[:6]
    (blob_len,) = struct.unpack("<I", raw[6:10])
    header = json.loads(raw[10 : 10 + blob_len].decode())
    at = 10 + blob_len
    tensors = []
    for name, shape in header["tensors"]:
        count = int(np.prod(shape))
        tensors.append((name, np.frombuffer(raw[at : at + 8 * count], dtype="<f8").reshape(shape)))
        at += 8 * count
    tensors = edit(tensors)
    header["tensors"] = [[name, list(arr.shape)] for name, arr in tensors]
    blob = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(magic + struct.pack("<I", len(blob)) + blob + b"".join(a.astype("<f8").tobytes() for _, a in tensors))


def test_checkpoint_rejects_missing_tensor(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(tiny_lstm(), path)
    _rewrite_checkpoint(path, lambda ts: [(n, a) for n, a in ts if n != "head.bias"])
    with pytest.raises(ValueError, match="missing .*head.bias"):
        load_checkpoint(path)


@pytest.mark.parametrize("reshape", [lambda a: a.T, lambda a: a[:-1]], ids=["transposed", "truncated"])
def test_checkpoint_rejects_wrong_shape(tmp_path, reshape):
    path = tmp_path / "model.bin"
    save_checkpoint(tiny_lstm(), path)
    _rewrite_checkpoint(path, lambda ts: [(n, reshape(a) if n == "head.weight" else a) for n, a in ts])
    with pytest.raises(ValueError, match="head.weight.*shape"):
        load_checkpoint(path)
