"""Sequence classifiers over multi-channel token grids.

Both architectures share the same front end: every channel of a position
is looked up in one shared embedding table and the rows are summed, so a
position's representation is the sum of its channel embeddings.  The
[PAD] and [Null] rows are pinned at zero, which makes padded positions
exact no-ops.  No positional encodings are added; the relative-year
channel already carries event timing.

The transformer is pre-norm with a final layer norm and reads the
prepended first position as its pooled summary.  Its last block computes
only that pooled position: keys and values span the whole sequence, while
queries, the residual stream, the feed-forward layer and the final layer
norm see position 0 alone.  Each dropout mask there is the leading slice of
a mask drawn over the full shape, so the dropout stream is the same as if
every position had been computed.  The LSTM reads the
hidden state at each student's last real position.  Training is AdamW
with linear warmup and cosine decay, early stopping on validation loss,
and restoration of the best epoch's weights.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .. import autograd as ag
from .._seeds import substream
from ..policy import auc
from ..seqenc import NULL, PAD, TokenSequenceBatch

__all__ = [
    "TransformerConfig",
    "LSTMConfig",
    "TransformerClassifier",
    "LSTMClassifier",
    "ARCHS",
    "train_sequence_model",
    "predict_proba",
    "evaluate_loss",
    "save_checkpoint",
    "load_checkpoint",
]

_MASK_OFF = -1e9
_MAGIC = b"ATEN1\n"


@dataclass(frozen=True)
class TransformerConfig:
    n_layers: int = 2
    hidden: int = 64
    n_heads: int = 4
    ff_hidden: int | None = None  # defaults to 4 * hidden
    dropout: float = 0.10
    dtype: str = "float32"


@dataclass(frozen=True)
class LSTMConfig:
    n_layers: int = 2
    hidden: int = 64
    dropout: float = 0.20
    dtype: str = "float32"


class _SequenceModel:
    arch = ""
    default_batch_size = 512

    def __init__(self, vocab_size: int, config, vocab_hash: str = "") -> None:
        if vocab_size < 4:
            raise ValueError("vocabulary must cover the four reserved tokens")
        if not 0.0 <= config.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        self.vocab_size = vocab_size
        self.config = config
        self.vocab_hash = vocab_hash
        self.dtype = np.dtype(config.dtype)
        self._params: dict[str, ag.Parameter] = {}

    def _add(self, name: str, data: np.ndarray, frozen_rows: tuple[int, ...] = ()) -> ag.Parameter:
        p = ag.Parameter(np.asarray(data, dtype=self.dtype), name=name, frozen_rows=frozen_rows)
        self._params[name] = p
        return p

    def params(self) -> list[ag.Parameter]:
        return list(self._params.values())

    def embed(self, tokens: np.ndarray) -> ag.Tensor:
        return ag.embedding_sum(self._params["embedding"], tokens)

    def forward(self, tokens: np.ndarray, lengths: np.ndarray, training: bool = False, rng=None) -> ag.Tensor:
        return self.forward_from_embeddings(self.embed(tokens), lengths, training=training, rng=rng)

    def forward_from_embeddings(self, emb, lengths, training=False, rng=None) -> ag.Tensor:
        raise NotImplementedError

    def _need_rng(self, training: bool, rng) -> None:
        if training and self.config.dropout > 0.0 and rng is None:
            raise ValueError("training mode with dropout needs an rng")


class TransformerClassifier(_SequenceModel):
    """Pre-norm transformer encoder pooled at position 0.

    Every block but the last runs on all L positions.  The last block feeds
    only position 0's query through attention, the output projection, the
    feed-forward layer and the final layer norm, since no other position
    reaches the logits.  Its dropout masks are slices of full-shape draws
    ((B, heads, L, L) for attention, (B, L, H) for the residuals), so the
    rng advances exactly as it would for the unpruned block.
    """

    arch = "transformer"
    default_batch_size = 512

    def __init__(self, vocab_size: int, config: TransformerConfig | None = None, seed: int = 0, vocab_hash: str = "") -> None:
        config = config or TransformerConfig()
        super().__init__(vocab_size, config, vocab_hash)
        h = config.hidden
        if h % config.n_heads != 0:
            raise ValueError("hidden size must divide evenly across heads")
        ff = config.ff_hidden or 4 * h
        rng = substream(seed, "init")

        def normal(*shape):
            return rng.normal(0.0, 0.02, shape)

        self._add("embedding", normal(vocab_size, h), frozen_rows=(PAD, NULL))
        for i in range(config.n_layers):
            pre = f"block{i}."
            self._add(pre + "ln1.gain", np.ones(h))
            self._add(pre + "ln1.bias", np.zeros(h))
            for name in ("wq", "wk", "wv", "wo"):
                self._add(pre + name, normal(h, h))
                self._add(pre + name.replace("w", "b"), np.zeros(h))
            self._add(pre + "ln2.gain", np.ones(h))
            self._add(pre + "ln2.bias", np.zeros(h))
            self._add(pre + "ff1.weight", normal(h, ff))
            self._add(pre + "ff1.bias", np.zeros(ff))
            self._add(pre + "ff2.weight", normal(ff, h))
            self._add(pre + "ff2.bias", np.zeros(h))
        self._add("final_ln.gain", np.ones(h))
        self._add("final_ln.bias", np.zeros(h))
        self._add("head.weight", normal(h, 1))
        self._add("head.bias", np.zeros(1))

    def forward_from_embeddings(self, emb, lengths, training: bool = False, rng=None) -> ag.Tensor:
        self._need_rng(training, rng)
        cfg = self.config
        p = self._params
        b, l, h = emb.shape
        nh = cfg.n_heads
        hd = h // nh
        scale = 1.0 / math.sqrt(hd)
        lengths = np.asarray(lengths)
        key_off = np.where(np.arange(l)[None, :] >= lengths[:, None], _MASK_OFF, 0.0)
        mask = ag.tensor(key_off[:, None, None, :].astype(self.dtype))

        x = emb
        for i in range(cfg.n_layers):
            blk = f"block{i}."
            a = ag.layer_norm(x, p[blk + "ln1.gain"], p[blk + "ln1.bias"])
            aq = a
            if i == cfg.n_layers - 1:
                # only position 0 reaches the logits: the last block runs its query,
                # residual and feed-forward there alone, against keys and values
                # over every position
                x, aq = ag.narrow(x, 1, 0, 1), ag.narrow(a, 1, 0, 1)
            lq = aq.shape[1]

            def heads(src, name):
                proj = ag.add(ag.matmul(src, p[blk + name]), p[blk + name.replace("w", "b")])
                return ag.transpose(ag.reshape(proj, (b, src.shape[1], nh, hd)), (0, 2, 1, 3))

            q, k, v = heads(aq, "wq"), heads(a, "wk"), heads(a, "wv")
            scores = ag.mul(ag.matmul(q, ag.transpose(k, (0, 1, 3, 2))), scale)
            att = ag.softmax(ag.add(scores, mask), axis=-1)
            att = _dropout(att, cfg.dropout, rng, training, (b, nh, l, l))
            ctx = ag.reshape(ag.transpose(ag.matmul(att, v), (0, 2, 1, 3)), (b, lq, h))
            proj = ag.add(ag.matmul(ctx, p[blk + "wo"]), p[blk + "bo"])
            x = ag.add(x, _dropout(proj, cfg.dropout, rng, training, (b, l, h)))

            a2 = ag.layer_norm(x, p[blk + "ln2.gain"], p[blk + "ln2.bias"])
            f = ag.gelu(ag.add(ag.matmul(a2, p[blk + "ff1.weight"]), p[blk + "ff1.bias"]))
            f = ag.add(ag.matmul(f, p[blk + "ff2.weight"]), p[blk + "ff2.bias"])
            x = ag.add(x, _dropout(f, cfg.dropout, rng, training, (b, l, h)))

        x = ag.layer_norm(x, p["final_ln.gain"], p["final_ln.bias"])
        pooled = ag.reshape(x, (b, h))
        logits = ag.add(ag.matmul(pooled, p["head.weight"]), p["head.bias"])
        return ag.reshape(logits, (b,))


def _dropout(a: ag.Tensor, rate: float, rng, training: bool, full_shape: tuple[int, ...]) -> ag.Tensor:
    """``ag.dropout`` on ``a``, a leading slice of a tensor of ``full_shape``.

    The mask is the same slice of a mask drawn over ``full_shape``, so the
    rng advances as if the whole tensor had been dropped out.
    """
    if not training or rate <= 0.0:
        return a
    u = rng.random(full_shape)[tuple(slice(0, n) for n in a.shape)]
    keep = (u >= rate).astype(a.dtype) / (1.0 - rate)
    return ag.mul(a, ag.tensor(keep))


class LSTMClassifier(_SequenceModel):
    arch = "lstm"
    default_batch_size = 128

    def __init__(self, vocab_size: int, config: LSTMConfig | None = None, seed: int = 0, vocab_hash: str = "") -> None:
        config = config or LSTMConfig()
        super().__init__(vocab_size, config, vocab_hash)
        h = config.hidden
        if config.n_layers < 1:
            raise ValueError("need at least one recurrent layer")
        rng = substream(seed, "init")
        k = 1.0 / math.sqrt(h)
        self._add("embedding", rng.normal(0.0, 0.02, (vocab_size, h)), frozen_rows=(PAD, NULL))
        for i in range(config.n_layers):
            self._add(f"layer{i}.wx", rng.uniform(-k, k, (h, 4 * h)))
            self._add(f"layer{i}.wh", rng.uniform(-k, k, (h, 4 * h)))
            bias = np.zeros(4 * h)
            bias[h : 2 * h] = 1.0  # open the forget gate at the start
            self._add(f"layer{i}.bias", bias)
        self._add("head.weight", rng.normal(0.0, 0.02, (h, 1)))
        self._add("head.bias", np.zeros(1))

    def forward_from_embeddings(self, emb, lengths, training: bool = False, rng=None) -> ag.Tensor:
        self._need_rng(training, rng)
        cfg = self.config
        p = self._params
        lengths = np.asarray(lengths)
        x = emb
        for i in range(cfg.n_layers):
            if i > 0:
                x = ag.dropout(x, cfg.dropout, rng, training)
            x = ag.lstm_layer(x, p[f"layer{i}.wx"], p[f"layer{i}.wh"], p[f"layer{i}.bias"])
        # the state at each student's last real position; a zero-length row keeps the zero state
        last = ag.select_positions(x, np.maximum(lengths - 1, 0))
        last = ag.mul(last, ag.tensor((lengths > 0)[:, None].astype(self.dtype)))
        logits = ag.add(ag.matmul(last, p["head.weight"]), p["head.bias"])
        return ag.reshape(logits, (x.shape[0],))


def _check_hash(model: _SequenceModel, batch: TokenSequenceBatch) -> None:
    if model.vocab_hash and batch.vocab_hash and model.vocab_hash != batch.vocab_hash:
        raise ValueError("batch was encoded with a different vocabulary than the model")


def _score(model: _SequenceModel, batch: TokenSequenceBatch, batch_size: int) -> tuple[np.ndarray, float]:
    """Completion probabilities and mean loss over ``batch``, one forward pass per slice.

    Each slice's graph is dropped (only its logits array is kept) before the
    next slice runs, so at most one slice's activations are alive.
    """
    _check_hash(model, batch)
    probs = np.empty(len(batch), dtype=np.float64)
    total = 0.0
    for start in range(0, len(batch), batch_size):
        sl = slice(start, start + batch_size)
        z = model.forward(batch.tokens[sl], batch.lengths[sl]).data
        total += float(ag.bce_with_logits(ag.tensor(z), batch.labels[sl]).data) * len(z)
        probs[sl] = ag.logistic(z.astype(np.float64))
    return probs, total / len(batch)


def predict_proba(model: _SequenceModel, batch: TokenSequenceBatch, batch_size: int = 512) -> np.ndarray:
    return _score(model, batch, batch_size)[0]


def evaluate_loss(model: _SequenceModel, batch: TokenSequenceBatch, batch_size: int = 512) -> float:
    return _score(model, batch, batch_size)[1]


def train_sequence_model(
    model: _SequenceModel,
    train: TokenSequenceBatch,
    val: TokenSequenceBatch,
    seed: int = 0,
    epochs: int = 10,
    patience: int = 3,
    batch_size: int | None = None,
    peak_lr: float = 5e-4,
    weight_decay: float = 0.01,
    warmup: int = 100,
) -> dict:
    """Returns a history dict; the model is left holding its best-epoch weights."""
    _check_hash(model, train)
    _check_hash(model, val)
    if len(train) == 0 or len(val) == 0:
        raise ValueError("training and validation batches must be non-empty")
    bs = batch_size or model.default_batch_size
    opt = ag.AdamW(model.params(), lr=peak_lr, weight_decay=weight_decay)
    shuffle_rng = substream(seed, "shuffle")
    drop_rng = substream(seed, "dropout")
    n = len(train)
    total_steps = epochs * math.ceil(n / bs)

    history: dict = {"train_loss": [], "val_loss": [], "val_auc": []}
    best_state: dict[str, np.ndarray] | None = None
    best_loss = math.inf
    best_epoch = -1
    bad = 0
    step = 0
    epoch = -1
    for epoch in range(epochs):
        perm = shuffle_rng.permutation(n)
        running = 0.0
        for start in range(0, n, bs):
            idx = perm[start : start + bs]
            logits = model.forward(train.tokens[idx], train.lengths[idx], training=True, rng=drop_rng)
            loss = ag.bce_with_logits(logits, train.labels[idx])
            ag.backward(loss)
            step += 1
            opt.step(lr=ag.lr_schedule(step, peak_lr, warmup=warmup, total=total_steps))
            opt.zero_grad()
            running += float(loss.data) * idx.size
        val_probs, val_loss = _score(model, val, bs)
        history["train_loss"].append(running / n)
        history["val_loss"].append(val_loss)
        history["val_auc"].append(auc(val_probs, val.labels))
        if val_loss < best_loss:
            best_loss = val_loss
            best_epoch = epoch
            best_state = {name: p.data.copy() for name, p in model._params.items()}
            bad = 0
        else:
            bad += 1
            if bad >= patience:
                break
    if best_state is not None:
        for name, p in model._params.items():
            p.data[...] = best_state[name]
    history["best_epoch"] = best_epoch
    history["epochs_run"] = epoch + 1
    return history


# ---------------------------------------------------------------------------
# checkpoints

# architecture name -> (model class, config class)
ARCHS = {
    "transformer": (TransformerClassifier, TransformerConfig),
    "lstm": (LSTMClassifier, LSTMConfig),
}


def _wire_dtype(dtype: np.dtype) -> np.dtype:
    return np.dtype("<f8") if dtype == np.float64 else np.dtype("<f4")


def save_checkpoint(model: _SequenceModel, path) -> None:
    header = {
        "arch": model.arch,
        "config": asdict(model.config),
        "vocab_size": model.vocab_size,
        "vocab_hash": model.vocab_hash,
        "tensors": [[name, list(p.data.shape)] for name, p in model._params.items()],
    }
    blob = json.dumps(header, sort_keys=True).encode()
    wire = _wire_dtype(model.dtype)
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for p in model._params.values():
            f.write(np.ascontiguousarray(p.data, dtype=wire).tobytes())


def load_checkpoint(path) -> _SequenceModel:
    with open(path, "rb") as f:
        raw = f.read()
    if raw[: len(_MAGIC)] != _MAGIC:
        raise ValueError("not a model checkpoint")
    (blob_len,) = struct.unpack("<I", raw[len(_MAGIC) : len(_MAGIC) + 4])
    at = len(_MAGIC) + 4
    header = json.loads(raw[at : at + blob_len].decode())
    at += blob_len
    if header["arch"] not in ARCHS:
        raise ValueError(f"unknown architecture {header['arch']!r}")
    cls, cfg_cls = ARCHS[header["arch"]]
    model = cls(header["vocab_size"], cfg_cls(**header["config"]), seed=0, vocab_hash=header["vocab_hash"])
    listed = [name for name, _ in header["tensors"]]
    missing = sorted(set(model._params) - set(listed))
    unexpected = sorted(set(listed) - set(model._params))
    if missing or unexpected or len(listed) != len(model._params):
        raise ValueError(f"checkpoint tensors do not match the model: missing {missing}, unexpected {unexpected}")
    wire = _wire_dtype(model.dtype)
    for name, shape in header["tensors"]:
        want = model._params[name].shape
        if tuple(shape) != want:
            raise ValueError(f"checkpoint tensor {name!r} has shape {tuple(shape)}, the model expects {want}")
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * wire.itemsize
        arr = np.frombuffer(raw[at : at + nbytes], dtype=wire).reshape(shape)
        model._params[name].data = arr.astype(model.dtype)
        at += nbytes
    if at != len(raw):
        raise ValueError("checkpoint has trailing bytes")
    return model
