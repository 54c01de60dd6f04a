"""Autograd kernels timed alone at the shapes ``sequence-train`` uses.

Each kernel reports its median time per call over a fixed number of calls
and the bytes it must move per call at float32: what it reads plus what it
writes, counting neither temporaries nor caches.  The call counts come from
the traced chain (see ``tracing.COUNTED`` and the forward/backward hooks).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from admitsim import autograd as ag
from admitsim.models import sequence
from admitsim.seqenc import VARIANTS

import workloads

REPEATS = 15
B = workloads.SEQ_BATCH
L = 36  # sequence length of the four-year cohort's training split
V = 175  # vocabulary size at that cohort's min_count
C = len(VARIANTS["everything"])
H = sequence.TransformerConfig().hidden
FF = 4 * H
F32 = 4


def _median_ms(fn) -> float:
    fn()
    times = []
    for _ in range(REPEATS):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return 1e3 * statistics.median(times)


def _params_bytes(model) -> int:
    return sum(p.data.size for p in model.params()) * F32


def measure() -> dict[str, tuple[float, float]]:
    """kernel -> (median ms per call, MB moved per call)."""
    rng = np.random.default_rng(0)
    tokens = rng.integers(0, V, size=(B, C, L)).astype(np.int32)
    lengths = np.full(B, L, dtype=np.int32)
    labels = rng.integers(0, 2, size=B).astype(np.int8)
    out = {}

    x = ag.tensor(rng.normal(size=(B, L, FF)).astype(np.float32))
    out["gelu_fwd"] = (_median_ms(lambda: ag.gelu(x)), 2 * x.data.size * F32)

    table = ag.Parameter(rng.normal(size=(V, H)).astype(np.float32), name="embedding")
    emb = ag.embedding_sum(table, tokens)
    grad = np.ones(emb.shape, dtype=np.float32)

    def embedding_bwd():
        table.zero_grad()
        emb._backward(grad)

    out["embedding_sum_bwd"] = (_median_ms(embedding_bwd), (grad.size + tokens.size + table.data.size) * F32)

    z = ag.tensor(rng.normal(size=(B, H)).astype(np.float32))
    out["sigmoid"] = (_median_ms(lambda: ag.sigmoid(z)), 2 * z.data.size * F32)

    def fwd_bwd(model, toks):
        def step():
            ag.backward(ag.bce_with_logits(model.forward(toks, np.minimum(lengths, toks.shape[2])), labels))
            for p in model.params():
                p.zero_grad()

        return step

    lstm = sequence.LSTMClassifier(V, sequence.LSTMConfig(n_layers=1, hidden=H), seed=0)
    one = tokens[:, :, :1]
    # one position of a one-layer LSTM: input, state in and out, four gates
    lstm_bytes = _params_bytes(lstm) + B * H * (1 + 2 + 2 + 4) * F32
    out["lstm_step"] = (_median_ms(fwd_bwd(lstm, one)), lstm_bytes)

    block = sequence.TransformerClassifier(V, sequence.TransformerConfig(n_layers=1), seed=0)
    # residual stream, q/k/v/attention output, two feed-forward activations,
    # and the per-head attention weights
    heads = block.config.n_heads
    block_bytes = _params_bytes(block) + (B * L * (6 * H + 2 * FF) + B * heads * L * L) * F32
    out["transformer_block"] = (_median_ms(fwd_bwd(block, tokens)), block_bytes)
    return {k: (ms, nbytes / 1e6) for k, (ms, nbytes) in out.items()}
