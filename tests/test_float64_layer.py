"""Each float32 decoder layer of a real run, checked against a float64 layer by tolerance.

The byte pins (golden digests, ``TestForwardLayer``) catch any change to the
forward pass, but a change that means to move bits regenerates them from
the new pass. These bounds hold through such a change. ``float64_layer`` is
the layer as the README's "Library" section describes it, written from that
text and not from ``harness._forward_layer``. Every layer is fed the float32
input the run gave it, one layer at a time: chained, the float32 and float64
streams drift apart by rounding that the unnormalised residual amplifies.
"""

import math

import numpy as np
import pytest

from avprune import harness, run_with_pruning
from avprune.config import ExperimentConfig

# Measured worst errors of the float32 layer: 2.7e-4 of max |x| on the hidden
# states (default run, layer 8) and 1.6e-5 on the query rows (odd-width).
# Each hand-made mutant of the layer that the rest of the suite misses
# (scores over head_dim, no attention residual, no ReLU, importance from
# head 0, head 0's v in every head) reads at least 0.39 on the hidden states
# or 0.75 on the query rows.
HIDDEN_BOUND = 1e-3  # relative to max |x| of the layer's output
QUERY_BOUND = 1e-4  # absolute, on head-averaged probabilities

CONFIGS = {
    "default": {},
    "odd-width": {"sequence.d": 9, "model.d": 9, "model.heads": 3},
}


def float64_layer(x, w, heads):
    """One decoder layer in float64: (new hidden states, head-averaged attention probabilities)."""
    x = x.astype(np.float64)
    wq, wk, wv, wo, w1, w2 = (m.astype(np.float64) for m in (w.wq, w.wk, w.wv, w.wo, w.w1, w.w2))
    n, d = x.shape
    hd = d // heads
    visible = np.tri(n, dtype=bool)  # token i attends to tokens 0..i
    context = np.empty((n, d))
    mean = np.zeros((n, n))
    for h in range(heads):
        cols = slice(h * hd, (h + 1) * hd)
        q, k, v = x @ wq[:, cols], x @ wk[:, cols], x @ wv[:, cols]
        logits = np.where(visible, q @ k.T / math.sqrt(hd), -np.inf)
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        context[:, cols] = p @ v
        mean += p / heads
    x = x + context @ wo
    x = x + np.maximum(x @ w1, 0.0) @ w2
    return x, mean


def captured_layers(monkeypatch, overrides):
    """Every ``_forward_layer`` call of a ``run_with_pruning`` under ``overrides``: (x, w, heads, rows, out, avg)."""
    forward, calls = harness._forward_layer, []

    def spy(x, w, heads, rows):
        out, avg = forward(x, w, heads, rows)
        calls.append((x.copy(), w, heads, rows.copy(), out, avg))
        return out, avg

    monkeypatch.setattr(harness, "_forward_layer", spy)
    cfg = ExperimentConfig.resolve(overrides=overrides)
    run_with_pruning(cfg.build_sequence(), cfg.build_model(), cfg.schedule, cfg.tds, cfg.selector)
    assert len(calls) == cfg.raw["model"]["layers"]
    return calls


@pytest.mark.parametrize("name", list(CONFIGS))
def test_each_layer_of_a_run_matches_the_float64_layer(monkeypatch, name):
    for layer, (x, w, heads, rows, out, avg) in enumerate(captured_layers(monkeypatch, CONFIGS[name])):
        want_x, want_mean = float64_layer(x, w, heads)
        assert out.dtype == avg.dtype == np.float32
        assert out.shape == want_x.shape and avg.shape == (len(rows), len(x))
        hidden = np.abs(out - want_x).max() / np.abs(want_x).max()
        query = np.abs(avg - want_mean[rows]).max()
        assert hidden <= HIDDEN_BOUND, f"layer {layer}: hidden states off by {hidden:.3g} of max |x|"
        assert query <= QUERY_BOUND, f"layer {layer}: query rows off by {query:.3g}"
