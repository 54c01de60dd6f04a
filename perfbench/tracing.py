"""Span tracing installed from outside the program.

A traced run wraps the public functions of each admitsim layer with a
recorder: every call becomes a span (name, layer, start, end, parent) kept
in memory.  Nothing in the package itself is changed; the wrappers replace
module and class attributes for the life of the run and are removed by
``Tracer.uninstall``.  Hooks read a call's arguments and result to keep
counts (events generated, trees grown, backward sweeps) next to the spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time
from dataclasses import dataclass

LAYERS = (
    "cohort",
    "seqenc",
    "autograd",
    "models.features",
    "models.logreg",
    "models.gbt",
    "models.sequence",
    "models.adapters",
    "explain",
    "policy",
    "fairness",
    "matching",
    "econ",
    "cli",
)


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at the top


def _events(t, span, result, args):
    t.count("cohort.events", sum(len(s.events) for s in result.students))


def _saved(t, span, result, args):
    t.count("cohort.jsonl_bytes", os.path.getsize(args[1]))


def _rows(t, span, result, args):
    t.count("features.rows", len(result[0]))


def _logreg_iters(t, span, result, args):
    t.count("logreg.iterations", result.n_iter)


def _trees(t, span, result, args):
    t.count("gbt.trees", len(result.trees))


def _encoded(t, span, result, args):
    t.count("seqenc.students", len(result))
    t.count("seqenc.real_tokens", int(result.lengths.sum()))


def _backward(t, span, result, args):
    t.count("autograd.backward_calls", 1)


def _forward(t, span, result, args):
    model, tokens = args[0], args[1]
    if model.arch == "lstm":
        t.count("autograd.lstm_step_calls", tokens.shape[2] * model.config.n_layers)
    else:
        t.count("autograd.transformer_block_calls", model.config.n_layers)


def _trained(t, span, result, args):
    arch = args[0].arch
    t.count(f"sequence.{arch}.train_s", span.end - span.start)
    t.count(f"sequence.{arch}.epochs", result["epochs_run"])
    t.count(f"sequence.{arch}.seqs", result["epochs_run"] * len(args[1]))


def _predicted(t, span, result, args):
    # validation scoring inside training is training time, not prediction
    if not t.inside("models.sequence.train_sequence_model"):
        t.count(f"sequence.{args[0].arch}.predict_s", span.end - span.start)


def _matched(t, span, result, args):
    t.count("matching.applicants", len(args[0].applicants))
    t.count("matching.unassigned", len(result.unassigned))


# (layer, module, attribute, hook) of every traced call
TRACED = (
    ("cohort", "admitsim.cohort", "generate_cohort", _events),
    ("cohort", "admitsim.cohort", "temporal_split", None),
    ("cohort", "admitsim.cohort", "validation_split", None),
    ("cohort", "admitsim.cohort", "save_cohort", _saved),
    ("cohort", "admitsim.cohort", "load_cohort", None),
    ("seqenc", "admitsim.seqenc", "fit_binning_rules", None),
    ("seqenc", "admitsim.seqenc", "build_vocabulary", None),
    ("seqenc", "admitsim.seqenc", "sequence_lengths", None),
    ("seqenc", "admitsim.seqenc", "encode_cohort", _encoded),
    ("seqenc", "admitsim.seqenc", "TokenSequenceBatch.save", None),
    ("seqenc", "admitsim.seqenc", "TokenSequenceBatch.load", None),
    ("autograd", "admitsim.autograd", "backward", _backward),
    ("autograd", "admitsim.autograd", "AdamW.step", None),
    ("autograd", "admitsim.models.sequence", "_SequenceModel.forward", _forward),
    ("models.features", "admitsim.models.features", "fit_feature_schema", None),
    ("models.features", "admitsim.models.features", "featurize", _rows),
    ("models.logreg", "admitsim.models.logreg", "train_logreg", _logreg_iters),
    ("models.logreg", "admitsim.models.logreg", "LogisticModel.predict_proba", None),
    ("models.gbt", "admitsim.models.gbt", "train_gbt", _trees),
    ("models.gbt", "admitsim.models.gbt", "GBTModel.predict_proba", None),
    ("models.sequence", "admitsim.models.sequence", "train_sequence_model", _trained),
    ("models.sequence", "admitsim.models.sequence", "predict_proba", _predicted),
    ("models.sequence", "admitsim.models.sequence", "evaluate_loss", None),
    ("models.sequence", "admitsim.models.sequence", "save_checkpoint", None),
    ("models.sequence", "admitsim.models.sequence", "load_checkpoint", None),
    ("models.adapters", "admitsim.models.adapters", "build_risk_table", None),
    ("explain", "admitsim.explain", "saliency_profile", None),
    ("policy", "admitsim.policy", "auc_se", None),
    ("policy", "admitsim.policy", "contraction_curve", None),
    ("policy", "admitsim.policy", "contraction_counterfactual", None),
    ("policy", "admitsim.policy", "score_outcome_correlations", None),
    ("fairness", "admitsim.fairness", "audit_attribute", None),
    ("fairness", "admitsim.fairness", "weighted_abroca", None),
    ("matching", "admitsim.matching", "david_q_match", _matched),
    ("matching", "admitsim.matching", "check_stability", None),
    ("econ", "admitsim.econ", "scenario_grid", None),
)

# kernels whose calls are counted without a span: they run thousands of
# times per epoch, so a span each would cost more than the count is worth
COUNTED = (
    ("admitsim.autograd", "gelu", "autograd.gelu_fwd_calls"),
    ("admitsim.autograd", "sigmoid", "autograd.sigmoid_calls"),
)


class NullTracer:
    """Stands in for a tracer in untraced rounds."""

    @contextlib.contextmanager
    def span(self, name: str, layer: str = "bench"):
        yield


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.active = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def count(self, name: str, n: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def inside(self, name: str) -> bool:
        return any(self.spans[i].name == name for i in self._stack)

    @contextlib.contextmanager
    def span(self, name: str, layer: str = "bench"):
        if not self.active:
            yield
            return
        span = Span(name, layer, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str, layer: str, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            with self.span(name, layer) as span:
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, span, result, args)
            return result

        return traced

    def _counter(self, fn, name: str):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.active:
                self.count(name, 1)
            return fn(*args, **kwargs)

        return counted

    # -- installation ----------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, replacement) -> None:
        """Point every admitsim module's reference to ``original`` at the
        replacement, so calls made through ``from x import f`` names are
        traced too."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "admitsim" or mod_name.startswith("admitsim.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)

    def install(self) -> None:
        for layer, mod_name, attr, hook in TRACED:
            mod = importlib.import_module(mod_name)
            name = f"{layer}.{attr.split('.')[-1]}"
            if layer == "autograd" and attr.endswith(".forward"):
                name = "autograd.forward"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    self._set(cls, meth, classmethod(self._wrap(raw.__func__, name, layer, hook)))
                else:
                    self._set(cls, meth, self._wrap(raw, name, layer, hook))
            else:
                original = getattr(mod, attr)
                self._replace_everywhere(original, self._wrap(original, name, layer, hook))
        for mod_name, attr, counter in COUNTED:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            self._replace_everywhere(original, self._counter(original, counter))
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- reduction -------------------------------------------------------

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def self_times(self) -> dict[str, float]:
        """Per layer: span time minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out = {layer: 0.0 for layer in LAYERS}
        for s, c in zip(self.spans, child):
            if s.layer in out:
                out[s.layer] += (s.end - s.start) - c
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "layer": s.layer, "start": s.start,
                                     "end": s.end, "parent": s.parent}) + "\n")
            fh.write(json.dumps({"counts": self.counts}) + "\n")
