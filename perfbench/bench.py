"""One benchmark run, in a process of its own.

Started by ``run.py`` with BLAS and OpenMP pinned to one thread.  An
untraced run (``--trace 0``) times whole rounds of the workload's chain
until ``--seconds`` would be exceeded, at least one round, and reports the
end-to-end metrics.  A traced run (``--trace 1``) times one untraced round
and then one traced round, and reports the per-layer metrics from the
traced one.  Every round's outputs are checked.  The result is the last
line of standard output; everything the program prints goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import checks
import kernels
import tracing
import workloads


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--launched", type=float, required=True, help="epoch time the process was started")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--trace-file", required=True)
    return p.parse_args(argv)


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def layer_metrics(t: tracing.Tracer, untraced_s: float, traced_s: float, kernel_figures) -> dict:
    c = t.counts
    total = t.total

    def per(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {
        "cohort.generate_s": _metric(total("cohort.generate_cohort"), "s"),
        "cohort.events": _metric(c.get("cohort.events", 0), "count"),
        "cohort.save_s": _metric(total("cohort.save_cohort"), "s"),
        "cohort.load_s": _metric(total("cohort.load_cohort"), "s"),
        "cohort.jsonl_mb": _metric(c.get("cohort.jsonl_bytes", 0) / 1e6, "MB"),
        "features.schema_s": _metric(total("models.features.fit_feature_schema"), "s"),
        "features.featurize_s": _metric(total("models.features.featurize"), "s"),
        "features.rows_per_s": _metric(per(c.get("features.rows", 0), total("models.features.featurize")), "1/s"),
        "logreg.fit_s": _metric(total("models.logreg.train_logreg"), "s"),
        "logreg.iterations": _metric(c.get("logreg.iterations", 0), "count"),
        "gbt.fit_s": _metric(total("models.gbt.train_gbt"), "s"),
        "gbt.s_per_tree": _metric(per(total("models.gbt.train_gbt"), c.get("gbt.trees", 0)), "s"),
        "gbt.trees": _metric(c.get("gbt.trees", 0), "count"),
        "gbt.predict_s": _metric(total("models.gbt.predict_proba"), "s"),
        "seqenc.vocab_s": _metric(total("seqenc.build_vocabulary"), "s"),
        "seqenc.lengths_s": _metric(total("seqenc.sequence_lengths"), "s"),
        "seqenc.encode_s": _metric(total("seqenc.encode_cohort"), "s"),
        "seqenc.students_per_s": _metric(per(c.get("seqenc.students", 0), total("seqenc.encode_cohort")), "1/s"),
        "seqenc.real_tokens": _metric(c.get("seqenc.real_tokens", 0), "count"),
        "seqenc.batch_load_s": _metric(total("seqenc.load"), "s"),
        "autograd.forward_s": _metric(total("autograd.forward"), "s"),
        "autograd.backward_s": _metric(total("autograd.backward"), "s"),
        "autograd.optimizer_s": _metric(total("autograd.step"), "s"),
        "autograd.backward_calls": _metric(c.get("autograd.backward_calls", 0), "count"),
    }
    calls = {
        "gelu_fwd": c.get("autograd.gelu_fwd_calls", 0),
        "embedding_sum_bwd": c.get("autograd.backward_calls", 0),
        "sigmoid": c.get("autograd.sigmoid_calls", 0),
        "lstm_step": c.get("autograd.lstm_step_calls", 0),
        "transformer_block": c.get("autograd.transformer_block_calls", 0),
    }
    for kernel, (ms, mb) in kernel_figures.items():
        m[f"autograd.{kernel}_ms"] = _metric(ms, "ms")
        m[f"autograd.{kernel}_calls"] = _metric(calls[kernel], "count")
        m[f"autograd.{kernel}_mb"] = _metric(mb, "MB")
    for arch in ("transformer", "lstm"):
        train_s = c.get(f"sequence.{arch}.train_s", 0.0)
        m[f"sequence.{arch}.epoch_s"] = _metric(per(train_s, c.get(f"sequence.{arch}.epochs", 0)), "s")
        m[f"sequence.{arch}.seqs_per_s"] = _metric(per(c.get(f"sequence.{arch}.seqs", 0), train_s), "1/s")
        m[f"sequence.{arch}.predict_s"] = _metric(c.get(f"sequence.{arch}.predict_s", 0.0), "s")
    m.update({
        "sequence.checkpoint_s": _metric(total("models.sequence.save_checkpoint")
                                         + total("models.sequence.load_checkpoint"), "s"),
        "explain.saliency_s": _metric(total("explain.saliency_profile"), "s"),
        "adapters.risk_table_s": _metric(total("models.adapters.build_risk_table"), "s"),
        "policy.auc_s": _metric(total("policy.auc_se"), "s"),
        "policy.contraction_s": _metric(total("policy.contraction_curve")
                                        + total("policy.contraction_counterfactual"), "s"),
        "fairness.audit_s": _metric(total("fairness.audit_attribute"), "s"),
        "fairness.abroca_s": _metric(total("fairness.weighted_abroca"), "s"),
        "matching.match_s": _metric(total("matching.david_q_match"), "s"),
        "matching.stability_s": _metric(total("matching.check_stability"), "s"),
        "matching.applicants": _metric(c.get("matching.applicants", 0), "count"),
        "matching.unassigned": _metric(c.get("matching.unassigned", 0), "count"),
        "econ.grid_s": _metric(total("econ.scenario_grid"), "s"),
    })
    for command in workloads.CLI_COMMANDS + ("train_lstm",):
        m[f"cli.{command}_s"] = _metric(total(f"cli.{command}"), "s")
    for layer, seconds in t.self_times().items():
        m[f"self.{layer}_s"] = _metric(seconds, "s")
    m["trace.overhead_s"] = _metric(traced_s - untraced_s, "s")
    m["trace.spans"] = _metric(len(t.spans), "count")
    return m


def main(argv=None) -> int:
    args = _parse(argv)
    result_out = sys.stdout
    sys.stdout = sys.stderr

    import admitsim

    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(admitsim.__file__).startswith(src + os.sep):
        print(f"admitsim imported from {admitsim.__file__}, not from {src}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed, args.run_dir)
    tracer = tracing.Tracer()
    null = tracing.NullTracer()
    rounds = []  # (round, seconds)

    def timed_round(tr) -> float:
        t = time.perf_counter()
        r = workload.run(tr)
        rounds.append((r, time.perf_counter() - t))
        return rounds[-1][1]

    def check_last() -> None:
        r = rounds[-1][0]
        workload.check(r)
        r.outputs.clear()  # so the next round starts from the same live heap

    correct = True
    try:
        workload.setup()
        setup_s = time.time() - args.launched
        wall = timed_round(null)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        check_last()
        if args.trace:
            tracer.install()
            timed_round(tracer)
            tracer.uninstall()
            check_last()
        else:
            while sum(w for _, w in rounds) + wall <= args.seconds:
                wall = timed_round(null)
                check_last()
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False

    if not rounds:
        return 1
    attempted = sum(r.ops.attempted for r, _ in rounds)
    failed = sum(r.ops.failed for r, _ in rounds)
    if any(not r.aucs for r, _ in rounds):
        correct = False
    if args.trace:
        tracer.write(args.trace_file)
        metrics = layer_metrics(tracer, rounds[0][1], rounds[-1][1], kernels.measure())
    else:
        aucs = [a for r, _ in rounds for a in r.aucs]
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "wall_s": _metric(statistics.fmean(w for _, w in rounds), "s"),
            "peak_rss_mb": _metric(peak_mb, "MiB"),
            "model_auc": _metric(statistics.fmean(aucs) if aucs else 0.0, "1"),
        }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), file=result_out, flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
