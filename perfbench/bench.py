"""Benchmark runner: set-up, timed calls, output checks and the result line.

``run.py`` puts the checkout's ``src/`` on the import path and calls
:func:`main`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import traceback
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import speed
import tracing
import workloads
from fedgbt.metrics import auc_roc

ROOT = Path(__file__).resolve().parent.parent

SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_MIN_SECONDS = 7, 200, 0.5
SINGLE_ROW_REQUESTS = 1000
BATCH_MIN_REPS, BATCH_MAX_REPS, MIN_PHASE_SECONDS = 3, 100_000, 2.0
# Scoring phases are summarised per window of this length, each window
# scaled by the sampler's kernel during it, and the median over windows is
# reported: host speed flips on sub-second scales, which one scale for a
# whole phase cannot follow.
WINDOW_S = 0.25


class Ledger:
    """Operations attempted and failed; a failure is a raise or a failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def attempt(self, label, fn, *args):
        """Run one operation; returns (result or None, start, end)."""
        self.attempted += 1
        start = perf_counter()
        try:
            result = fn(*args)
        except Exception:
            end = perf_counter()
            self.fail(label, traceback.format_exc())
            return None, start, end
        return result, start, perf_counter()

    def fail(self, label, why):
        self.failed += 1
        print(f"FAILED {label}: {why}", file=sys.stderr)


class Timer:
    """Times calls under a speed sampler, with the sampler's own kernel time
    taken out."""

    def __init__(self, ledger, sampler):
        self.ledger, self.sampler = ledger, sampler

    def time(self, fn, *args):
        """Returns (result, seconds); exceptions propagate."""
        inside, start = self.sampler.total, perf_counter()
        result = fn(*args)
        return result, perf_counter() - start - (self.sampler.total - inside)

    def attempt(self, label, fn, *args):
        """One operation of the ledger; returns (result or None, seconds)."""
        inside = self.sampler.total
        result, start, end = self.ledger.attempt(label, fn, *args)
        return result, end - start - (self.sampler.total - inside)


def _identity(workload, model, bus):
    return checks.model_hash(workload.ensemble(model)), checks.transcript_digest(bus)


def run_untraced(workload, seed, seconds, ledger):
    """End-to-end metrics.  Times are rescaled to a reference host speed by
    the sampler in speed.py; the unscaled times are printed as well."""
    with speed.SpeedSampler() as sampler:
        return _measure(workload, seed, seconds, ledger, sampler)


def _measure(workload, seed, seconds, ledger, sampler):
    timer = Timer(ledger, sampler)

    # set-up, repeated; one seed must give the same inputs every time
    setup, digests = [], set()
    phase = perf_counter()
    while len(setup) < SETUP_MIN_REPS or (
            perf_counter() - phase < SETUP_MIN_SECONDS and len(setup) < SETUP_MAX_REPS):
        inp, took = timer.time(workload.setup, seed)
        setup.append(took)
        digests.add(hashlib.sha256(inp.digest_material()).hexdigest())
    setup_scale = sampler.scale(phase, perf_counter(), "whole")
    if len(digests) != 1:
        raise RuntimeError("one seed produced different inputs on repeated set-up")
    n_clients = len(inp.train) if workload.federated else 0

    # Trainings: at least one, then more while the next still fits in
    # --seconds.  The first training's transcript is checked and summarised
    # at once and then dropped, so only one transcript is alive at a time
    # and peak memory does not depend on how many trainings fit.
    model = identity = None
    trains, spent = [], 0.0
    while True:
        phase = perf_counter()
        out, took = timer.attempt("training", workload.train, inp)
        spent += took
        if out is not None:
            trains.append((took, took * sampler.scale(phase, perf_counter(), "whole")))
            if model is None:
                model, identity = out[0], _identity(workload, *out)
                envelopes = out[1].transcript if out[1] is not None else []
                counts = checks.expected_counts(envelopes, n_clients)
                tbytes, tmsgs = checks.traffic(envelopes)
                if workload.federated:
                    for why in checks.check_transcript(workload, inp, model, envelopes):
                        ledger.fail("training output", why)
                envelopes = None
            elif _identity(workload, *out) != identity:
                ledger.fail("training", "model hash or transcript digest differs from the first run")
        out = None
        if spent + (statistics.median(t for t, _ in trains) if trains else 0.0) > seconds:
            break
    if model is None:
        raise RuntimeError("no training succeeded")

    # batch scoring, repeated for a stable median
    # call start times and durations go into flat arrays: a list of tuples
    # grows the garbage collector's work and shows up in the latency tail
    ref, batches, tries = None, (array("d"), array("d")), 0
    phase = perf_counter()
    while tries < BATCH_MIN_REPS or (
            perf_counter() - phase < MIN_PHASE_SECONDS and tries < BATCH_MAX_REPS):
        tries += 1
        start = perf_counter()
        out, took = timer.attempt("batch scoring", workload.score_batch, model, inp)
        if out is None:
            continue
        batches[0].append(start)
        batches[1].append(took)
        if ref is None:
            ref = (*out, checks.transcript_digest(out[1]))
        elif not (np.array_equal(out[0], ref[0]) and checks.transcript_digest(out[1]) == ref[2]):
            ledger.fail("batch scoring", "scores or transcript differ from the first batch")
    if ref is None:
        raise RuntimeError("no batch scoring succeeded")
    scores, pbus, _ = ref
    predict_messages = len(pbus.transcript) if pbus is not None else 0
    if pbus is not None:
        counts["answer_query"] = checks.expected_counts(pbus.transcript, 0)["answer_query"]
        for why in checks.check_transcript(workload, inp, model, pbus.transcript):
            ledger.fail("batch scoring output", why)

    # single-row requests in a closed loop, cycling over the test rows
    requests = workload.row_requests(inp)
    rows = (array("d"), array("d"))
    phase = perf_counter()
    while len(rows[0]) < SINGLE_ROW_REQUESTS or perf_counter() - phase < MIN_PHASE_SECONDS:
        i = len(rows[0]) % len(requests)
        start = perf_counter()
        score, took = timer.attempt("single-row request", workload.score_row, model, requests[i])
        rows[0].append(start)
        rows[1].append(took)
        if score is not None and score != scores[i]:
            ledger.fail("single-row request", f"row {i} scores {score!r}, batch gave {scores[i]!r}")

    failures, mismatches = checks.check_model(workload, inp, model, scores)
    for why in failures:
        ledger.fail("training output", why)

    lat_ms = np.array(rows[1]) * 1e3
    unscaled = {
        "setup_s": statistics.median(setup),
        "train_s": statistics.median(t for t, _ in trains),
        "predict_rows_per_s": len(scores) / statistics.median(batches[1]),
        "predict_row_ms_p50": float(np.percentile(lat_ms, 50)),
        "predict_row_ms_p90": float(np.percentile(lat_ms, 90)),
    }
    batch_s = _windowed(sampler, batches, statistics.median)
    metrics = {
        "setup_s": (unscaled["setup_s"] * setup_scale, "s"),
        "train_s": (statistics.median(scaled for _, scaled in trains), "s"),
        "predict_rows_per_s": (len(scores) / batch_s, "rows/s"),
        "predict_row_ms_p50": (1e3 * _windowed(sampler, rows, lambda t: np.percentile(t, 50)),
                               "ms"),
        "predict_row_ms_p90": (1e3 * _windowed(sampler, rows, lambda t: np.percentile(t, 90)),
                               "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }

    print(f"workload {workload.name} seed {seed}: "
          f"{len(trains)} training(s) of {_train_rows(inp)} rows, "
          f"{len(batches[0])} batch scoring(s) of {len(scores)} rows, "
          f"{len(rows[0])} single-row requests")
    print("unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in unscaled.items()))
    print(f"model sha256 {identity[0]}  transcript sha256 {identity[1]}")
    print(f"train_wire_bytes {sum(tbytes.values())} B  train_wire_messages {sum(tmsgs.values())}  "
          f"predict_wire_messages {predict_messages}")
    for t in sorted(tmsgs):
        print(f"  {t}: {tbytes[t]} B in {tmsgs[t]} messages")
    print("exact counts: " + ", ".join(f"{k} {v:.6g}" for k, v in counts.items()))
    print(f"auc {auc_roc(inp.test_labels, scores):.6f} on {len(scores)} test rows")
    print(f"gbt.structure_mismatch_nodes {mismatches}")
    print(f"error_rate {ledger.failed / ledger.attempted:.6g} "
          f"({ledger.failed} of {ledger.attempted} operations)")
    return metrics


def _windowed(sampler, calls, stat) -> float:
    """Median over WINDOW_S windows of ``stat`` of the call durations in each
    window, times the sampler's interpreter-part scale for that window.

    ``calls`` is (start times, durations), in start order.
    """
    starts, tooks = np.asarray(calls[0]), np.asarray(calls[1])
    window = ((starts - starts[0]) // WINDOW_S).astype(np.int64)
    values = []
    for w in np.unique(window):
        idx = np.flatnonzero(window == w)
        scale = sampler.scale(starts[idx[0]], starts[idx[-1]] + tooks[idx[-1]], "interp")
        values.append(float(stat(tooks[idx])) * scale)
    return statistics.median(values)


def _train_rows(inp) -> int:
    if "active" in inp.train:
        return inp.train["active"].n_samples
    return sum(d.n_samples for d in inp.train.values())


def run_traced(workload, seed, ledger):
    tracer = tracing.Tracer()
    with tracer:
        inp = workload.setup(seed)
    n_clients = len(inp.train) if workload.federated else 0

    # untraced reference, then the same training and batch scoring traced,
    # then one more untraced training so the overhead compares the traced
    # training with untraced ones on either side of it
    ref, start, end = ledger.attempt("training", workload.train, inp)
    untraced = [end - start]
    if ref is None:
        raise RuntimeError("untraced training failed")
    ref_scored, _, _ = ledger.attempt("batch scoring", workload.score_batch, ref[0], inp)
    if ref_scored is None:
        raise RuntimeError("untraced batch scoring failed")
    ref_identity = _identity(workload, *ref)
    ref_scores, ref_pdigest = ref_scored[0], checks.transcript_digest(ref_scored[1])
    ref = ref_scored = None
    with tracer:
        traced, start, end = ledger.attempt("traced training", workload.train, inp)
        traced_s = end - start
        if traced is None:
            raise RuntimeError("traced training failed")
        scored, _, _ = ledger.attempt("traced batch scoring", workload.score_batch,
                                      traced[0], inp)
        if scored is None:
            raise RuntimeError("traced batch scoring failed")
    again, start, end = ledger.attempt("training", workload.train, inp)
    untraced.append(end - start)
    if again is not None and _identity(workload, *again) != ref_identity:
        ledger.fail("training", "model hash or transcript digest differs from the first run")
    again = None
    untraced_s = statistics.mean(untraced)
    (model, bus), (scores, pbus) = traced, scored
    if _identity(workload, model, bus) != ref_identity:
        ledger.fail("traced training", "tracing changed the model hash or transcript digest")
    if not (np.array_equal(scores, ref_scores) and checks.transcript_digest(pbus) == ref_pdigest):
        ledger.fail("traced batch scoring", "tracing changed the scores or inference transcript")

    envelopes = (bus.transcript if bus is not None else []) + (
        pbus.transcript if pbus is not None else [])
    failures, mismatches = checks.check_model(workload, inp, model, scores)
    if workload.federated:
        failures += checks.check_transcript(workload, inp, model, envelopes)
    for why in failures:
        ledger.fail("training output", why)

    expect = checks.expected_counts(envelopes, n_clients)
    seen = {
        "encrypt": tracer.calls["paillier.encrypt"],
        "decrypt": tracer.calls["paillier.decrypt"],
        "aggregate": tracer.calls["paillier.aggregate"],
        "terms": tracer.counts["paillier.aggregate"],
        "mask_draws": tracer.calls["seeding.mask"],
        "answer_query": tracer.calls["vfl.answer_query"],
    }
    for key, value in seen.items():
        if value != expect[key]:
            ledger.fail("traced training", f"{key}: traced {value}, transcripts imply {expect[key]}")

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    tracer.write_spans(out_dir / f"trace-{workload.name}-seed{seed}.jsonl")
    print(f"workload {workload.name} seed {seed}: untraced trainings "
          f"{untraced[0]:.4f} s and {untraced[1]:.4f} s, traced {traced_s:.4f} s, "
          f"spans in {out_dir.name}/")
    return layer_metrics(tracer, bus, pbus, expect, mismatches, untraced_s, traced_s)


def layer_metrics(tr, bus, pbus, expect, mismatches, untraced_s, traced_s) -> dict:
    total, own, calls = tr.total, tr.self_time, tr.calls
    envelopes = (bus.transcript if bus is not None else []) + (
        pbus.transcript if pbus is not None else [])
    nbytes, nmsgs = checks.traffic(envelopes)
    m = {
        "paillier.encrypt.calls": (calls["paillier.encrypt"], "count"),
        "paillier.encrypt.s": (total["paillier.encrypt"], "s"),
        "paillier.decrypt.calls": (calls["paillier.decrypt"], "count"),
        "paillier.decrypt.s": (total["paillier.decrypt"], "s"),
        "paillier.aggregate.calls": (calls["paillier.aggregate"], "count"),
        "paillier.aggregate.terms": (tr.counts["paillier.aggregate"], "count"),
        "paillier.aggregate.s": (total["paillier.aggregate"], "s"),
        "paillier.keygen.s": (total["paillier.keygen"], "s"),
        "seeding.mask_draws": (calls["seeding.mask"], "count"),
        "seeding.mask.s": (total["seeding.mask"], "s"),
        "hfl.mask_histogram.self_s": (own["hfl.mask_histogram"], "s"),
        "hfl.server_aggregate.self_s": (own["hfl.server_aggregate"], "s"),
        "hfl.train.self_s": (own["hfl.train"], "s"),
        "hfl.useful_slot_ratio": (expect["useful_slot_ratio"], "ratio"),
        "vfl.encrypt_gradients.self_s": (own["vfl.encrypt_gradients"], "s"),
        "vfl.bin_aggregate.self_s": (own["vfl.bin_aggregate"], "s"),
        "vfl.decrypt_histogram.self_s": (own["vfl.decrypt_histogram"], "s"),
        "vfl.resolve_partition.s": (total["vfl.resolve_partition"], "s"),
        "vfl.train.self_s": (own["vfl.train"], "s"),
        "vfl.useful_bin_ratio": (expect["useful_bin_ratio"], "ratio"),
        "vfl.answer_query.calls": (calls["vfl.answer_query"], "count"),
        "vfl.predict.s": (total["vfl.predict"], "s"),
        "gbt.build_histogram.calls": (calls["gbt.build_histogram"], "count"),
        "gbt.build_histogram.s": (total["gbt.build_histogram"], "s"),
        "gbt.route_binned.s": (total["gbt.route_binned"], "s"),
        "gbt.find_best_split.calls": (calls["gbt.find_best_split"], "count"),
        "gbt.find_best_split.s": (total["gbt.find_best_split"], "s"),
        "gbt.predict.s": (total["gbt.predict"], "s"),
        "gbt.train.self_s": (own["gbt.train"], "s"),
        "gbt.structure_mismatch_nodes": (mismatches, "count"),
        "transport.send.calls": (calls["transport.send"], "count"),
        "transport.send.s": (total["transport.send"], "s"),
        "transport.train_bytes": (sum(e.byte_len for e in bus.transcript) if bus else 0, "B"),
        "transport.train_messages": (len(bus.transcript) if bus else 0, "count"),
        "transport.predict_messages": (len(pbus.transcript) if pbus else 0, "count"),
        "data.synth.s": (total["data.synth"], "s"),
        "data.fold_plan.s": (total["data.fold_plan"], "s"),
        "trace.untraced_train_s": (untraced_s, "s"),
        "trace.traced_train_s": (traced_s, "s"),
        "trace.overhead_pct": (100.0 * (traced_s / untraced_s - 1.0), "%"),
    }
    for t in checks.MSG_TYPES:
        m[f"transport.bytes.{t}"] = (nbytes[t], "B")
        m[f"transport.messages.{t}"] = (nmsgs[t], "count")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    ledger = Ledger()
    if args.trace:
        metrics = run_traced(workload, args.seed, ledger)
    else:
        metrics = run_untraced(workload, args.seed, args.seconds, ledger)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0
