"""Outside-in tracing of the fedgbt layers.

``hfl`` and ``vfl`` import ``encrypt``, ``decrypt``, ``aggregate``,
``keygen``, ``build_histogram``, ``find_best_split`` and
``derive_uniform_int`` into their own namespaces, so patching
``fedgbt.paillier.encrypt`` alone would record nothing.  Each name is
therefore wrapped where it is looked up at call time, and the party and bus
methods are wrapped on their classes.  Nothing under ``src/`` is changed.

Spans are kept in memory and written out by the caller at the end.  Calls
that happen more than about 10^4 times per training (mask draws, encrypt,
decrypt, aggregate, bus send/recv) are folded into a count plus total time
instead of one span each.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

from fedgbt import data, gbt, hfl, transport, vfl

SPAN, FOLD = True, False


def _terms(args, kwargs):
    return len(args[1])  # aggregate(pk, cs): one multiplication per ciphertext


# (namespace, attribute, metric name, one span per call?, extra count)
PATCHES = [
    (hfl, "encrypt", "paillier.encrypt", FOLD, None),
    (vfl, "encrypt", "paillier.encrypt", FOLD, None),
    (hfl, "decrypt", "paillier.decrypt", FOLD, None),
    (vfl, "decrypt", "paillier.decrypt", FOLD, None),
    (hfl, "aggregate", "paillier.aggregate", FOLD, _terms),
    (vfl, "aggregate", "paillier.aggregate", FOLD, _terms),
    (hfl, "keygen", "paillier.keygen", SPAN, None),
    (vfl, "keygen", "paillier.keygen", SPAN, None),
    (hfl, "derive_uniform_int", "seeding.mask", FOLD, None),
    (hfl, "hfl_train", "hfl.train", SPAN, None),
    (hfl, "mask_histogram", "hfl.mask_histogram", SPAN, None),
    (hfl, "server_aggregate", "hfl.server_aggregate", SPAN, None),
    (hfl, "build_histogram", "gbt.build_histogram", SPAN, None),
    (hfl, "find_best_split", "gbt.find_best_split", SPAN, None),
    (hfl, "tree_leaf_weights_binned", "gbt.route_binned", SPAN, None),
    (vfl, "vfl_train", "vfl.train", SPAN, None),
    (vfl, "vfl_predict", "vfl.predict", SPAN, None),
    (vfl, "find_best_split", "gbt.find_best_split", SPAN, None),
    (vfl.ActiveParty, "encrypt_gradients", "vfl.encrypt_gradients", SPAN, None),
    (vfl.ActiveParty, "decrypt_histogram", "vfl.decrypt_histogram", SPAN, None),
    (vfl.ActiveParty, "own_histogram", "vfl.own_histogram", SPAN, None),
    (vfl.PassiveParty, "receive_gradients", "vfl.receive_gradients", SPAN, None),
    (vfl.PassiveParty, "bin_aggregate", "vfl.bin_aggregate", SPAN, None),
    (vfl.PassiveParty, "store_record", "vfl.store_record", SPAN, None),
    (vfl.PassiveParty, "resolve_partition", "vfl.resolve_partition", SPAN, None),
    (vfl.PassiveParty, "load_inference_rows", "vfl.load_inference_rows", SPAN, None),
    (vfl.PassiveParty, "answer_query", "vfl.answer_query", FOLD, None),
    # vfl.ActiveParty.own_histogram imports gbt.build_histogram at call time
    (gbt, "build_histogram", "gbt.build_histogram", SPAN, None),
    (gbt, "find_best_split", "gbt.find_best_split", SPAN, None),
    (gbt, "tree_leaf_weights_binned", "gbt.route_binned", SPAN, None),
    (gbt, "predict_margin", "gbt.predict", SPAN, None),
    (gbt, "train_centralized", "gbt.train", SPAN, None),
    (transport.MessageBus, "send", "transport.send", FOLD, None),
    (transport.MessageBus, "recv", "transport.recv", FOLD, None),
    (transport.MessageBus, "recv_from_each", "transport.recv_from_each", FOLD, None),
    (data, "synth_generate", "data.synth", SPAN, None),
    (data, "split_train_valid_test", "data.fold_plan", SPAN, None),
    (data, "join_datasets", "data.join", SPAN, None),
]


class Tracer:
    """Per-name call counts, total and self time, plus an in-memory span list.

    Self time is a call's duration minus the time its traced children took.
    """

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans: list[tuple[str, str, float, float]] = []  # name, parent, start, end
        self._stack: list[list] = []  # [child time, name] per open call
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, span, count):
        stack, spans = self._stack, self.spans
        calls, total, self_time, counts = self.calls, self.total, self.self_time, self.counts

        def traced(*args, **kwargs):
            frame = [0.0, name]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                calls[name] += 1
                total[name] += took
                self_time[name] += took - frame[0]
                if stack:
                    stack[-1][0] += took
                if count is not None:
                    counts[name] += count(args, kwargs)
                if span:
                    spans.append((name, stack[-1][1] if stack else "", start, end))

        return traced

    def __enter__(self):
        for owner, attr, name, span, count in PATCHES:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, span, count))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, parent, start, end in self.spans:
                fh.write(json.dumps({"name": name, "parent": parent,
                                     "start": start, "end": end}) + "\n")
            for name in sorted(self.calls):
                fh.write(json.dumps({"name": name, "calls": self.calls[name],
                                     "total_s": self.total[name],
                                     "self_s": self.self_time[name]}) + "\n")
