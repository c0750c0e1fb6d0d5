"""Output checks and transcript-derived counts.

The checks run outside the timed region.  A training, batch scoring or
single-row request that raises or fails one of them counts as a failed
operation.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import numpy as np

from fedgbt import gbt
from fedgbt.scanner import scan_sensitive, scan_structure

SCORE_TOL = 1e-6
WEIGHT_TOL = 1e-6

MSG_TYPES = (
    "KEY_BROADCAST", "BINNING_REPORT", "BINNING_BROADCAST", "HISTOGRAM_SUBMIT",
    "SPLIT_BROADCAST", "PARTITION_REPORT", "MODEL_DELIVERY", "GRADIENT_BROADCAST",
    "SAMPLE_SPACE", "ENC_HISTOGRAM_SUBMIT", "SPLIT_NOTICE", "PARTITION_REPLY",
    "INFER_QUERY", "INFER_REPLY",
)


def model_hash(ensemble: gbt.BoostedEnsemble) -> str:
    return hashlib.sha256(gbt.model_to_json(ensemble).encode()).hexdigest()


def transcript_digest(bus) -> str:
    """SHA-256 over every envelope's routing header and payload bytes, in order."""
    h = hashlib.sha256()
    for env in bus.transcript if bus is not None else ():
        h.update(f"{env.sender}>{env.recipient}:{env.round_id}:{env.msg_type}:".encode())
        h.update(env.payload_bytes)
    return h.hexdigest()


def traffic(envelopes) -> tuple[Counter, Counter]:
    """(bytes, messages) per message type."""
    nbytes, nmsgs = Counter(), Counter()
    for env in envelopes:
        nbytes[env.msg_type] += env.byte_len
        nmsgs[env.msg_type] += 1
    return nbytes, nmsgs


def expected_counts(envelopes, n_clients: int) -> dict:
    """Crypto operations, mask draws, queries and useful ratios implied by a transcript.

    HFL: every HISTOGRAM_SUBMIT slot is one mask sum over the other clients
    and, in ``paillier+mask`` mode, one encryption; the server aggregates and
    decrypts each (node, slot) once across clients.  VFL: each
    GRADIENT_BROADCAST payload carries one encryption per value; every
    ENC_HISTOGRAM_SUBMIT slot is one aggregate and one decryption, and the
    aggregate multiplies one ciphertext per (sample, feature, g|h).  Each
    INFER_QUERY is answered once.
    """
    out = dict.fromkeys(
        ("encrypt", "decrypt", "aggregate", "terms", "mask_draws", "answer_query"), 0)
    slots = nonempty = bins = nonempty_bins = 0
    broadcasts = {}
    for env in envelopes:
        p = env.payload
        if env.msg_type == "HISTOGRAM_SUBMIT":
            n = len(p["enc_g"]) + len(p["enc_h"])
            out["mask_draws"] += n * (n_clients - 1)
            if p["mode"] == "paillier+mask":
                out["encrypt"] += n
                out["terms"] += n
            slots += len(p["counts"])
            nonempty += int(np.count_nonzero(p["counts"]))
        elif env.msg_type == "GRADIENT_BROADCAST":
            broadcasts[p["tree"]] = len(p["enc_g"]) + len(p["enc_h"])
        elif env.msg_type == "ENC_HISTOGRAM_SUBMIT":
            n = len(p["enc_g"]) + len(p["enc_h"])
            out["decrypt"] += n
            out["aggregate"] += n
            out["terms"] += 2 * int(np.sum(p["counts"]))
            bins += len(p["counts"])
            nonempty_bins += int(np.count_nonzero(p["counts"]))
        elif env.msg_type == "INFER_QUERY":
            out["answer_query"] += 1
    if out["encrypt"]:  # HFL with Paillier: one decrypt per aggregated slot
        out["decrypt"] = out["aggregate"] = out["encrypt"] // n_clients
    out["encrypt"] += sum(broadcasts.values())
    out["useful_slot_ratio"] = nonempty / slots if slots else 0.0
    out["useful_bin_ratio"] = nonempty_bins / bins if bins else 0.0
    return out


def structure_mismatch_nodes(fed: gbt.BoostedEnsemble, pooled: gbt.BoostedEnsemble) -> int:
    """Nodes whose kind, split (feature, bin) or leaf weight differ, plus
    nodes present in only one of the two models."""
    n = abs(len(fed.trees) - len(pooled.trees))
    for ft, ct in zip(fed.trees, pooled.trees):
        n += abs(len(ft.nodes) - len(ct.nodes))
        for fn, cn in zip(ft.nodes, ct.nodes):
            if fn.is_leaf != cn.is_leaf:
                n += 1
            elif fn.is_leaf:
                n += abs(fn.weight - cn.weight) > WEIGHT_TOL
            else:
                n += (fn.feature, fn.bin_index) != (cn.feature, cn.bin_index)
    return n


def check_transcript(workload, inp, model, envelopes) -> list[str]:
    """Privacy scans over one transcript (training or inference)."""
    failures = []
    structure = scan_structure(envelopes)
    if not structure.clean:
        failures.append("transcript structure: " + structure.verdict())
    sensitive = scan_sensitive(envelopes, workload.corpus(inp, model))
    if not sensitive.clean:
        failures.append("transcript content: " + sensitive.verdict())
    return failures


def check_model(workload, inp, model, scores) -> tuple[list[str], int]:
    """Pooled equivalence (federated) or JSON round trip (central).

    Returns (failures, structure mismatch count).
    """
    ensemble = workload.ensemble(model)
    if not workload.federated:
        again = gbt.model_from_json(gbt.model_to_json(ensemble))
        if not np.array_equal(gbt.predict_proba(again, workload.test_matrix(inp)), scores):
            return ["model JSON round trip changes the scores"], 0
        return [], 0
    failures = []
    pooled = workload.pooled(inp)
    mismatches = structure_mismatch_nodes(ensemble, pooled)
    if mismatches and workload.same_structure:
        failures.append(f"{mismatches} tree nodes differ from the pooled model")
    gap = float(np.max(np.abs(scores - gbt.predict_proba(pooled, workload.test_matrix(inp)))))
    if gap > SCORE_TOL:
        failures.append(f"test scores differ from the pooled model's by {gap:.3g}")
    return failures, mismatches
