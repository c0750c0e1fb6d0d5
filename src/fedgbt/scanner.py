"""Transcript privacy scanner.

Two complementary checks:

* :func:`scan_structure` decodes every payload through the wire schema,
  :data:`fedgbt.transport.MESSAGES`: an undeclared message type, a missing
  or undeclared field, or a value its codec rejects is a finding that names
  the envelope's index, type, sender and field.  It is the check the CLI
  runs on a bare transcript file;
* :func:`scan_sensitive` hunts for known-sensitive values (label vectors,
  raw feature cells, unmasked per-party gradient aggregates, thresholds
  bound to a specific owner) inside payloads — the stronger check the test
  harness runs with ground truth in hand.

Per-feature (min, max) range reports are treated as sanctioned metadata:
shared equal-width binning cannot exist without them, and they are excluded
from the raw-cell search by message type rather than silently ignored.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .transport import Envelope, decode_payload

# Message types whose numeric content is sanctioned aggregate metadata and is
# therefore excluded from the raw-feature-cell search.
RANGE_METADATA_TYPES = {"BINNING_REPORT", "BINNING_BROADCAST"}


@dataclass
class ScanReport:
    findings: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings

    def verdict(self) -> str:
        if self.clean:
            return "no raw labels/features found"
        return f"{len(self.findings)} finding(s): " + "; ".join(self.findings[:10])


def scan_structure(envelopes: list[Envelope]) -> ScanReport:
    """Decode every envelope through the wire schema; each fault is a finding."""
    report = ScanReport()
    for i, env in enumerate(envelopes):
        report.findings += [f"#{i} {fault}" for fault in decode_payload(env)[1]]
    return report


def _walk_values(obj, floats: list[float], int_lists: list[list[int]]):
    if isinstance(obj, bool):
        return
    if isinstance(obj, float):
        floats.append(obj)
    elif isinstance(obj, list):
        if obj and all(isinstance(v, int) and not isinstance(v, bool) for v in obj):
            int_lists.append(obj)
        for v in obj:
            _walk_values(v, floats, int_lists)
    elif isinstance(obj, dict):
        for v in obj.values():
            _walk_values(v, floats, int_lists)


@dataclass
class SensitiveCorpus:
    """Ground truth the scanner must never see on the wire."""

    label_vectors: dict[str, list[int]] = field(default_factory=dict)
    feature_cells: set[float] = field(default_factory=set)
    forbidden_hex: set[str] = field(default_factory=set)
    forbidden_floats: set[float] = field(default_factory=set)
    # thresholds that may only appear in messages NOT addressed to these ids
    owner_thresholds: dict[str, set[float]] = field(default_factory=dict)


def scan_sensitive(envelopes: list[Envelope], corpus: SensitiveCorpus) -> ScanReport:
    report = ScanReport()
    for i, env in enumerate(envelopes):
        floats: list[float] = []
        int_lists: list[list[int]] = []
        _walk_values(env.payload, floats, int_lists)
        float_set = set(floats)

        for party, labels in corpus.label_vectors.items():
            if len(labels) >= 4:
                for lst in int_lists:
                    if lst == labels:
                        report.findings.append(
                            f"#{i} {env.msg_type}: label vector of {party} transmitted"
                        )

        if env.msg_type not in RANGE_METADATA_TYPES:
            leaked = float_set & corpus.feature_cells
            if leaked:
                report.findings.append(
                    f"#{i} {env.msg_type} from {env.sender}: raw feature value(s) "
                    f"{sorted(leaked)[:3]}"
                )

        leaked_floats = float_set & corpus.forbidden_floats
        if leaked_floats:
            report.findings.append(
                f"#{i} {env.msg_type} from {env.sender}: unprotected aggregate(s) "
                f"{sorted(leaked_floats)[:3]}"
            )

        if corpus.forbidden_hex:
            text = env.payload_bytes.decode()
            for h in corpus.forbidden_hex:
                if h in text:
                    report.findings.append(
                        f"#{i} {env.msg_type} from {env.sender}: unmasked encoding on the wire"
                    )
                    break

        recipient_thresholds = corpus.owner_thresholds.get(env.recipient)
        if recipient_thresholds:
            leaked_thr = float_set & recipient_thresholds
            if leaked_thr:
                report.findings.append(
                    f"#{i} {env.msg_type} to {env.recipient}: foreign split threshold(s) "
                    f"{sorted(leaked_thr)[:3]}"
                )
    return report
