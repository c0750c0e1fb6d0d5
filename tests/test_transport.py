import json

import pytest
from hypothesis import given, settings, strategies as st

from fedgbt.scanner import ScanReport, SensitiveCorpus, scan_sensitive, scan_structure
from fedgbt.transport import (
    MessageBus,
    TransportError,
    encode_payload,
    read_transcript,
    write_transcript,
)


def ping_pong():
    """One PING and its PONG over a fresh bus; returns (echoed text, bus)."""
    bus = MessageBus()
    bus.send("alice", "bob", "PING", round_id=1, payload={"text": "hello"})
    msg = bus.recv("bob", "PING")
    bus.send("bob", "alice", "PONG", round_id=1, payload={"text": msg.payload["text"]})
    return bus.recv("alice", "PONG").payload["text"], bus


def test_ping_pong_transcript():
    result, bus = ping_pong()
    assert result == "hello"
    assert len(bus.transcript) == 2
    assert [e.msg_type for e in bus.transcript] == ["PING", "PONG"]
    assert all(e.round_id == 1 for e in bus.transcript)


def test_byte_accounting_matches_serialized_sizes():
    _, bus = ping_pong()
    expected = sum(len(encode_payload(e.payload)) for e in bus.transcript)
    assert sum(e.byte_len for e in bus.transcript) == expected
    per_sender = bus.bytes_by_sender()
    assert per_sender["alice"] == len(encode_payload({"text": "hello"}))
    assert sum(per_sender.values()) == expected
    assert bus.messages_by_sender() == {"alice": 1, "bob": 1}


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.text(), _json_values, max_size=5))
def test_encode_payload_equals_canonical_json_dumps(payload):
    expected = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    assert encode_payload(payload) == expected


def test_round_ids_must_not_decrease():
    bus = MessageBus()
    bus.send("a", "b", "PING", round_id=3, payload={"text": "x"})
    bus.send("a", "c", "PING", round_id=3, payload={"text": "y"})  # same round ok
    with pytest.raises(TransportError):
        bus.send("a", "b", "PING", round_id=2, payload={"text": "z"})


def test_missing_message_aborts_with_position():
    bus = MessageBus()
    with pytest.raises(TransportError):
        bus.recv("nobody")
    bus.send("a", "b", "PING", round_id=1, payload={"text": "x"})
    with pytest.raises(TransportError, match="expected PONG"):
        bus.recv("b", "PONG")


def test_recv_from_each_detects_missing_sender():
    bus = MessageBus()
    bus.send("c1", "server", "PING", 1, {"text": "a"})
    with pytest.raises(TransportError):
        bus.recv_from_each("server", ["c1", "c2"], "PING")


def test_transcript_file_roundtrip(tmp_path):
    _, bus = ping_pong()
    path = tmp_path / "t.log"
    write_transcript(bus, str(path))
    restored = read_transcript(str(path))
    assert [e.to_record() for e in restored] == [e.to_record() for e in bus.transcript]
    assert [e.byte_len for e in restored] == [e.byte_len for e in bus.transcript]


def test_transcript_completeness():
    _, bus = ping_pong()
    assert len(bus.transcript) == len(set(id(e) for e in bus.transcript))
    # every send appears exactly once: replaying the same script doubles it
    _, bus2 = ping_pong()
    assert len(bus2.transcript) == len(bus.transcript)


def test_structure_scan_flags_unknown_type_and_fields():
    bus = MessageBus()
    bus.send("a", "b", "PING", 1, {"text": "x"})
    assert scan_structure(bus.transcript).clean
    bus.send("a", "b", "WIRE_TAP", 2, {"secret": 1})
    report = scan_structure(bus.transcript)
    assert not report.clean
    bus2 = MessageBus()
    bus2.send("a", "b", "PING", 1, {"text": "x", "labels": [0, 1]})
    assert not scan_structure(bus2.transcript).clean


def test_sensitive_scan_finds_planted_values():
    bus = MessageBus()
    bus.send("a", "b", "PING", 1, {"text": "x"})
    corpus = SensitiveCorpus(label_vectors={"a": [0, 1, 1, 0]}, feature_cells={3.25})
    assert scan_sensitive(bus.transcript, corpus).clean
    bus.send("a", "b", "PING", 2, {"text": [0, 1, 1, 0]})
    report = scan_sensitive(bus.transcript, corpus)
    assert any("label vector" in f for f in report.findings)
    bus.send("a", "b", "PING", 3, {"text": [3.25]})
    report = scan_sensitive(bus.transcript, corpus)
    assert any("raw feature" in f for f in report.findings)


def test_sensitive_scan_threshold_locality_direction():
    bus = MessageBus()
    corpus = SensitiveCorpus(owner_thresholds={"active": {1.25}})
    bus.send("passive", "other", "PING", 1, {"text": [1.25]})
    assert scan_sensitive(bus.transcript, corpus).clean  # not addressed to active
    bus.send("passive", "active", "PING", 2, {"text": [1.25]})
    assert not scan_sensitive(bus.transcript, corpus).clean


def test_verdict_wording():
    assert ScanReport().verdict() == "no raw labels/features found"
