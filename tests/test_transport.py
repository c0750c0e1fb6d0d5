import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedgbt.data import PartyDataset
from fedgbt.gbt import GbtParams, ProtocolError
from fedgbt.hfl import SECAGG_MASK_ONLY, SECAGG_PAILLIER, hfl_train, make_roster
from fedgbt.scanner import ScanReport, SensitiveCorpus, scan_sensitive, scan_structure
from fedgbt.transport import (
    MessageBus,
    TransportError,
    encode_payload,
    envelope_from_record,
    read_transcript,
    write_transcript,
)
from fedgbt.vfl import make_vfl_roster, vfl_predict, vfl_train


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


def _record(msg_type, payload, round_id=1):
    """An envelope as a transcript file holds it, which the bus would refuse
    to send."""
    return envelope_from_record({"sender": "a", "recipient": "b", "round_id": round_id,
                                 "msg_type": msg_type, "payload": payload})


def test_structure_scan_flags_unknown_type_and_fields():
    bus = MessageBus()
    bus.send("a", "b", "PING", 1, {"text": "x"})
    assert scan_structure(bus.transcript).clean
    report = scan_structure([*bus.transcript, _record("WIRE_TAP", {"secret": 1}, 2)])
    assert not report.clean
    assert not scan_structure([_record("PING", {"text": "x", "labels": [0, 1]})]).clean


def test_structure_scan_decodes_every_field_through_the_table():
    report = scan_structure([_record("PING", ["x"]), _record("KEY_BROADCAST", {
        "n": "-f", "g": 16, "key_bits": 4, "p": "b"})])
    assert report.findings == [
        "#0 PING from a: the payload is not a JSON object",
        "#1 KEY_BROADCAST from a: undeclared field p",
        "#1 KEY_BROADCAST from a: field n is not a hex integer",
        "#1 KEY_BROADCAST from a: field g is not a hex integer",
    ]


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


# ---------------------------------------------------------------------------
# The message table, on both sides of the bus

PARAMS = GbtParams(n_estimators=2, max_depth=3, max_bin=8, reg_lambda=1.0)


def _rows(n=60, F=4, seed=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, F))
    return X, (X @ rng.normal(size=F) > 0).astype(int)


def _hfl(bus=None, mode=SECAGG_MASK_ONLY):
    X, y = _rows()
    names = tuple(f"f{j}" for j in range(X.shape[1]))
    parties = {f"c{i}": PartyDataset(f"c{i}", np.arange(30 * i, 30 * i + 30),
                                     X[30 * i:30 * i + 30], names, y[30 * i:30 * i + 30])
               for i in range(2)}
    roster = make_roster(list(parties), [30, 30], master_seed=1, secagg_mode=mode)
    return hfl_train(roster, parties, PARAMS, seed=1, bus=bus, key_bits=256)[1]


def _vfl(bus=None, **params):
    """(trained model, party datasets, training bus) of a two-party run."""
    X, y = _rows()
    ids = np.arange(100, 100 + X.shape[0])
    datasets = {"active": PartyDataset("active", ids, X[:, :2], ("a0", "a1"), y),
                "passive0": PartyDataset("passive0", ids, X[:, 2:], ("p0", "p1"))}
    trained, bus = vfl_train(make_vfl_roster("active", datasets), datasets,
                             replace(PARAMS, **params), seed=1, bus=bus, key_bits=256)
    return trained, datasets, bus


class _MangleWire(MessageBus):
    """Edits the wire payload of the first ``msg_type`` envelope once it is
    sent: the dict the recipient decodes, while the bytes stay as sent."""

    def __init__(self, msg_type, edit):
        super().__init__()
        self.msg_type, self.edit = msg_type, edit
        self.sender = None

    def send(self, sender, recipient, msg_type, round_id, payload):
        env = super().send(sender, recipient, msg_type, round_id, payload)
        if msg_type == self.msg_type and self.sender is None:
            self.sender = sender
            self.edit(env.payload)
        return env


def _set(field, value):
    return lambda payload: payload[field].__setitem__(0, value)


# each edit and the fault it must raise, after "<type> from <sender>: "
WIRE_FAULTS = {
    "missing-field": (lambda payload: payload.pop("counts"), "missing field counts"),
    "extra-field": (lambda payload: payload.update(debug=[1, 2]), "undeclared field debug"),
    "non-hex-residue": (_set("enc_g", "zz"), "field enc_g is not a list of hex integers"),
    "negative-residue": (_set("enc_h", "-5"), "field enc_h is not a list of hex integers"),
    "count-as-string": (_set("counts", "3"), "field counts is not a list of int64 integers"),
    "count-as-float": (_set("counts", 1.5), "field counts is not a list of int64 integers"),
    "count-beyond-int64": (_set("counts", 2**70), "field counts is not a list of int64 integers"),
    # hex that int(text, 16) would read, but int_to_hex never writes
    **{f"hex-{name}": (_set("enc_g", text), "field enc_g is not a list of hex integers")
       for name, text in [("space", " ff"), ("underscore", "f_f"), ("prefix", "0xff"),
                          ("plus", "+ff"), ("upper-case", "FF"), ("leading-zero", "00ff")]},
}


@pytest.mark.parametrize("fault", list(WIRE_FAULTS))
@pytest.mark.parametrize("msg_type", ["HISTOGRAM_SUBMIT", "ENC_HISTOGRAM_SUBMIT"])
def test_a_malformed_payload_is_rejected_naming_sender_type_and_field(msg_type, fault):
    edit, expected = WIRE_FAULTS[fault]
    bus = _MangleWire(msg_type, edit)
    with pytest.raises(TransportError) as raised:
        _hfl(bus) if msg_type == "HISTOGRAM_SUBMIT" else _vfl(bus)
    assert str(raised.value) == f"{msg_type} from {bus.sender}: {expected}"


@pytest.mark.parametrize("roster_mode, sent", [
    (SECAGG_MASK_ONLY, "anything"), (SECAGG_MASK_ONLY, SECAGG_PAILLIER),
    (SECAGG_PAILLIER, "anything"), (SECAGG_PAILLIER, SECAGG_MASK_ONLY)])
def test_a_submission_in_another_mode_is_rejected(roster_mode, sent):
    bus = _MangleWire("HISTOGRAM_SUBMIT", lambda payload: payload.update(mode=sent))
    with pytest.raises(ProtocolError) as raised:
        _hfl(bus, mode=roster_mode)
    assert str(raised.value) == (f"HISTOGRAM_SUBMIT from {bus.sender} for tree 0, nodes [0]: "
                                 f"mode {sent!r}, not the roster's {roster_mode!r}")


def test_send_refuses_an_undeclared_type_or_a_payload_missing_a_field():
    bus = MessageBus()
    for msg_type, payload in [("WIRE_TAP", {"secret": 1}), ("PING", {}),
                              ("PING", {"text": "x", "labels": [0, 1]}),
                              ("KEY_BROADCAST", {"n": 15, "g": 16})]:
        with pytest.raises(TransportError, match=f"^{msg_type} from a has fields"):
            bus.send("a", "b", msg_type, 1, payload)
    assert bus.transcript == []
    bus.send("a", "b", "KEY_BROADCAST", 1, {"n": 15, "g": 16, "key_bits": 4})
    assert bus.transcript[0].payload == {"n": "f", "g": "10", "key_bits": 4}
    assert bus.recv("b").payload == {"n": 15, "g": 16, "key_bits": 4}


def _same_json(a, b) -> bool:
    """Equal, with the same type at every depth."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_json(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same_json, a, b))
    return a == b


def test_the_bytes_carry_the_wire_payload_the_recipient_decodes():
    # recv decodes each envelope's wire dict, not its bytes: every byte
    # string must parse back to that dict, type for type
    trained, datasets, vfl_bus = _vfl(subsample=0.7)
    assert any(e.msg_type == "INFER_QUERY" for e in vfl_bus.transcript)  # the out-of-bag walk
    transcripts = {"hfl mask-only": _hfl().transcript,
                   "hfl paillier+mask": _hfl(mode=SECAGG_PAILLIER).transcript,
                   "vfl training": vfl_bus.transcript,
                   "vfl inference": vfl_predict(trained, datasets)[1].transcript}
    for run, envelopes in transcripts.items():
        assert envelopes, run
        for i, env in enumerate(envelopes):
            assert _same_json(json.loads(env.payload_bytes), env.payload), (run, i, env.msg_type)
