"""In-process multi-party transport with a full message transcript.

Every cross-party value moves through :class:`MessageBus` as a serialized
envelope.  There are no sockets: parties are objects driven by a protocol
coordinator, with per-round barriers implied by the call sequence.

One table, :data:`MESSAGES`, is the wire schema: each message type's fields
and each field's :class:`Codec`.  ``send`` takes a typed payload (big
integers as ints, counts as a flat list of ints) and encodes every field to
its wire form; a type the table does not declare, or a payload missing a
field or carrying one more, raises :class:`TransportError` before the
transcript grows.  The envelope and the transcript keep that wire form:
canonical JSON (sorted keys, big integers as minimal lowercase hex
strings), so byte accounting reflects realistic wire sizes and identical
runs produce byte-identical transcripts.  ``recv`` hands the recipient the
wire payload decoded through the same table (counts as one flat int64
array): a missing, extra or undeclared field, or a value its codec rejects
(hex that ``int_to_hex`` would not write, not an int64 integer), raises
:class:`TransportError` naming the sender, the type and the field.  The
recipient decodes the wire dict rather than parsing the bytes again; the
tests show that the bytes parse back to that dict, type for type.
"""

from __future__ import annotations

import json
from array import array
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .paillier import hex_to_int, int_to_hex


class TransportError(RuntimeError):
    """Missing or malformed protocol message; aborts the round."""


@dataclass(frozen=True)
class Codec:
    """One field's wire form: ``encode`` writes it from the sender's value;
    ``decode`` reads it back, and raises TypeError, ValueError or
    OverflowError on a wire value that is not ``form``."""

    form: str
    encode: Callable
    decode: Callable


def _same(value):
    return value


def _hex_list(wire) -> list[int]:
    if type(wire) is not list:
        raise TypeError(wire)
    return list(map(hex_to_int, wire))


def _hex_map(wire) -> dict[int, int]:
    if type(wire) is not dict:
        raise TypeError(wire)
    return {int(sample_id): hex_to_int(v) for sample_id, v in wire.items()}


def _int64s(wire) -> np.ndarray:
    # np.array(wire, dtype=np.int64) would read "3" as 3 and truncate 1.5;
    # array("q") takes ints alone (a bool is one) and raises OverflowError
    # beyond int64
    if type(wire) is not list:
        raise TypeError(wire)
    return np.frombuffer(array("q", wire), dtype=np.int64)


JSON = Codec("JSON", _same, _same)
HEX = Codec("a hex integer", int_to_hex, hex_to_int)
HEX_LIST = Codec("a list of hex integers", lambda v: list(map(int_to_hex, v)), _hex_list)
HEX_MAP = Codec("a map of sample ids to hex integers",
                lambda v: {str(k): int_to_hex(c) for k, c in v.items()}, _hex_map)
COUNTS = Codec("a list of int64 integers", _same, _int64s)


def _json(*names: str) -> dict[str, Codec]:
    return dict.fromkeys(names, JSON)


MESSAGES: dict[str, dict[str, Codec]] = {
    "KEY_BROADCAST": {"n": HEX, "g": HEX, "key_bits": JSON},
    "BINNING_REPORT": _json("lows", "highs", "n_features"),
    "BINNING_BROADCAST": _json("boundaries", "n_bins"),
    "HISTOGRAM_SUBMIT": {**_json("tree", "nodes", "mode"), "enc_g": HEX_LIST,
                         "enc_h": HEX_LIST, "counts": COUNTS},
    "SPLIT_BROADCAST": _json("tree", "depth", "decisions", "bits"),
    "PARTITION_REPORT": _json("tree", "depth", "counts"),
    "GRADIENT_BROADCAST": {"tree": JSON, "enc_g": HEX_MAP, "enc_h": HEX_MAP},
    "SAMPLE_SPACE": _json("tree", "node", "sample_ids", "slots", "h_slots"),
    "ENC_HISTOGRAM_SUBMIT": {**_json("tree", "node"), "enc_g": HEX_LIST, "enc_h": HEX_LIST,
                             "counts": COUNTS},
    "SPLIT_NOTICE": _json("tree", "node", "record", "feature_local", "bin", "sample_ids"),
    "PARTITION_REPLY": _json("tree", "node", "sample_ids"),
    "INFER_QUERY": _json("query", "records", "sample_ids"),
    "INFER_REPLY": _json("query", "go_left"),
    "PING": _json("text"), "PONG": _json("text"),  # for exercising the bus itself
}
# per type, the fields a codec converts: a plain JSON field is sent and read as it is
_CODED = {msg_type: [(name, codec) for name, codec in fields.items() if codec is not JSON]
          for msg_type, fields in MESSAGES.items()}


# one encoder for every payload: json.dumps with these arguments would build
# a new one per call
_PAYLOAD_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def encode_payload(payload: dict) -> bytes:
    return _PAYLOAD_ENCODER.encode(payload).encode()


class Envelope(NamedTuple):
    """One message as sent: its payload in wire form, and that payload's
    bytes.  A named tuple, the quickest record to build: the bus builds one
    per message sent and one per delivery it decodes."""

    sender: str
    recipient: str
    round_id: int
    msg_type: str
    payload: dict
    payload_bytes: bytes

    @property
    def byte_len(self) -> int:
        return len(self.payload_bytes)

    def to_record(self) -> dict:
        """The envelope as a transcript line holds it: all but the bytes."""
        return {k: v for k, v in self._asdict().items() if k != "payload_bytes"}


def decode_payload(env: Envelope) -> tuple[dict, list[str]]:
    """The envelope's wire payload decoded through :data:`MESSAGES`, and
    every fault found, each naming the type, the sender and the field.  A
    payload of plain JSON fields alone is its own decoding."""
    fields, payload = MESSAGES.get(env.msg_type), env.payload
    if fields is None:
        decoded, faults = {}, ["undeclared message type"]
    elif type(payload) is not dict:
        decoded, faults = {}, ["the payload is not a JSON object"]
    else:
        faults = [] if payload.keys() == fields.keys() else (
            [f"undeclared field {name}" for name in sorted(payload.keys() - fields)]
            + [f"missing field {name}" for name in fields if name not in payload])
        coded = _CODED[env.msg_type]
        decoded = dict(payload) if coded else payload
        for name, codec in coded:
            try:
                decoded[name] = codec.decode(payload[name])
            except KeyError:
                pass  # a missing field, named above
            except (TypeError, ValueError, OverflowError):
                faults.append(f"field {name} is not {codec.form}")
    return decoded, [f"{env.msg_type} from {env.sender}: {fault}" for fault in faults]


def envelope_from_record(record: dict) -> Envelope:
    return Envelope(**record, payload_bytes=encode_payload(record["payload"]))


class MessageBus:
    """Synchronous in-process delivery with an append-only transcript."""

    def __init__(self):
        self.transcript: list[Envelope] = []
        self._inboxes: dict[str, deque[Envelope]] = defaultdict(deque)
        self._last_round: dict[str, int] = {}

    def send(self, sender: str, recipient: str, msg_type: str, round_id: int, payload: dict) -> Envelope:
        if round_id < self._last_round.get(sender, 0):
            raise TransportError(
                f"{sender} attempted to send round {round_id} after round "
                f"{self._last_round[sender]}"
            )
        fields = MESSAGES.get(msg_type)
        if fields is None or payload.keys() != fields.keys():
            raise TransportError(f"{msg_type} from {sender} has fields {sorted(payload)}; the "
                                 f"table declares {sorted(fields) if fields else 'no such type'}")
        coded = _CODED[msg_type]
        wire = dict(payload) if coded else payload
        for name, codec in coded:
            wire[name] = codec.encode(payload[name])
        self._last_round[sender] = round_id
        env = Envelope(sender, recipient, round_id, msg_type, wire, encode_payload(wire))
        self.transcript.append(env)
        self._inboxes[recipient].append(env)
        return env

    def recv(self, recipient: str, msg_type: str | None = None) -> Envelope:
        """The next envelope in the inbox, its payload decoded through
        :data:`MESSAGES`; the transcript keeps the wire form."""
        inbox = self._inboxes[recipient]
        if not inbox:
            raise TransportError(f"{recipient} expected a message but the inbox is empty")
        env = inbox.popleft()
        if msg_type is not None and env.msg_type != msg_type:
            raise TransportError(
                f"{recipient} expected {msg_type}, got {env.msg_type} "
                f"from {env.sender} (round {env.round_id}, transcript position "
                f"{self.transcript.index(env)})"
            )
        payload, faults = decode_payload(env)
        if faults:
            raise TransportError(faults[0])
        return env if payload is env.payload else Envelope(
            env.sender, recipient, env.round_id, env.msg_type, payload, env.payload_bytes)

    def recv_from_each(self, recipient: str, senders: list[str], msg_type: str) -> dict[str, Envelope]:
        """Round barrier: one message of the given type from every sender.

        The result is keyed (and later iterated) by sender id, so protocol
        output cannot depend on arrival order.
        """
        got: dict[str, Envelope] = {}
        for _ in senders:
            env = self.recv(recipient, msg_type)
            if env.sender in got:
                raise TransportError(f"duplicate {msg_type} from {env.sender}")
            got[env.sender] = env
        missing = set(senders) - set(got)
        if missing:
            raise TransportError(f"round timeout: no {msg_type} from {sorted(missing)}")
        return {s: got[s] for s in sorted(got)}

    def bytes_by_sender(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for env in self.transcript:
            out[env.sender] += env.byte_len
        return dict(out)

    def messages_by_sender(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for env in self.transcript:
            out[env.sender] += 1
        return dict(out)



def write_transcript(bus: MessageBus, path: str) -> None:
    with open(path, "w") as fh:
        for env in bus.transcript:
            fh.write(json.dumps(env.to_record(), sort_keys=True))
            fh.write("\n")


def read_transcript(path: str) -> list[Envelope]:
    envelopes = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                envelopes.append(envelope_from_record(json.loads(line)))
    return envelopes
