"""In-process multi-party transport with a full message transcript.

Every cross-party value moves through :class:`MessageBus` as a serialized
envelope.  There are no sockets: parties are objects driven by a protocol
coordinator, with per-round barriers implied by the call sequence.  Payloads
are canonical JSON (sorted keys, big integers as lowercase hex strings), so
byte accounting reflects realistic wire sizes and identical runs produce
byte-identical transcripts.
"""

from __future__ import annotations

import json
from collections import defaultdict, deque
from dataclasses import dataclass


class TransportError(RuntimeError):
    """Missing or malformed protocol message; aborts the round."""


# one encoder for every payload: json.dumps with these arguments would build
# a new one per call
_PAYLOAD_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def encode_payload(payload: dict) -> bytes:
    return _PAYLOAD_ENCODER.encode(payload).encode()


@dataclass(frozen=True)
class Envelope:
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
        return {
            "sender": self.sender,
            "recipient": self.recipient,
            "round_id": self.round_id,
            "msg_type": self.msg_type,
            "payload": self.payload,
        }


def envelope_from_record(record: dict) -> Envelope:
    payload = record["payload"]
    return Envelope(
        sender=record["sender"],
        recipient=record["recipient"],
        round_id=record["round_id"],
        msg_type=record["msg_type"],
        payload=payload,
        payload_bytes=encode_payload(payload),
    )


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
        self._last_round[sender] = round_id
        env = Envelope(
            sender=sender,
            recipient=recipient,
            round_id=round_id,
            msg_type=msg_type,
            payload=payload,
            payload_bytes=encode_payload(payload),
        )
        self.transcript.append(env)
        self._inboxes[recipient].append(env)
        return env

    def recv(self, recipient: str, msg_type: str | None = None) -> Envelope:
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
        return env

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
