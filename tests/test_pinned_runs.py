"""Small federated runs pinned to the byte: the sha256 of each model's JSON
and of each transcript.  A change that must leave the trained models and
every message unchanged shows here that it does; a change that means to
alter them updates the digests and says why.  Each run is made on both
backends of ``paillier._powmod``, libcrypto and the builtin ``pow``, to the
same digests."""

import hashlib

import numpy as np
import pytest

from fedgbt.data import PartyDataset
from fedgbt.gbt import GbtParams, model_to_json
from fedgbt.hfl import SECAGG_MASK_ONLY, SECAGG_PAILLIER, hfl_train, make_roster
from fedgbt.vfl import make_vfl_roster, vfl_predict, vfl_train

from test_paillier import powmod_backend  # a fixture, which pytest finds by name

pytestmark = pytest.mark.usefixtures("powmod_backend")

PARAMS = GbtParams(n_estimators=2, max_depth=3, max_bin=8, reg_lambda=1.0, learning_rate=0.3,
                   min_child_weight=1.0, subsample=0.8)


def _transcript_digest(bus):
    """Every envelope's routing header and payload bytes, in order, as
    perfbench/checks.py ``transcript_digest`` hashes them."""
    h = hashlib.sha256()
    for env in bus.transcript:
        h.update(f"{env.sender}>{env.recipient}:{env.round_id}:{env.msg_type}:".encode())
        h.update(env.payload_bytes)
    return h.hexdigest()


def _model_digest(ensemble):
    return hashlib.sha256(model_to_json(ensemble).encode()).hexdigest()


def _data(n, F, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, F))
    y = (X @ rng.normal(size=F) + 0.3 * rng.normal(size=n) > 0).astype(int)
    return X, y


def _hfl_digests(secagg):
    """The model and transcript digests of a 3-client run of 90 rows."""
    X, y = _data(90, 4, seed=3)
    names = tuple(f"f{j}" for j in range(4))
    cuts = [0, 25, 55, 90]
    parties = {f"c{i}": PartyDataset(f"c{i}", np.arange(a, b), X[a:b], names, y[a:b])
               for i, (a, b) in enumerate(zip(cuts, cuts[1:]))}
    roster = make_roster(list(parties), [p.n_samples for p in parties.values()],
                         master_seed=4, secagg_mode=secagg)
    ensemble, bus = hfl_train(roster, parties, PARAMS, seed=5, key_bits=256)
    return _model_digest(ensemble), _transcript_digest(bus)


def _vfl_digests():
    """The model, training transcript, inference transcript and score
    digests of a run of 60 rows over an active and two passive parties,
    scored on 10 more."""
    X, y = _data(70, 5, seed=6)
    ids = np.arange(200, 270)
    blocks = {"active": (0, 2), "p0": (2, 4), "p1": (4, 5)}
    train = {pid: PartyDataset(pid, ids[:60], X[:60, a:b],
                               tuple(f"{pid}_{j}" for j in range(a, b)),
                               y[:60] if pid == "active" else None)
             for pid, (a, b) in blocks.items()}
    test = {pid: PartyDataset(pid, ids[60:], X[60:, a:b], train[pid].feature_names)
            for pid, (a, b) in blocks.items()}
    trained, bus = vfl_train(make_vfl_roster("active", train), train, PARAMS, seed=7,
                             key_bits=256)
    scores, infer_bus = vfl_predict(trained, test)
    return (_model_digest(trained.ensemble), _transcript_digest(bus),
            _transcript_digest(infer_bus), hashlib.sha256(scores.tobytes()).hexdigest())


@pytest.mark.parametrize("secagg, expected", [
    (SECAGG_PAILLIER, ("0e50331775f512fcca61f8de71cc1114bfee19393c112582665801a311e8d7ca",
                       "8691ff38a5c54b64c86c8473fa5fb7b71a025721e7ef97c543ca530236ff2103")),
    # the same model: the modes differ only in what goes on the wire
    (SECAGG_MASK_ONLY, ("0e50331775f512fcca61f8de71cc1114bfee19393c112582665801a311e8d7ca",
                        "710ba376f0dd68c9485e20c7f563c49d6ce232cc1b88f951570b890a0815142f")),
])
def test_hfl_model_and_transcript_are_pinned(secagg, expected):
    assert _hfl_digests(secagg) == expected


def test_vfl_model_and_transcripts_are_pinned():
    # the training transcript opens with the public key's KEY_BROADCAST to
    # each passive party
    assert _vfl_digests() == (
        "00c61e0b4e98339f6c823cbfc2a111d34aa3e03016b5ede9611df3dc52ee4a64",
        "3be2f7f6ad48e62846334d349d253510a8f5615b480467129faa7b06eb0d2560",
        "da84f99d064c5906e723a3ea687b300b38d3f038ae9ab40b447f7951e8998b93",
        "ce17474520b718cb9dcc45e03269de77967f4a3264ac2ce3c6fe5e8a99011142")
