"""A store checkpointed in the first tree format still recovers.

``fixtures/v1-store`` holds two ingest stores written by
:class:`~repro.ingest.IngestService` with the ``metricost-ingest-tree-v1``
snapshot writer (version-1 M-tree documents: one tagged JSON object per
stored object).  Each was made the same way, with the layout below and
``fsync="never"``: ``recover()``, ``append`` the first 40 objects,
``apply()``, ``checkpoint()``, ``append`` the last 12, ``close()``.  So
the snapshot holds objects 0-39 and the WAL all 52, of which 41-52 are
acknowledged but never checkpointed.

Recovery must load the old snapshot, replay exactly the 12 records past
its high-water mark and hold every acknowledged object exactly once,
bit for bit; a checkpoint afterwards rewrites the store in the current
format, and a second recovery gives the same tree again.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.ingest import IngestService
from repro.metrics import L2, EditDistance
from repro.mtree import NodeLayout

FIXTURES = Path(__file__).parent / "fixtures" / "v1-store"
LAYOUT = NodeLayout(node_size_bytes=80, object_bytes=8)
CHECKPOINTED = 40
ACKED = 52

WORDS = [
    "casa", "cosa", "caso", "masa", "mesa", "musa", "rosa", "ropa", "sopa",
    "copa", "capa", "cara", "cera", "pera", "pena", "pana", "lana", "luna",
    "cuna", "duna", "dama", "cama", "rama", "fama", "lama", "llama", "flama",
    "trama", "drama", "grama", "gama", "gana", "mano", "mono", "moño", "año",
    "paño", "baño", "caño", "daño", "señal", "canal", "nasal", "nadal",
    "medal", "metal", "vital", "total", "postal", "costal", "€uro", "𝔸lfa",
]

STORES = {
    "vectors": (L2, lambda: list(np.random.default_rng(2026).random((ACKED, 3)))),
    "words": (EditDistance, lambda: list(WORDS)),
}


def _held(tree):
    """``(oid, object)`` of every stored object, by oid."""
    return sorted(tree.iter_objects(), key=lambda pair: pair[0])


def _assert_holds_exactly(tree, objects):
    held = _held(tree)
    assert [oid for oid, _obj in held] == list(range(len(objects)))
    for (_oid, obj), original in zip(held, objects):
        if isinstance(original, str):
            assert obj == original
        else:
            assert np.asarray(obj).tobytes() == original.tobytes()


@pytest.mark.parametrize("store", sorted(STORES))
def test_v1_store_recovers_every_acked_object_once(store, tmp_path):
    make_metric, make_objects = STORES[store]
    objects = make_objects()
    assert len(objects) == ACKED
    directory = tmp_path / store
    shutil.copytree(FIXTURES / store, directory)

    service = IngestService(directory, make_metric(), LAYOUT, fsync="never")
    recovery = service.recover()
    assert recovery.ok
    assert recovery.checkpoint_seq == CHECKPOINTED
    assert recovery.replayed == ACKED - CHECKPOINTED
    assert recovery.replay_failures == 0
    tree = service.view().tree
    tree.validate()
    _assert_holds_exactly(tree, objects)
    for i in range(0, ACKED, 5):
        assert i in tree.range_query(objects[i], 0).oids()

    service.checkpoint()
    service.close()
    again = IngestService(directory, make_metric(), LAYOUT, fsync="never")
    recovery = again.recover()
    assert recovery.checkpoint_seq == ACKED
    assert recovery.replayed == 0
    again.view().tree.validate()
    _assert_holds_exactly(again.view().tree, objects)
    again.close()
