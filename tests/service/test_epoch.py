"""EpochCell: the one fence — pinned snapshots, CAS publish, require."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.exceptions import StaleEpochError
from repro.service import EpochCell


@dataclass(frozen=True)
class Snap:
    epoch: int


def test_stale_expect_is_rejected_and_nothing_changes():
    cell = EpochCell(Snap(1))
    current = cell.publish(Snap(2), expect=1)
    assert cell.snapshot() is current
    with pytest.raises(StaleEpochError) as excinfo:
        cell.publish(Snap(3), expect=1)
    assert excinfo.value.epoch == 2
    assert cell.snapshot() is current


@pytest.mark.parametrize("epoch", [2, 1])
def test_non_increasing_epoch_is_rejected(epoch):
    cell = EpochCell(Snap(2))
    current = cell.snapshot()
    with pytest.raises(StaleEpochError):
        cell.publish(Snap(epoch))
    with pytest.raises(StaleEpochError):
        cell.publish(Snap(epoch), expect=2)
    assert cell.snapshot() is current


def test_require_after_publish():
    cell = EpochCell(Snap(1))
    assert cell.require(1) is cell.snapshot()
    cell.publish(Snap(2))
    with pytest.raises(StaleEpochError) as excinfo:
        cell.require(1)
    assert excinfo.value.epoch == 2
    assert cell.require(2).epoch == 2
