"""Fixtures for core-layer index tests (helpers: ``index_helpers``)."""

from __future__ import annotations

import pytest

from repro.lsm.options import Options


@pytest.fixture
def index_options() -> Options:
    return Options(
        block_size=1024,
        sstable_target_size=4 * 1024,
        memtable_budget=4 * 1024,
        l1_target_size=16 * 1024,
    )
