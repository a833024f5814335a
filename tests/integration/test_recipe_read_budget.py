"""Request budget of a backup's base recipe, counted by key prefix.

A recipe object no larger than ``WHOLE_RECIPE_BYTES`` is read with one
whole-object GET when a backup opens it as its base: its segment recipes are
served from that payload and its recipe index is derived from its records,
so the writer PUTs no ``recipeidx/`` object for it.  Above the cap (forced
here by patching the cap to 0) a base opens with two ranged GETs — header,
segment tables — GETs its index on the first cache miss, and its successor
PUTs one.  An unchanged small file's budget (1 GET, 1 PUT) is pinned in
``test_alias_versions.py``.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import SlimStore, SlimStoreConfig
from repro.oss.object_store import ObjectStorageService
from tests.conftest import random_bytes
from tests.integration.test_alias_versions import record_requests

PATH = "src/main.c"


@pytest.fixture
def small(rng) -> bytes:
    return random_bytes(rng, 4096)


def changed(data: bytes) -> bytes:
    edited = bytearray(data)
    edited[100:108] = bytes(8)
    return bytes(edited)


def second_backup(first: bytes, second: bytes) -> list[tuple[str, str]]:
    """(verb, key family) of every request the second backup of ``PATH`` makes."""
    store = SlimStore(SlimStoreConfig(), ObjectStorageService())
    store.backup(PATH, first)
    log = record_requests(store)
    store.backup(PATH, second)
    return log


def recipe_requests(log: list[tuple[str, str]]) -> Counter:
    return Counter(entry for entry in log if entry[1] in ("recipes/", "recipeidx/"))


def test_a_changed_small_file_reads_one_recipe_and_no_index(small):
    log = second_backup(small, changed(small))
    assert recipe_requests(log) == {
        ("get_object", "recipes/"): 1,
        ("put_object", "recipes/"): 1,
    }


class TestAboveTheCap:
    @pytest.fixture(autouse=True)
    def ranged(self, monkeypatch) -> None:
        monkeypatch.setattr("repro.core.recipe.WHOLE_RECIPE_BYTES", 0)

    def test_a_base_opens_ranged_and_fetches_its_index(self, small):
        log = second_backup(small, changed(small))
        # Header, segment tables: the open.
        assert log[:2] == [("get_range", "recipes/")] * 2
        assert recipe_requests(log) == {
            ("get_range", "recipes/"): 3,  # the open, then segment 0
            ("get_object", "recipeidx/"): 1,
            ("put_object", "recipes/"): 1,
            ("put_object", "recipeidx/"): 1,
        }

    def test_an_unchanged_file_costs_three_ranged_gets(self, small):
        assert Counter(second_backup(small, small)) == {
            ("get_range", "recipes/"): 3,
            ("put_object", "catalog/"): 1,
        }
