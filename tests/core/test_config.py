"""Tests for SlimStoreConfig validation, derived views and its reference page."""

import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro.core.config import SlimStoreConfig

API_DOC = Path(__file__).resolve().parents[2] / "docs" / "API.md"


class TestValidation:
    def test_defaults_valid(self):
        config = SlimStoreConfig()
        assert config.chunk_avg_size == 4096

    def test_rejects_non_power_of_two_chunk(self):
        with pytest.raises(ValueError):
            SlimStoreConfig(chunk_avg_size=5000)

    def test_rejects_tiny_segment(self):
        with pytest.raises(ValueError):
            SlimStoreConfig(segment_bytes=1024, chunk_avg_size=4096)

    def test_rejects_tiny_container(self):
        with pytest.raises(ValueError):
            SlimStoreConfig(container_bytes=1024, chunk_avg_size=4096)

    def test_rejects_bad_thresholds(self):
        with pytest.raises(ValueError):
            SlimStoreConfig(sparse_utilization_threshold=0.0)
        with pytest.raises(ValueError):
            SlimStoreConfig(container_rewrite_threshold=1.0)

    def test_rejects_negative_prefetch(self):
        with pytest.raises(ValueError):
            SlimStoreConfig(prefetch_threads=-1)


class TestDerivedViews:
    def test_chunker_params_shape(self):
        params = SlimStoreConfig(chunk_avg_size=8192).chunker_params()
        assert params.avg_size == 8192
        assert params.min_size == 2048
        assert params.max_size == 8192 * 8

    def test_merge_policy_mirrors_config(self):
        config = SlimStoreConfig(chunk_merging=False, merge_threshold=7)
        policy = config.merge_policy()
        assert policy.enabled is False
        assert policy.threshold == 7

    def test_effective_sample_ratio_shrinks_with_chunk_size(self):
        small_chunks = SlimStoreConfig(chunk_avg_size=4096)
        big_chunks = SlimStoreConfig(chunk_avg_size=65536, segment_bytes=128 * 1024)
        assert big_chunks.effective_sample_ratio() < small_chunks.effective_sample_ratio()
        assert big_chunks.effective_sample_ratio() >= 1

    def test_with_overrides(self):
        config = SlimStoreConfig()
        updated = config.with_overrides(skip_chunking=False)
        assert updated.skip_chunking is False
        assert config.skip_chunking is True  # original untouched

    def test_frozen(self):
        with pytest.raises(AttributeError):
            SlimStoreConfig().chunker = "rabin"


class TestDocumentedFields:
    """docs/API.md's ``SlimStoreConfig`` section lists every field by name,
    in groups whose stated sizes add up to the stated total — and lists
    nothing that is not a field."""

    @pytest.fixture
    def section(self) -> str:
        text = API_DOC.read_text()
        start = text.index("## `repro.core.config.SlimStoreConfig`")
        end = text.index("\n## ", start + 1)
        return text[start:end]

    @pytest.fixture
    def groups(self, section) -> dict[str, tuple[int, list[str]]]:
        """Group name -> (stated size, backticked identifiers listed)."""
        start = section.index("Groups of fields:")
        block = section[start : section.index("fields in all")]
        groups = {}
        for bullet in block.split("\n* ")[1:]:
            head = re.match(r"([\w -]+) \((\d+)\) —", bullet)
            assert head is not None, bullet
            names = re.findall(r"`([a-z_][a-z0-9_]*)`", bullet)
            groups[head.group(1)] = (int(head.group(2)), names)
        assert groups
        return groups

    def test_every_field_is_listed(self, section):
        missing = [f.name for f in fields(SlimStoreConfig) if f"`{f.name}`" not in section]
        assert missing == []

    def test_every_listed_name_is_a_field(self, groups):
        known = {f.name for f in fields(SlimStoreConfig)}
        listed = [name for _, names in groups.values() for name in names]
        assert [name for name in listed if name not in known] == []
        assert len(listed) == len(set(listed))

    def test_group_sizes_match_their_lists(self, groups):
        wrong = {
            group: (stated, len(names))
            for group, (stated, names) in groups.items()
            if stated != len(names)
        }
        assert wrong == {}

    def test_stated_count_matches(self, section, groups):
        stated = re.search(r"(\d+) fields in all", section)
        assert stated is not None
        assert int(stated.group(1)) == len(fields(SlimStoreConfig))
        assert sum(size for size, _ in groups.values()) == int(stated.group(1))
