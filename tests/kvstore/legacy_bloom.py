"""What the Bloom filter persisted before its payload had a scheme byte.

``legacy_payload`` is a copy of the deleted ``kvstore.bloom._hash`` (one
salted blake2b per hash function) and of the old ``to_bytes``, kept as the
reference for the blobs already sitting in SSTable footers;
``downgrade_sstable_bloom`` swaps such a blob into a freshly written table.
"""

import hashlib

from repro.kvstore.bloom import optimal_parameters
from repro.kvstore.sstable import _FOOTER, SSTable


def legacy_payload(expected_items: int, false_positive_rate: float, keys) -> bytes:
    bits, hashes = optimal_parameters(expected_items, false_positive_rate)
    array = bytearray((bits + 7) // 8)
    count = 0
    for key in keys:
        for seed in range(hashes):
            digest = hashlib.blake2b(
                key, digest_size=8, salt=seed.to_bytes(8, "big")
            ).digest()
            position = int.from_bytes(digest, "big") % bits
            array[position >> 3] |= 1 << (position & 7)
        count += 1
    header = bits.to_bytes(8, "big") + hashes.to_bytes(2, "big") + count.to_bytes(8, "big")
    return header + bytes(array)


def downgrade_sstable_bloom(oss, bucket: str, object_key: str) -> None:
    """Rewrite one SSTable object with its filter in the legacy format."""
    keys = [key for key, _ in SSTable.open(oss, bucket, object_key).iter_items()]
    blob = oss.get_object(bucket, object_key)
    data_len, index_len, bloom_off, _, count, magic = _FOOTER.unpack(blob[-_FOOTER.size :])
    bloom_blob = legacy_payload(count, 0.01, keys)
    footer = _FOOTER.pack(data_len, index_len, bloom_off, len(bloom_blob), count, magic)
    oss.put_object(bucket, object_key, blob[:bloom_off] + bloom_blob + footer)
