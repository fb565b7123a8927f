"""Property: a damaged result-cache entry is never served and never fatal.

The result cache is the sweep's one resume store, so its read path must
be honest about whatever bytes a dying host leaves behind — a
truncation at *any* offset, garbage spliced in or written over the tail,
any single flipped bit (high bits included, which make the bytes
invalid UTF-8).  After any of these, ``ResultCache.get`` must return
either the exact stored result or ``None``; it must never raise and
never return a different result.  A miss either moved the damaged bytes
to ``cache.quarantine/`` or left a readable document of another cache
layout in place (staleness, not corruption — the verdict ``repro
doctor`` gives the same bytes).  Either way, a ``put`` after the miss
restores the byte-identical entry and the hit.

Truncations are exhaustive (every byte offset of a real sealed entry,
plain pytest); garbage and bit flips are hypothesis-driven.
"""

from functools import lru_cache
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.config import GPUConfig
from repro.harness import sweep
from repro.harness.runner import ArchSpec
from repro.harness.sweep import JobSpec, ResultCache, WorkloadRef
from repro.resilience import integrity

SPEC = JobSpec(WorkloadRef("atomic_sum", (48,)), ArchSpec.make_dab(),
               gpu=GPUConfig.tiny(), seed=1)


@lru_cache(maxsize=1)
def _result():
    """One simulated result; every ``put`` below stores this object."""
    return sweep._execute_spec(SPEC)


def _pristine(root: Path):
    """Write the real entry under ``root``; return its bytes and the
    metrics of an undamaged hit."""
    cache = ResultCache(root)
    cache.put(SPEC, _result())
    expected = cache.get(SPEC).metrics_dict()
    return cache.path_for(SPEC.cache_key()).read_bytes(), expected


def _assert_honest(root: Path, damaged: bytes, pristine: bytes,
                   expected: dict) -> None:
    """Read ``damaged`` through a fresh handle; check the contract."""
    cache = ResultCache(root)
    path = cache.path_for(SPEC.cache_key())
    path.write_bytes(damaged)
    got = cache.get(SPEC)
    if got is not None:
        assert got.metrics_dict() == expected, "served a WRONG result"
        return
    verdict, _ = sweep.classify_entry(damaged)
    if verdict == "corrupt":
        # Quarantined, never deleted: the damaged bytes are the evidence.
        assert not path.exists()
        assert len(cache.quarantined) == 1
        assert cache.quarantined[0].parent == integrity.quarantine_dir(root)
        assert cache.quarantined[0].read_bytes() == damaged
    else:
        assert verdict == "stale", verdict
        assert path.read_bytes() == damaged and cache.quarantined == []
    # A put after the miss restores the byte-identical entry and hit.
    cache.put(SPEC, _result())
    assert path.read_bytes() == pristine
    hit = cache.get(SPEC)
    assert hit is not None and hit.metrics_dict() == expected


def test_truncation_at_every_byte_offset(tmp_path):
    root = tmp_path / "cache"
    pristine, expected = _pristine(root)
    for offset in range(len(pristine) + 1):
        _assert_honest(root, pristine[:offset], pristine, expected)


@settings(max_examples=60, deadline=None)
@given(
    offset=st.integers(0, 8192),
    garbage=st.binary(min_size=1, max_size=64),
    splice=st.booleans(),
)
def test_garbage_at_any_offset_never_returns_wrong(tmp_path_factory, offset,
                                                   garbage, splice):
    root = tmp_path_factory.mktemp("garbage") / "cache"
    pristine, expected = _pristine(root)
    offset = min(offset, len(pristine))
    if splice:
        # Insert garbage, keeping the tail (mid-file corruption).
        damaged = pristine[:offset] + garbage + pristine[offset:]
    else:
        # Overwrite from offset on (lost tail + foreign bytes).
        damaged = pristine[:offset] + garbage
    _assert_honest(root, damaged, pristine, expected)


@settings(max_examples=200, deadline=None)
@given(offset=st.integers(0, 8192), bit=st.integers(0, 7))
def test_single_bit_flip_never_returns_wrong(tmp_path_factory, offset, bit):
    root = tmp_path_factory.mktemp("bitflip") / "cache"
    pristine, expected = _pristine(root)
    damaged = bytearray(pristine)
    damaged[offset % len(damaged)] ^= 1 << bit
    _assert_honest(root, bytes(damaged), pristine, expected)
