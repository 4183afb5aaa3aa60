"""Tests for the detect-only vs detect-and-correct decode policies."""

import pytest

from repro.ecc import (BambooCodec, DecodeStatus, DetectAndCorrectPolicy,
                       DetectOnlyPolicy, sdc_epoch_threshold)

CODEC = BambooCodec()
DATA = list(range(64))


def _corrupt(blk, positions, xor=0x5A):
    raw = blk.stored_bytes()
    for p in positions:
        raw[p] ^= xor
    return blk.with_stored_bytes(raw)


def test_detect_only_clean():
    blk = CODEC.encode(DATA, 1)
    res = DetectOnlyPolicy(CODEC).decode(blk, 1)
    assert res.status is DecodeStatus.CLEAN
    assert list(res.data) == DATA


def test_detect_only_never_corrects():
    blk = _corrupt(CODEC.encode(DATA, 1), [3])
    res = DetectOnlyPolicy(CODEC).decode(blk, 1)
    assert res.status is DecodeStatus.DETECTED_UNCORRECTED
    assert res.data is None


def test_detect_only_flags_wide_error():
    blk = _corrupt(CODEC.encode(DATA, 1), list(range(8)))
    res = DetectOnlyPolicy(CODEC).decode(blk, 1)
    assert res.status is DecodeStatus.DETECTED_UNCORRECTED


def test_correct_policy_clean():
    blk = CODEC.encode(DATA, 1)
    res = DetectAndCorrectPolicy(CODEC).decode(blk, 1)
    assert res.status is DecodeStatus.CLEAN


def test_correct_policy_fixes_small_error():
    blk = _corrupt(CODEC.encode(DATA, 1), [10, 20])
    res = DetectAndCorrectPolicy(CODEC).decode(blk, 1)
    assert res.status is DecodeStatus.CORRECTED
    assert list(res.data) == DATA
    assert set(res.corrected_positions) == {10, 20}


def test_correct_policy_uncorrectable():
    blk = _corrupt(CODEC.encode(DATA, 1), list(range(10)))
    res = DetectAndCorrectPolicy(CODEC).decode(blk, 1)
    assert res.status is DecodeStatus.DETECTED_UNCORRECTED
    assert res.data is None


def test_epoch_threshold_matches_paper():
    """2^64 / 10^9 years-in-hours ~= 2.1 million errors per hour."""
    threshold = sdc_epoch_threshold()
    assert 2_000_000 < threshold < 2_200_000


def test_epoch_threshold_validates_input():
    with pytest.raises(ValueError):
        sdc_epoch_threshold(target_mttsdc_hours=0)
