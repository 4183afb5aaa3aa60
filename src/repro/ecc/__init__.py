"""Bamboo Reed-Solomon ECC substrate (Section III-B of the paper)."""

from .bamboo import (ADDRESS_BYTES, BLOCK_DATA_BYTES, BLOCK_ECC_BYTES,
                     FORMAT_TAG, BambooCodec, CodedBlock)
from .policy import (DecodeStatus, DetectAndCorrectPolicy, DetectOnlyPolicy,
                     PolicyResult, sdc_epoch_threshold)
from .reed_solomon import (DecodeFailure, DecodeResult, ReedSolomon,
                           undetected_error_probability)

__all__ = [
    "ADDRESS_BYTES", "BLOCK_DATA_BYTES", "BLOCK_ECC_BYTES", "BambooCodec",
    "CodedBlock", "DecodeFailure", "DecodeResult", "DecodeStatus",
    "DetectAndCorrectPolicy", "DetectOnlyPolicy", "PolicyResult",
    "ReedSolomon", "sdc_epoch_threshold", "undetected_error_probability",
]
