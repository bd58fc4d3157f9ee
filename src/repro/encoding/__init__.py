"""Encoding modules: plain record, HDLock-locked, n-gram, and the oracle.

Every encoder subclasses :class:`~repro.encoding.base.Encoder`, which
owns the shape check, Eq. 3 binarization with its fixed sign(0) tie
vector, and packing; encoders supply only their input checks and accumulation.
The record family runs on the vectorized batch engine of
:mod:`repro.encoding.engine`; see
:class:`~repro.encoding.engine.EncodingPlan` for the chunking model.
"""

from repro.encoding.base import Encoder
from repro.encoding.engine import (
    DEFAULT_MEMORY_BUDGET,
    EncodingPlan,
    binarize_batch,
    encode_batch_reference,
)
from repro.encoding.locked import LockedEncoder
from repro.encoding.ngram import NGramEncoder
from repro.encoding.oracle import EncodingOracle
from repro.encoding.privacy import (
    QuantizedLockedEncoder,
    SparsifiedLockedEncoder,
    TransmissionLockedEncoder,
)
from repro.encoding.record import RecordEncoder

__all__ = [
    "Encoder",
    "RecordEncoder",
    "LockedEncoder",
    "NGramEncoder",
    "TransmissionLockedEncoder",
    "QuantizedLockedEncoder",
    "SparsifiedLockedEncoder",
    "EncodingOracle",
    "EncodingPlan",
    "DEFAULT_MEMORY_BUDGET",
    "binarize_batch",
    "encode_batch_reference",
]
