"""Encoding modules: plain record, HDLock-locked, and the oracle.

Every encoder is a :class:`~repro.encoding.record.RecordEncoder`, which
owns the input checks, Eq. 3 binarization with its fixed sign(0) tie
vector, and packing; the locked and transmission variants change only
where the feature matrix comes from or how accumulations are
transformed. Accumulation runs on the vectorized batch engine of
:mod:`repro.encoding.engine`; see
:class:`~repro.encoding.engine.EncodingPlan` for the chunking model.
"""

from repro.encoding.engine import (
    DEFAULT_MEMORY_BUDGET,
    EncodingPlan,
    binarize_batch,
    encode_batch_reference,
)
from repro.encoding.locked import LockedEncoder
from repro.encoding.oracle import EncodingOracle
from repro.encoding.privacy import (
    QuantizedLockedEncoder,
    SparsifiedLockedEncoder,
    TransmissionLockedEncoder,
)
from repro.encoding.record import RecordEncoder

__all__ = [
    "RecordEncoder",
    "LockedEncoder",
    "TransmissionLockedEncoder",
    "QuantizedLockedEncoder",
    "SparsifiedLockedEncoder",
    "EncodingOracle",
    "EncodingPlan",
    "DEFAULT_MEMORY_BUDGET",
    "binarize_batch",
    "encode_batch_reference",
]
