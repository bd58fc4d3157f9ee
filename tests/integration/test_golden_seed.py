"""Golden-seed regression hashes for encoder and classifier numerics.

SHA-256 digests of pinned-seed outputs across every encoder family and
both classifier flavors. The batch-engine parity suite proves today's
kernels bit-exact against the per-sample reference; these hashes freeze
that agreement so a *future* kernel rewrite (SIMD, packed accumulation,
GPU backend) cannot silently shift numerics — any change that is not
bit-exact must consciously update the digests.

The digests cover raw bytes plus shape and dtype, so a dtype regression
(e.g. int64 accumulations silently narrowing) fails even when the values
round-trip.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.encoding.record import RecordEncoder
from repro.hdlock.lock import create_locked_encoder
from repro.model.classifier import HDClassifier

GOLDEN = {
    "record-binary": "986daf59461e514cba9695f5cd2e296371de602869e2cec7f2b787e84065d8fe",
    "record-nonbinary": "652692124c46af092b26fd893dd06806bca6de75fe6a84fc339948cbee8711de",
    # Re-pinned when generate_key became a wrapper over the vectorized
    # bulk keygen core: the key draw now consumes the seeded stream in
    # batched integers() calls, so seeded *keys* (not encoder numerics)
    # changed. Encoding kernels are untouched — every other digest held.
    "locked-binary": "cbe5534f2fab2f2aa733877ff4577ded95a40277d9ba0b0228365545e71b771a",
    # Re-pinned when Eq. 3 moved from a per-encoder tie-break stream to
    # the fixed tie vector (repro.hv.ops.tie_bits): the classifier
    # outputs below binarize exact zeros (even N = 20 encodings and
    # class sums). The odd-N record and locked encodings never tie and
    # the non-binary outputs never binarize, so their digests held.
    "classifier-class-matrix": "8e0ccff6d5bf6f4ebf35cddf63f78545006953ab8c889cb9fd4f94adc80faf5b",
    "classifier-predictions": "358b891cbf696de9a453eb7bf30f3eeddc8b8348270ca7a909cb062d3d8525de",
    "classifier-nonbinary-accums": "5452808c656b757530b4ee704dee609bc8aaffe86e54295ab5ca9c9cf99e24df",
    "classifier-nonbinary-predictions": "f61a94fae465e7b88294ae6ea8de80119f9042a866b7571117a4e465cc6373a5",
}


def _digest(arr: np.ndarray) -> str:
    arr = np.ascontiguousarray(arr)
    h = hashlib.sha256()
    h.update(str((arr.shape, str(arr.dtype))).encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def test_record_encoder_digests():
    encoder = RecordEncoder.random(25, 8, 512, rng=1234)
    samples = np.random.default_rng(99).integers(0, 8, (12, 25))
    assert (
        _digest(encoder.encode_batch(samples, binary=True)) == GOLDEN["record-binary"]
    )
    assert (
        _digest(encoder.encode_batch(samples, binary=False))
        == GOLDEN["record-nonbinary"]
    )


def test_locked_encoder_digest():
    encoder = create_locked_encoder(15, 6, 512, layers=2, rng=77).encoder
    samples = np.random.default_rng(41).integers(0, 6, (9, 15))
    assert (
        _digest(encoder.encode_batch(samples, binary=True)) == GOLDEN["locked-binary"]
    )


def _training_data():
    gen = np.random.default_rng(17)
    return gen.integers(0, 8, (60, 20)), gen.integers(0, 3, 60)


def test_binary_classifier_digests():
    samples, labels = _training_data()
    model = HDClassifier(
        RecordEncoder.random(20, 8, 512, rng=31), n_classes=3, binary=True
    ).fit(samples, labels)
    assert _digest(model.class_matrix) == GOLDEN["classifier-class-matrix"]
    assert _digest(model.predict(samples)) == GOLDEN["classifier-predictions"]


def test_nonbinary_classifier_digests():
    samples, labels = _training_data()
    model = HDClassifier(
        RecordEncoder.random(20, 8, 512, rng=31), n_classes=3, binary=False
    ).fit(samples, labels)
    assert _digest(model.class_matrix) == GOLDEN["classifier-nonbinary-accums"]
    assert (
        _digest(model.predict(samples)) == GOLDEN["classifier-nonbinary-predictions"]
    )
