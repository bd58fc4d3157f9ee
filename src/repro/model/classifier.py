"""HDC classification model (paper Fig. 1).

Training accumulates encoded samples into per-class hypervectors
(Eq. 4); inference encodes a query and returns the most similar class —
cosine similarity for the non-binary model, normalized Hamming distance
for the binary one (Sec. 2, "Inference").

The classifier always keeps the *non-binary* class accumulators as its
trainable state. The binary model binarizes them on read (QuantHD [4]
keeps exactly this split so iterative retraining has integer state to
update while inference stays binary).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.encoding.record import RecordEncoder
from repro.errors import ConfigurationError, DimensionMismatchError
from repro.hv.ops import sign
from repro.hv.packing import pack_words, pairwise_hamming_packed
from repro.hv.similarity import cosine, cosine_matrix, hamming


class HDClassifier:
    """HDC classifier over a :class:`~repro.encoding.record.RecordEncoder`.

    ``binary`` selects the paper's binary model (binary encodings, binary
    class HVs, Hamming similarity); otherwise the non-binary model
    (integer encodings, integer class HVs, cosine similarity).
    """

    def __init__(
        self,
        encoder: RecordEncoder,
        n_classes: int,
        binary: bool = True,
    ) -> None:
        if n_classes < 2:
            raise ConfigurationError(f"need at least 2 classes, got {n_classes}")
        self.encoder = encoder
        self.n_classes = int(n_classes)
        self.binary = binary
        self._accums: Optional[np.ndarray] = None
        # Binarized class memory (Eq. 3 of the accumulators), cached per
        # training state so inference does not re-binarize per query.
        self._binary_classes: Optional[np.ndarray] = None
        # Word-packed (uint64 bit-plane) view of the binary class
        # memory, invalidated with it; inference XOR-popcounts packed
        # queries against this without ever unpacking either side.
        self._packed_classes: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------

    def _check_labels(self, labels: np.ndarray, count: int) -> np.ndarray:
        arr = np.asarray(labels)
        if arr.shape != (count,):
            raise DimensionMismatchError(
                f"labels shape {arr.shape} does not match {count} samples"
            )
        if arr.size and (arr.min() < 0 or arr.max() >= self.n_classes):
            raise ConfigurationError(
                f"labels must lie in [0, {self.n_classes}), got "
                f"[{arr.min()}, {arr.max()}]"
            )
        return arr.astype(np.int64)

    def encode_training(self, samples: np.ndarray) -> np.ndarray:
        """Encode a training batch once, in the model's native domain.

        Exposed so callers (retraining loops, attack evaluation) can
        reuse the expensive encoding pass across epochs.
        """
        return self.encoder.encode_batch(np.asarray(samples), binary=self.binary)

    def fit(
        self,
        samples: np.ndarray,
        labels: np.ndarray,
        encoded: Optional[np.ndarray] = None,
    ) -> "HDClassifier":
        """One-shot training: sum each class's encodings (Eq. 4).

        Pass ``encoded`` to skip re-encoding when the caller already has
        the encoded batch.
        """
        if encoded is None:
            encoded = self.encode_training(samples)
        labels_arr = self._check_labels(labels, encoded.shape[0])
        # Class sums as a one-hot matmul: BLAS instead of a scatter
        # loop, and exact — encodings are integers, so every float64
        # partial sum is too.
        onehot = np.zeros((encoded.shape[0], self.n_classes), dtype=np.float64)
        onehot[np.arange(encoded.shape[0]), labels_arr] = 1.0
        self._accums = onehot.T @ encoded.astype(np.float64)
        self._binary_classes = None
        self._packed_classes = None
        return self

    def retrain(
        self,
        samples: np.ndarray,
        labels: np.ndarray,
        epochs: int = 5,
        encoded: Optional[np.ndarray] = None,
    ) -> list[float]:
        """QuantHD-style iterative refinement of the class memory.

        For each misclassified sample the encoded HV is added to the
        true class accumulator and subtracted from the predicted one.
        Returns the training accuracy after each epoch. Requires
        :meth:`fit` (or a previous retrain) first.
        """
        if self._accums is None:
            raise ConfigurationError("fit the model before retraining")
        if epochs < 0:
            raise ConfigurationError(f"epochs must be >= 0, got {epochs}")
        if encoded is None:
            encoded = self.encode_training(samples)
        labels_arr = self._check_labels(labels, encoded.shape[0])
        history: list[float] = []
        encoded_f = encoded.astype(np.float64)
        # Binary models score every epoch against the same encoded
        # batch: pack it once and reuse the bit-planes — the class
        # memory re-packs per epoch (it changes), the queries never do.
        packed_encoded = pack_words(encoded) if self.binary else None
        for _ in range(epochs):
            if packed_encoded is not None:
                predictions = self._predict_packed(packed_encoded)
            else:
                predictions = self._predict_encoded(encoded)
            wrong = np.flatnonzero(predictions != labels_arr)
            if wrong.size:
                # The updates as one signed one-hot matmul (+1 at the
                # true class, -1 at the predicted one), exact like fit's.
                signed = np.zeros((wrong.size, self.n_classes))
                rows = np.arange(wrong.size)
                signed[rows, labels_arr[wrong]] = 1.0
                signed[rows, predictions[wrong]] = -1.0
                self._accums += signed.T @ encoded_f[wrong]
                self._binary_classes = None
                self._packed_classes = None
            history.append(1.0 - wrong.size / labels_arr.shape[0])
        return history

    # ------------------------------------------------------------------
    # trained-state export / restore (serving provisioning)
    # ------------------------------------------------------------------

    @property
    def class_accumulators(self) -> np.ndarray:
        """Copy of the trained ``(C, D)`` non-binary class accumulators.

        The full trainable state of the model (binary class HVs are a
        pure function of it). Raises :class:`ConfigurationError` on an
        untrained model.
        """
        if self._accums is None:
            raise ConfigurationError("model is untrained; call fit first")
        return self._accums.copy()

    def load_accumulators(self, accumulators: np.ndarray) -> "HDClassifier":
        """Restore trained state exported via :attr:`class_accumulators`.

        A binary model's class hypervectors are Eq. 3 of the restored
        accumulators, so a restored replica predicts bit-identically to
        the original.
        """
        arr = np.asarray(accumulators, dtype=np.float64)
        expected = (self.n_classes, self.encoder.dim)
        if arr.shape != expected:
            raise DimensionMismatchError(
                f"class accumulators shape {arr.shape} does not match "
                f"(C, D) = {expected}"
            )
        self._accums = arr.copy()
        self._binary_classes = None
        self._packed_classes = None
        return self

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------

    @property
    def class_matrix(self) -> np.ndarray:
        """The ``(C, D)`` class hypervectors used at inference time.

        Binarized view for the binary model, raw accumulators otherwise.
        """
        if self._accums is None:
            raise ConfigurationError("model is untrained; call fit first")
        if self.binary:
            if self._binary_classes is None:
                self._binary_classes = sign(self._accums)
            return self._binary_classes
        return self._accums

    def _predict_packed(self, packed_encoded: np.ndarray) -> np.ndarray:
        """Nearest class for word-packed queries — the binary hot path.

        Both operands stay in the uint64 bit-plane domain end to end:
        (B, C) Hamming distances come from one XOR-popcount pass against
        the cached packed class memory. Identical mismatch counts to the
        dense comparison (both sides are bipolar), so nearest-class
        decisions are unchanged.
        """
        classes = self.class_matrix
        if packed_encoded.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        if self._packed_classes is None:
            self._packed_classes = pack_words(classes)
        distances = pairwise_hamming_packed(
            packed_encoded, self._packed_classes, self.encoder.dim
        )
        return np.argmin(distances, axis=1)

    def _predict_encoded(self, encoded: np.ndarray) -> np.ndarray:
        if encoded.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        if self.binary:
            # Dense-encoded entry point (callers holding an int8 batch):
            # one word-pack, then the shared packed path — no unpacking
            # anywhere downstream.
            return self._predict_packed(pack_words(encoded))
        # Non-binary: one (B, C) cosine matrix via BLAS instead of B
        # vector passes.
        return np.argmax(cosine_matrix(encoded, self.class_matrix), axis=1)

    def predict(self, samples: np.ndarray) -> np.ndarray:
        """Predict class labels for a ``(B, N)`` batch of level vectors.

        Binary models run fully packed: the encoder's fused
        ``encode_batch_packed`` emits uint64 bit-planes and nearest-class
        search XOR-popcounts them against the packed class memory —
        zero pack/unpack round-trips between encoding and decision.
        """
        arr = np.asarray(samples)
        if self.binary:
            return self._predict_packed(self.encoder.encode_batch_packed(arr))
        return self._predict_encoded(self.encoder.encode_batch(arr, binary=False))

    def similarity_profile(self, sample: np.ndarray) -> np.ndarray:
        """Per-class similarity of one sample (cosine or ``1 - hamming``).

        Useful for inspecting decision margins; higher is always more
        similar regardless of model flavor.
        """
        encoded = self.encoder.encode(np.asarray(sample), binary=self.binary)
        if self.binary:
            return 1.0 - np.asarray(hamming(self.class_matrix, encoded))
        return np.asarray(cosine(self.class_matrix, encoded))

    def score(self, samples: np.ndarray, labels: np.ndarray) -> float:
        """Classification accuracy on a labeled batch."""
        labels_arr = self._check_labels(labels, np.asarray(samples).shape[0])
        return float(np.mean(self.predict(samples) == labels_arr))
