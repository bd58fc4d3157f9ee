"""The attacker-facing encoding oracle.

The threat model (Sec. 3.1) lets the adversary "craft his/her own inputs
and observe the encoding outputs". :class:`EncodingOracle` is that
capability and nothing more: it wraps an encoder, exposes only
``query``/``query_batch`` plus the public shape parameters, and counts
queries so experiments can report attack cost in oracle calls as well as
wall-clock time.

Attack code in :mod:`repro.attack` receives *only* an oracle and public
memory — never the encoder object — so the separation is enforced by
construction, not just convention.
"""

from __future__ import annotations

import numpy as np

from repro.encoding.record import RecordEncoder
from repro.errors import ConfigurationError


class EncodingOracle:
    """Query interface over a deployed encoding module."""

    def __init__(self, encoder: RecordEncoder, binary: bool = True) -> None:
        self._encoder = encoder
        #: Whether the deployed model binarizes its encodings (Eq. 3).
        self.binary = binary
        #: Number of single-sample queries served so far (a rejected
        #: malformed query is not counted).
        self.n_queries = 0

    @property
    def n_features(self) -> int:
        """Input width ``N`` — public: the device's input format."""
        return self._encoder.n_features

    @property
    def levels(self) -> int:
        """Value levels ``M`` — public: the device's input quantization."""
        return self._encoder.levels

    @property
    def dim(self) -> int:
        """Output dimensionality ``D`` — public: visible on the output."""
        return self._encoder.dim

    def query(self, sample: np.ndarray) -> np.ndarray:
        """Encode one crafted sample and return the observable output."""
        out = self._encoder.encode(np.asarray(sample), binary=self.binary)
        self.n_queries += 1
        return out

    def query_batch(self, samples: np.ndarray) -> np.ndarray:
        """Encode a batch of crafted samples (counted per sample).

        Runs through the encoder's vectorized
        :meth:`~repro.encoding.record.RecordEncoder.encode_batch`. A deployed
        device pipelines queries the same way, so batching changes the
        observable outputs in no way — only the attacker's wall-clock.
        """
        out = self._encoder.encode_batch(np.asarray(samples), binary=self.binary)
        self.n_queries += int(out.shape[0])
        return out

    def query_batch_packed(self, samples: np.ndarray) -> np.ndarray:
        """Encode a batch and return packed uint64 bit-planes directly.

        Only available on binary deployments — the packed bus *is* the
        binary output format (a real device's memory holds exactly these
        words), so a non-binary oracle has nothing packed to expose.
        Counted per sample like :meth:`query_batch`; bit-identical to
        word-packing the dense responses, ties included.
        """
        if not self.binary:
            raise ConfigurationError(
                "packed queries are only defined for binary oracles"
            )
        out = self._encoder.encode_batch_packed(np.asarray(samples))
        self.n_queries += int(out.shape[0])
        return out
