"""repro — reproduction of HDLock (Duan, Ren, Xu; DAC 2022).

The package implements, from scratch and in pure Python/numpy:

* a complete HDC classification stack (hypervector ops, item memories,
  record encoders, one-shot + retrained classifiers);
* the paper's model-IP reasoning attack (value- and feature-hypervector
  extraction via divide and conquer) plus model reconstruction;
* the HDLock defense (keyed combination-and-permutation feature
  derivation) with key management and security analysis;
* a cycle-level cost model of the FPGA encoder datapath used for the
  latency-overhead evaluation;
* synthetic stand-ins for the five evaluation datasets, and experiment
  modules regenerating every table and figure of the paper.

Batch encoding API
------------------

Every encoder (:class:`~repro.encoding.record.RecordEncoder` and its
locked subclasses) exposes the same five entry points — ``encode``,
``encode_nonbinary``, ``encode_packed``, ``encode_batch(samples,
binary=True)`` and ``encode_batch_packed``. The input checks, Eq. 3
binarization (sign(0) ties take one fixed vector, so every entry point
is a pure function per row) and word-packing live once in
``RecordEncoder``, and a single sample is a batch of one. Accumulation runs on
the vectorized engine of :mod:`repro.encoding.engine`: a level-major
BLAS decomposition compiled once per encoder
(:class:`~repro.encoding.engine.EncodingPlan`) that is bit-exact with
per-sample encoding, ties included, while running an order of
magnitude faster at paper scale. Batches stream through tiles sized so
the engine's float working set stays under
:data:`~repro.encoding.engine.DEFAULT_MEMORY_BUDGET` (128 MiB). The
budget exists because the naive fully vectorized form materializes a
``(B, N, D)`` gather — gigabytes at D = 10,000 — whereas a bounded tile
keeps the hot loop in cache and lets arbitrarily large batches (the
"heavy traffic" regime) run in constant memory. Large-pool similarity search uses the
matching batched kernels :func:`repro.hv.packing.hamming_packed` and
:func:`repro.hv.packing.pairwise_hamming_packed`.

Packed end-to-end flow
----------------------

The binary hot path never leaves the packed bit domain. Record encoders
fuse ``encode_batch_packed(samples)``, the packed form of the binary
``encode_batch``, into the engine: accumulations stream through one
reused float scratch buffer per call, binarize to sign bits and pack
into uint64 bit-planes via :func:`repro.hv.packing.pack_bits` — no
int64 batch, no int8 sign matrix, no separate pack pass. Downstream consumers
keep those words as is: :class:`~repro.model.classifier.HDClassifier`
XOR-popcounts packed queries against its cached packed class memory
(``predict``/``fit``/``retrain`` pack at most once per training
state), locked-encoder inference inherits the same path, and attack
pool scoring (:mod:`repro.attack.feature_extraction`,
:mod:`repro.attack.value_extraction`,
:mod:`repro.attack.hdlock_attack`) scores candidates with word-packed
tables — zero pack/unpack round-trips between encoding and decision,
pinned by ``tests/encoding/test_packed_path.py``. Everything is
bit-exact with the dense path, ties included: packed outputs
equal ``pack_words(encode_batch(..., binary=True))`` word for word.

Fleet key lifecycle
-------------------

HDLock's deployment unit is one privileged key per device, so the
package models provisioning at population scale.
:func:`~repro.hdlock.generate_keys` draws a whole fleet's
``(n_devices, N, L)`` key material in batched generator calls with
vectorized distinctness enforcement, returning a
:class:`~repro.memory.KeyBatch` whose per-device
:class:`~repro.memory.LockKey` views materialize zero-copy. At rest,
keys live in the packed, memory-mapped
:class:`~repro.hdlock.KeyStore` — fixed-stride records bit-packed at
the ``ceil(log2 P) + ceil(log2 D)`` bits-per-pair floor, O(1) random
access by device id, bulk append, and a JSON header persisting the
revocation list and rotation generation.
:func:`~repro.hdlock.rotate_system` re-locks a deployed system with a
fresh key at bounded cost (no public artifact changes), and
:func:`~repro.hv.fleet_key_report` quantifies population-scale key
collision and guessability. perfbench's ``provision`` workload
measures keys/sec, bytes/key at rest, and re-lock latency; the bulk
keygen speed-up over the per-key loop is gated by
``tests/hdlock/test_keygen_perf.py``.

Multi-tenant serving
--------------------

:mod:`repro.serving` turns a provisioned locked system into a deployable
inference service — the deployment surface HDLock's threat model calls
for, where the locked encoder is the public artifact and the key store
stays privileged. ``provision_tenant`` persists the public bundle, the
device key (appended to the tenant's mmap :class:`~repro.hdlock.KeyStore`),
and the trained class accumulators; ``load_tenant`` rebuilds a
bit-identical replica. A :class:`~repro.serving.ModelRegistry` serves
many tenants behind one stdlib-only ASGI app
(:func:`~repro.serving.create_app`: ``/healthz``, ``/v1/models``,
``/v1/{tenant}/classify``, ``/v1/{tenant}/encode``) whose request path
re-checks the key lifecycle gate per request (revoked or rotated device
→ 403, never a crash) and coalesces concurrent requests in a
:class:`~repro.serving.MicroBatcher` into single
``encode_batch_packed`` calls — bit-identical to per-request serving,
several times the throughput (gated at ≥ 4x by
``tests/serving/test_throughput.py``; perfbench's ``serve`` workload
times it over a real socket). ``python -m repro.serving`` boots a demo
fleet or previously provisioned tenant directories; ``--self-check``
is the CI smoke body.

Enforced invariants (reprolint)
-------------------------------

The guarantees above are invariants the test suite can only
spot-check, so :mod:`repro.analysis` enforces them statically on every
push (blocking CI job): all randomness flows through seeded
``SeedSequence``-derived generators (RL001 — protects the golden-seed
digests and ``--jobs``-invariant artifacts), the packed hot path never
round-trips through ``packbits``/``unpackbits`` or promotes packed
words to wide dtypes (RL002 — protects the PR 1–2 speedups), nothing
blocks the serving event loop inside ``async def`` (RL003 — protects
the micro-batcher's deterministic flush and tail latency), public
boundaries raise only taxonomy errors (RL004), and acquired handles
have deterministic release paths (RL005). Run it locally with
``python -m repro.analysis src tests examples``; see the
:mod:`repro.analysis` docstring for the rule table and suppression
syntax.

Quickstart::

    from repro import (
        RecordEncoder, train_model, load_benchmark,
        expose_model, run_reasoning_attack, lock_encoder,
    )

    ds = load_benchmark("pamap", rng=0)
    encoder = RecordEncoder.random(ds.n_features, ds.levels, dim=4096, rng=0)
    model = train_model(encoder, ds.train_x, ds.train_y, ds.n_classes).model

    surface, truth = expose_model(encoder, rng=1)      # deploy (threat model)
    result = run_reasoning_attack(surface)             # steal the mapping
    locked = lock_encoder(encoder, layers=2, rng=2)    # defend
"""

from repro.attack import (
    AttackSurface,
    GroundTruth,
    LockedSurface,
    ReasoningResult,
    evaluate_theft,
    expose_locked_model,
    expose_model,
    guess_distance_series,
    hdlock_total_guesses,
    plain_total_guesses,
    reconstruct_encoder,
    run_reasoning_attack,
    security_improvement,
    sweep_parameter,
    verify_mapping,
)
from repro.data import Dataset, SyntheticSpec, load_benchmark, make_dataset
from repro.encoding import (
    EncodingOracle,
    LockedEncoder,
    RecordEncoder,
)
from repro.errors import ReproError
from repro.hardware import DatapathConfig, encoding_cycles, relative_encoding_time
from repro.hdlock import (
    KeyStore,
    LockedSystem,
    create_locked_encoder,
    generate_key,
    generate_keys,
    lock_encoder,
    lock_model,
    rotate_system,
    security_level_bits,
    tradeoff_table,
)
from repro.hv import DEFAULT_DIM, fleet_key_report
from repro.memory import (
    FeatureMemory,
    KeyBatch,
    LevelMemory,
    LockKey,
    SecureMemory,
    SubKey,
)
from repro.model import HDClassifier, train_model

__version__ = "1.5.0"

__all__ = [
    "__version__",
    "ReproError",
    "DEFAULT_DIM",
    # memories and keys
    "FeatureMemory",
    "LevelMemory",
    "LockKey",
    "SubKey",
    "SecureMemory",
    # encoders and models
    "RecordEncoder",
    "LockedEncoder",
    "EncodingOracle",
    "HDClassifier",
    "train_model",
    # datasets
    "Dataset",
    "SyntheticSpec",
    "make_dataset",
    "load_benchmark",
    # attack
    "AttackSurface",
    "LockedSurface",
    "GroundTruth",
    "expose_model",
    "expose_locked_model",
    "run_reasoning_attack",
    "ReasoningResult",
    "verify_mapping",
    "guess_distance_series",
    "reconstruct_encoder",
    "evaluate_theft",
    "sweep_parameter",
    "plain_total_guesses",
    "hdlock_total_guesses",
    "security_improvement",
    # defense
    "generate_key",
    "create_locked_encoder",
    "lock_encoder",
    "lock_model",
    "LockedSystem",
    "security_level_bits",
    "tradeoff_table",
    # fleet key lifecycle
    "generate_keys",
    "KeyBatch",
    "KeyStore",
    "rotate_system",
    "fleet_key_report",
    # hardware model
    "DatapathConfig",
    "encoding_cycles",
    "relative_encoding_time",
]
