"""Locking a sequence (n-gram) HDC model — beyond the paper's record encoder.

The paper locks the record encoder's feature memory; the same privileged
-encoding idea applies to any HDC item memory. This example builds a
small language-identification task over synthetic 3-symbol-structured
"languages", trains an n-gram HDC classifier, and shows the locked
variant matches the plain one while keeping the alphabet mapping keyed.

    python examples/sequence_lock.py
"""

from __future__ import annotations

import numpy as np

from repro import NGramEncoder
from repro.hdlock import generate_key
from repro.hv.ops import sign
from repro.hv.random import random_pool
from repro.hv.similarity import hamming

ALPHABET = 12
DIM = 2048
N_GRAM = 3
SEQ_LEN = 60
CLASSES = 4
TRAIN, TEST = 40, 20
SEED = 5


def make_language_samples(rng: np.random.Generator):
    """Each 'language' is a first-order Markov chain over the alphabet."""
    transitions = []
    for _ in range(CLASSES):
        # sparse, peaked transition tables produce distinctive n-grams
        table = rng.dirichlet(np.full(ALPHABET, 0.12), size=ALPHABET)
        transitions.append(table)

    def sample(cls: int) -> np.ndarray:
        seq = np.empty(SEQ_LEN, dtype=np.int64)
        seq[0] = rng.integers(0, ALPHABET)
        for t in range(1, SEQ_LEN):
            seq[t] = rng.choice(ALPHABET, p=transitions[cls][seq[t - 1]])
        return seq

    def split(count: int):
        labels = np.arange(count) % CLASSES
        rng.shuffle(labels)
        return [sample(int(c)) for c in labels], labels

    return split(TRAIN), split(TEST)


def train_and_score(encoder: NGramEncoder, train, test) -> float:
    (train_seqs, train_y), (test_seqs, test_y) = train, test
    accums = np.zeros((CLASSES, DIM), dtype=np.float64)
    for seq, label in zip(train_seqs, train_y, strict=True):
        accums[label] += encoder.encode(seq, binary=True)
    classes = sign(accums)
    correct = 0
    for seq, label in zip(test_seqs, test_y, strict=True):
        query = encoder.encode(seq, binary=True)
        if int(np.argmin(hamming(classes, query))) == label:
            correct += 1
    return correct / len(test_seqs)


def main() -> None:
    rng = np.random.default_rng(SEED)
    train, test = make_language_samples(rng)

    plain = NGramEncoder(random_pool(ALPHABET, DIM, rng=SEED), n=N_GRAM)
    plain_accuracy = train_and_score(plain, train, test)
    print(
        f"plain n-gram model ({N_GRAM}-grams over {ALPHABET} symbols): "
        f"accuracy {plain_accuracy:.2f}"
    )

    # Locked variant: alphabet item memory derived from pool + key.
    pool = random_pool(ALPHABET, DIM, rng=SEED + 1)
    key = generate_key(ALPHABET, layers=2, pool_size=ALPHABET, dim=DIM, rng=3)
    locked = NGramEncoder(n=N_GRAM, base_pool=pool, key=key)
    locked_accuracy = train_and_score(locked, train, test)
    print(
        f"HDLock n-gram model (L=2 key, {key.storage_bits()} key bits): "
        f"accuracy {locked_accuracy:.2f}"
    )
    print(
        "the public pool alone is useless without the key — the same "
        "privileged-encoding argument as the record encoder"
    )


if __name__ == "__main__":
    main()
