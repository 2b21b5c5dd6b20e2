"""Derivation of every sampling seed from the benchmark's ``--seed``."""

import hashlib


def derive_seed(seed: int, *labels) -> int:
    """A 64-bit seed derived from the benchmark seed and a label path."""
    text = "/".join([str(seed), *map(str, labels)])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")
