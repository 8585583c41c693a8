"""Deterministic seed derivation for reproducible randomized stages."""

from __future__ import annotations

import hashlib
import random


def derive_seed(seed: int, label: str) -> int:
    """Derive a 64-bit child seed from a parent seed and a stage label.

    Uses SHA-256 so results are stable across processes and platforms
    (Python's built-in hash() is salted per process).
    """
    digest = hashlib.sha256(f"{seed:#x}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def derived_rng(seed: int, label: str) -> random.Random:
    """A random.Random stream private to one pipeline stage."""
    return random.Random(derive_seed(seed, label))


def parse_seed(text: str) -> int:
    """Parse a seed given as decimal or 0x-prefixed hex ("ff" is an error)."""
    text = text.strip().lower()
    return int(text, 16) if text.startswith("0x") else int(text, 10)
