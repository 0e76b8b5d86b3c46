"""Canonical JSON serialization and content hashing.

Every artifact the pipeline persists goes through `canonical_dumps` so that a
rerun with identical inputs produces byte-identical files. It is one encoder
pass; `_leaf` turns the numpy values the encoder does not know into Python
ones. `np.float64` is a `float`, which the encoder writes with `float.__repr__`.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np


def _leaf(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False, default=_leaf)


def dump_json(obj, path) -> None:
    Path(path).write_text(canonical_dumps(obj) + "\n")


def read_bytes(path) -> bytes:
    with open(path, "rb", buffering=0) as fh:  # one read, no buffer in between
        return fh.readall()


def load_json(path):
    return json.loads(read_bytes(path))


def sha256_of(obj) -> str:
    return hashlib.sha256(canonical_dumps(obj).encode()).hexdigest()


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path) -> str:
    return sha256_bytes(read_bytes(path))
