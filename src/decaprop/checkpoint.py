"""Single-file checkpoint format.

Layout: 8-byte magic, uint32 format version, uint64 header length, a JSON
header (model config, parameter metadata, optimizer slot layout, RNG state,
train state), uint64 blob length, the float64 little-endian parameter blob,
and a sha256 digest over everything before it.  Writes go through a temp
file and an atomic rename, so a crash never leaves a half-written file.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct

import numpy as np

from .data import _JSON_ERRORS, _typed
from .errors import IntegrityError
from .numerics import ParamStore

MAGIC = b"DCPROPCK"
VERSION = 1
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


def _slot_layout(optimizer: dict) -> tuple[dict, list[np.ndarray]]:
    meta: dict = {"kind": optimizer["kind"], "scalars": {}, "slots": {}}
    arrays: list[np.ndarray] = []
    for key, value in optimizer.items():
        if key == "kind":
            continue
        if isinstance(value, dict):
            meta["slots"][key] = list(value.keys())
            arrays.extend(value[name] for name in value)
        else:
            meta["scalars"][key] = value
    return meta, arrays


def save_checkpoint(path: str, store: ParamStore, model_config: dict,
                    optimizer: dict, rng_state: dict, train_state: dict,
                    extra: dict | None = None) -> None:
    params_meta = []
    arrays: list[np.ndarray] = []
    for name, p in store.items():
        params_meta.append({"name": name, "shape": list(p.data.shape),
                            "trainable": p.requires_grad})
        arrays.append(p.data)
    opt_meta, opt_arrays = _slot_layout(optimizer)
    arrays.extend(opt_arrays)

    header = {
        "model_config": model_config,
        "params": params_meta,
        "optimizer": opt_meta,
        "rng_state": rng_state,
        "train_state": train_state,
        "extra": extra or {},
    }
    header_bytes = json.dumps(header).encode("utf-8")
    blob = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays)

    body = (MAGIC + _U32.pack(VERSION)
            + _U64.pack(len(header_bytes)) + header_bytes
            + _U64.pack(len(blob)) + blob)
    digest = hashlib.sha256(body).digest()

    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(body)
        fh.write(digest)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _field(obj, key: str, kind: type, path: str, prefix: str = ""):
    """``obj[key]`` of a checkpoint header, of the json type ``kind``;
    IntegrityError naming the field otherwise."""
    value = obj.get(key) if isinstance(obj, dict) else None
    return _typed(value, kind, f"header field {prefix}{key}", path, IntegrityError)


def _take(blob: memoryview, offset: int, shape: list[int]) -> tuple[np.ndarray, int]:
    count = int(np.prod(shape)) if shape else 1
    nbytes = count * 8
    if offset + nbytes > len(blob):
        raise IntegrityError("checkpoint blob shorter than its header claims")
    arr = np.frombuffer(blob[offset:offset + nbytes], dtype="<f8").astype(np.float64)
    return arr.reshape(shape), offset + nbytes


def load_checkpoint(path: str) -> dict:
    """Parse and verify a checkpoint; raises IntegrityError on any damage."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise IntegrityError(f"cannot read checkpoint {path}: {exc}") from exc

    if len(raw) < len(MAGIC) + _U32.size + _U64.size + 32:
        raise IntegrityError(f"{path}: file too short to be a checkpoint")
    if raw[:len(MAGIC)] != MAGIC:
        raise IntegrityError(f"{path}: bad magic, not a checkpoint file")

    body, digest = raw[:-32], raw[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise IntegrityError(f"{path}: checksum mismatch, file is corrupt")

    pos = len(MAGIC)
    (version,) = _U32.unpack_from(body, pos)
    pos += _U32.size
    if version != VERSION:
        raise IntegrityError(f"{path}: unsupported checkpoint version {version}")
    (header_len,) = _U64.unpack_from(body, pos)
    pos += _U64.size
    if pos + header_len > len(body):
        raise IntegrityError(f"{path}: truncated header")
    try:
        header = json.loads(body[pos:pos + header_len].decode("utf-8"))
    except _JSON_ERRORS as exc:
        raise IntegrityError(f"{path}: unreadable header ({exc})") from exc
    _typed(header, dict, "header", path, IntegrityError)
    pos += header_len
    (blob_len,) = _U64.unpack_from(body, pos)
    pos += _U64.size
    if pos + blob_len != len(body):
        raise IntegrityError(f"{path}: blob length disagrees with file size")
    blob = memoryview(body)[pos:pos + blob_len]

    offset = 0
    params: dict[str, np.ndarray] = {}
    shapes: dict[str, list] = {}
    for i, meta in enumerate(_field(header, "params", list, path)):
        name = _field(meta, "name", str, path, f"params[{i}].")
        shape = shapes[name] = _field(meta, "shape", list, path, f"params[{i}].")
        if not all(type(n) is int and n >= 0 for n in shape):
            raise IntegrityError(f"{path}: header field params[{i}].shape must hold "
                                 f"integers >= 0, got {shape!r}")
        params[name], offset = _take(blob, offset, shape)

    opt_meta = _field(header, "optimizer", dict, path)
    optimizer: dict = {"kind": _field(opt_meta, "kind", str, path, "optimizer.")}
    for key, value in _field(opt_meta, "scalars", dict, path, "optimizer.").items():
        optimizer[key] = _typed(value, (int, float), f"header field optimizer.scalars.{key}",
                                path, IntegrityError)
    slots = _field(opt_meta, "slots", dict, path, "optimizer.")
    for slot in slots:
        slot_dict = {}
        for name in _field(slots, slot, list, path, "optimizer.slots."):
            if type(name) is not str or name not in shapes:
                raise IntegrityError(f"{path}: header field optimizer.slots.{slot} names "
                                     f"{name!r}, which is not a parameter")
            slot_dict[name], offset = _take(blob, offset, shapes[name])
        optimizer[slot] = slot_dict
    if offset != blob_len:
        raise IntegrityError(f"{path}: {blob_len - offset} unexplained trailing bytes in blob")

    return {"version": version, "params": params, "optimizer": optimizer,
            **{key: _field(header, key, dict, path)
               for key in ("model_config", "rng_state", "train_state", "extra")}}
