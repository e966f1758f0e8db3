"""Low-level binary primitives: uvarints, length-prefixed bytes, vectors.

These are the building blocks of the wire format (see :mod:`prefixsim.wire`
for the full message layouts) and of the canonical byte strings fed to the
signing and hashing backends, plus :func:`cached`, the one cache for
results derived from immutable protocol objects.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Sequence, Tuple

from .prefixes import Element, _Bot


class DecodeError(ValueError):
    """Raised when a byte string cannot be parsed as the claimed structure."""


def cached(obj, key: Hashable, compute: Callable[..., Any], *args) -> Any:
    """``compute(*args)``, run once per immutable ``obj`` and ``key``.

    Results live on ``obj`` in one non-field attribute (fields, equality
    and wire form are untouched): every holder shares them and they die
    with the object.  ``key`` carries all else a result depends on, so a
    result is never reused for another view, slot or scheme:

    * a vote or certificate keeps its verdict under ``(cfg, scheme)``;
    * a certificate (``QC``) keeps what it certifies under
      ``("qc", cfg)``; certification reads no signature, so the scheme
      is not part of that key;
    * a vote that carries certificates keeps its encoding (``"bytes"``),
      a registered object its plain size (``"plain"``), a view-entry
      object its digest (``"digest"``), a strong-agreement config one
      prefix-consensus config per view (``("vpc", view)``) and a
      multi-slot config one strong-agreement config per slot and ranking
      (``("spc", slot, rank)``).

    Objects without a ``__dict__`` are not cached; a ``compute`` that
    raises stores nothing.  Callers pass ``compute``'s arguments, not a
    closure over them, so a hit builds no function object.
    """
    attrs = getattr(obj, "__dict__", None)
    if type(attrs) is not dict:
        return compute(*args)
    results = attrs.get("_cached")
    if results is None:
        results = attrs["_cached"] = {}
    try:
        return results[key]
    except KeyError:
        value = results[key] = compute(*args)
        return value


def write_uint(out: list, value: int) -> None:
    if value < 0:
        raise ValueError("uvarint cannot encode negatives")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(bytes([byte | 0x80]))
        else:
            out.append(bytes([byte]))
            return


def encode_uint(value: int) -> bytes:
    out: list = []
    write_uint(out, value)
    return b"".join(out)


def read_uint(data: bytes, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise DecodeError("truncated uvarint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise DecodeError("uvarint too long")


def write_bytes(out: list, blob: bytes) -> None:
    write_uint(out, len(blob))
    out.append(blob)


def read_bytes(data: bytes, pos: int) -> Tuple[bytes, int]:
    length, pos = read_uint(data, pos)
    if pos + length > len(data):
        raise DecodeError("truncated byte field")
    return data[pos : pos + length], pos + length


_ELEM_BOT = 0
_ELEM_BYTES = 1


def write_element(out: list, elem: Element) -> None:
    if isinstance(elem, _Bot):
        out.append(bytes([_ELEM_BOT]))
    else:
        out.append(bytes([_ELEM_BYTES]))
        write_bytes(out, elem)


_UINTS = [bytes((v,)) for v in range(0x80)]
_ELEM_HEADS = [bytes((_ELEM_BYTES, n)) for n in range(0x80)]


def encode_vector(vec: Sequence[Element]) -> bytes:
    """The signed and verified form of a vector, written in one pass.

    A byte-string element shorter than 128 bytes gets a precomputed
    head; BOT, longer and malformed elements go through
    :func:`write_element`, so every value encodes (or raises) exactly as
    with the chunk writer.
    """
    count = len(vec)
    out = bytearray(_UINTS[count] if count < 0x80 else encode_uint(count))
    for elem in vec:
        if type(elem) is bytes and len(elem) < 0x80:
            out += _ELEM_HEADS[len(elem)]
            out += elem
        else:
            chunks: list = []
            write_element(chunks, elem)
            out += b"".join(chunks)
    return bytes(out)

