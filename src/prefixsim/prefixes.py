"""Prefix-vector algebra.

Vectors are plain tuples of opaque byte-string elements.  A reserved
sentinel ``BOT`` (distinct from every byte string) marks absent elements;
it only appears inside vectors at the wire-codec boundary, where short
vectors are padded to a fixed capacity.

All operations here are pure functions over immutable tuples and are safe
for concurrent use.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union


class _Bot:
    """Singleton placeholder element, equal only to itself."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "BOT"

    def __reduce__(self):
        return (_bot_instance, ())


def _bot_instance() -> "_Bot":
    return BOT


BOT = _Bot()

Element = Union[bytes, _Bot]
Vector = tuple  # tuple[Element, ...]


def is_prefix(shorter: Sequence, longer: Sequence) -> bool:
    """True iff ``shorter`` is a (non-strict) prefix of ``longer``."""
    if len(shorter) > len(longer):
        return False
    return tuple(longer[: len(shorter)]) == tuple(shorter)


def consistent(a: Sequence, b: Sequence) -> bool:
    """True iff one vector is a prefix of the other."""
    if len(a) <= len(b):
        return is_prefix(a, b)
    return is_prefix(b, a)


def mcp(vectors: Iterable[Sequence]) -> Vector:
    """Maximum common prefix of a non-empty collection of vectors."""
    vecs = list(vectors)
    if not vecs:
        raise ValueError("mcp of an empty collection is undefined")
    first = min(vecs, key=len)
    cut = len(first)
    for vec in vecs:
        if cut == 0:
            break
        limit = min(cut, len(vec))
        i = 0
        while i < limit and vec[i] == first[i]:
            i += 1
        cut = i
    return tuple(first[:cut])


def mce(vectors: Iterable[Sequence]) -> Optional[Vector]:
    """Minimum common extension, or None when the vectors conflict.

    When every pair of vectors is consistent they form a chain, so the
    minimum common extension is simply the longest of them.
    """
    vecs = list(vectors)
    if not vecs:
        raise ValueError("mce of an empty collection is undefined")
    longest = max(vecs, key=len)
    for vec in vecs:
        if not is_prefix(vec, longest):
            return None
    return tuple(longest)


def _vector_sort_key(vec: Sequence) -> tuple:
    """Lexicographic order with BOT before every byte string."""
    return tuple((0, b"") if isinstance(elem, _Bot) else (1, elem) for elem in vec)


def longest_supported_prefix(vectors: Sequence[Sequence], support: int) -> Vector:
    """Deepest prefix extended by at least ``support`` of the given vectors.

    Equals the longest vector among the maximum common prefixes of all
    size-``support`` sub-multisets.  Sorted lexicographically (BOT
    before every byte string), the vectors extending any prefix form one
    run, so the answer is the longest common prefix of some window of
    ``support`` neighbours, and a window's common prefix is that of its
    first and last vectors.  Whenever ``2*support`` exceeds the ballot
    count (every quorum-certification call site) the result is unique
    because any two supporting subsets share a vector; for smaller
    support values equally deep candidates are broken lexicographically,
    which is what taking the first deepest window does.
    """
    vecs = list(vectors)
    if support <= 0:
        raise ValueError("support must be positive")
    if support > len(vecs):
        raise ValueError(f"support {support} exceeds vector count {len(vecs)}")
    try:
        vecs.sort()
    except TypeError:  # BOT meets a byte string: order by the explicit key
        vecs.sort(key=_vector_sort_key)
    best: Sequence = ()
    depth = 0
    for first, last in zip(vecs, vecs[support - 1 :]):
        # Only a window that beats the current depth matters.
        if len(first) <= depth or len(last) <= depth or first[: depth + 1] != last[: depth + 1]:
            continue
        limit = min(len(first), len(last))
        depth += 1
        while depth < limit and first[depth] == last[depth]:
            depth += 1
        best = first
    return tuple(best[:depth])
