"""Vector-algebra unit tests with brute-force oracles."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from prefixsim.prefixes import (
    BOT,
    consistent,
    is_prefix,
    longest_supported_prefix,
    mce,
    mcp,
)

a, b, c, d = b"a", b"b", b"c", b"d"


def brute_force_supported(vectors, k):
    """Independent oracle: exhaustive max over all size-k subsets."""
    best = ()
    for subset in itertools.combinations(range(len(vectors)), k):
        cand = mcp([vectors[i] for i in subset])
        if len(cand) > len(best):
            best = cand
    return best


def random_vector(rng, alphabet=3, max_len=5):
    length = rng.randrange(max_len + 1)
    return tuple(bytes([97 + rng.randrange(alphabet)]) for _ in range(length))


def test_is_prefix_examples():
    assert is_prefix((), (a, b))
    assert is_prefix((a, b), (a, b))
    assert not is_prefix((a, c), (a, b, d))
    assert not is_prefix((a, b, c), (a, b))


def test_consistent_examples():
    assert consistent((a,), (a, b))
    assert not consistent((a, b), (a, c))
    assert consistent((), ())


def test_mcp_examples():
    one, two, three, four = b"1", b"2", b"3", b"4"
    assert mcp([(one, two, three), (one, two, four)]) == (one, two)
    assert mcp([(a,)]) == (a,)
    assert mcp([(one,), (two,), (one,)]) == ()
    with pytest.raises(ValueError):
        mcp([])


def test_mce_examples():
    one, two, three = b"1", b"2", b"3"
    assert mce([(one,), (one, two), (one, two, three)]) == (one, two, three)
    assert mce([(one,), (two,)]) is None
    assert mce([(a, b)]) == (a, b)
    with pytest.raises(ValueError):
        mce([])


def test_supported_prefix_examples():
    assert longest_supported_prefix([(a, b), (a, b), (a, c)], 2) == (a, b)
    assert longest_supported_prefix([(a,), (a,), (a,)], 3) == (a,)
    assert longest_supported_prefix([(a,), (b,), (c,)], 2) == ()
    with pytest.raises(ValueError):
        longest_supported_prefix([(a,)], 2)


def test_supported_prefix_handles_bot_elements():
    # BOT can occur as a first-class element (digest vectors use a
    # distinguished placeholder); it must count like any other symbol.
    vecs = [(BOT, a), (BOT, a), (BOT, b)]
    assert longest_supported_prefix(vecs, 2) == (BOT, a)


def test_supported_prefix_matches_oracle_seeded():
    rng = random.Random(20240817)
    for _ in range(500):
        size = rng.randrange(2, 8)
        vectors = [random_vector(rng) for _ in range(size)]
        # Restrict to the quorum regime (2k > |s|) where the maximum is
        # provably unique, so oracle equality is well-defined.
        k = rng.randrange(size // 2 + 1, size + 1)
        assert longest_supported_prefix(vectors, k) == brute_force_supported(vectors, k)


def _lexicographic(vec):
    return tuple((0, b"") if elem is BOT else (1, elem) for elem in vec)


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from([BOT, b"", b"a", b"b"]), max_size=4).map(tuple), min_size=1, max_size=7),
    st.integers(1, 7),
)
def test_supported_prefix_matches_oracle_everywhere(vectors, support):
    # Any support, BOT, empty elements, mixed lengths and duplicates: the
    # depth is the oracle's, and equally deep candidates (possible only
    # without a majority) go to the lexicographically least, BOT first.
    support = min(support, len(vectors))
    got = longest_supported_prefix(vectors, support)
    want = brute_force_supported(vectors, support)
    assert len(got) == len(want)
    assert sum(is_prefix(got, vec) for vec in vectors) >= support
    deepest = {
        cand
        for subset in itertools.combinations(vectors, support)
        if len(cand := mcp(subset)) == len(want)
    }
    assert got == min(deepest, key=_lexicographic)
    if 2 * support > len(vectors):
        assert got == want


@pytest.mark.parametrize("f", [1, 2])
def test_subset_mcps_pairwise_consistent(f):
    # Any two (f+1)-subsets of 2f+1 ballots share a ballot, so their
    # common prefixes are consistent.
    rng = random.Random(90 + f)
    for _ in range(200):
        vectors = [random_vector(rng, alphabet=2, max_len=4) for _ in range(2 * f + 1)]
        prefixes = [
            mcp([vectors[i] for i in subset])
            for subset in itertools.combinations(range(len(vectors)), f + 1)
        ]
        for x, y in itertools.combinations(prefixes, 2):
            assert consistent(x, y)


vectors_strategy = st.lists(
    st.lists(st.sampled_from([b"a", b"b", b"c"]), max_size=5).map(tuple),
    min_size=1,
    max_size=7,
)


@settings(max_examples=200, deadline=None)
@given(vectors_strategy)
def test_mcp_mce_bounds(vectors):
    common = mcp(vectors)
    for vec in vectors:
        assert is_prefix(common, vec)
    ext = mce(vectors)
    if ext is not None:
        for vec in vectors:
            assert is_prefix(vec, ext)


@settings(max_examples=200, deadline=None)
@given(vectors_strategy, st.lists(st.lists(st.sampled_from([b"a", b"b"]), max_size=5).map(tuple), min_size=1, max_size=3))
def test_mcp_mce_monotone(vectors, extra):
    grown = vectors + extra
    assert len(mcp(grown)) <= len(mcp(vectors))
    ext_small, ext_big = mce(vectors), mce(grown)
    if ext_big is not None:
        assert ext_small is not None
        assert len(ext_small) <= len(ext_big)


def test_bot_identity():
    assert BOT == BOT
    assert BOT != b""
    assert BOT != b"\x00"
