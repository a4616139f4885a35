import hashlib
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projstark.channel import (
    FiatShamirTranscript,
    MerkleCommitment,
    MerkleTree,
    ReplayTranscript,
    TranscriptError,
    _node_digest,
    verify_opening,
)


# --- replay transcripts -----------------------------------------------------


def test_replay_draws_in_order():
    t = ReplayTranscript(331, gammas=[5, 7], betas=[9], sample_points=[87, 291])
    assert t.draw("gamma") == 5
    assert t.draw("beta") == 9
    assert t.draw("gamma") == 7
    assert t.draw("sample_point") == 87
    assert t.draw("sample_point") == 291


def test_replay_exhaustion():
    t = ReplayTranscript(331, gammas=[5])
    t.draw("gamma")
    with pytest.raises(TranscriptError):
        t.draw("gamma")
    with pytest.raises(TranscriptError):
        t.draw("beta")


def test_replay_excluded_value_rejected():
    # 331 + 16 is no point, although it is 16 mod q: it is refused as written.
    # Whether a value in [1, q) is a point with a leaf is _Domains.index's rule
    with pytest.raises(TranscriptError, match=r"^sample_points\[0\] = 347 is not in \[1, 331\)$"):
        ReplayTranscript(331, sample_points=[347])


@pytest.mark.parametrize("value", [592, 331, 0, -330])
def test_replay_refuses_a_value_outside_the_field_as_written(value):
    # 592 is 261 mod q and 331 is 0: each is refused when the transcript is
    # built, not reduced when drawn
    for kind in ("gammas", "betas", "sample_points"):
        with pytest.raises(TranscriptError,
                           match=rf"^{kind}\[0\] = {value} is not in \[1, 331\)$"):
            ReplayTranscript(331, **{kind: [value]})
    with pytest.raises(TranscriptError, match=r"^gammas\[2\] = 592 "):
        ReplayTranscript(331, gammas=[5, 7, 592])
    t = ReplayTranscript(331, gammas=[1, 330])
    assert (t.draw("gamma"), t.draw("gamma")) == (1, 330)


def test_replay_absorb_is_inert():
    t = ReplayTranscript(331, gammas=[3])
    t.absorb("anything", b"\x00" * 64)
    assert t.draw("gamma") == 3


# --- fiat-shamir transcripts ------------------------------------------------


def test_fiat_shamir_deterministic():
    a = FiatShamirTranscript(331)
    b = FiatShamirTranscript(331)
    a.absorb("root", b"\x01" * 32)
    b.absorb("root", b"\x01" * 32)
    assert a.draw("gamma") == b.draw("gamma")
    assert a.draw("beta") == b.draw("beta")


def test_fiat_shamir_challenges_in_field():
    t = FiatShamirTranscript(331)
    for kind in ("gamma", "beta", "sample_point"):
        for _ in range(20):
            v = t.draw(kind)
            assert 1 <= v <= 330


def test_fiat_shamir_diverges_on_different_messages():
    a = FiatShamirTranscript(331)
    b = FiatShamirTranscript(331)
    a.absorb("root", b"\x01" * 32)
    b.absorb("root", b"\x02" * 32)
    draws_a = [a.draw("gamma") for _ in range(8)]
    draws_b = [b.draw("gamma") for _ in range(8)]
    assert draws_a != draws_b


def test_fiat_shamir_salt_changes_stream():
    a = FiatShamirTranscript(331, salt=b"run-1")
    b = FiatShamirTranscript(331, salt=b"run-2")
    assert [a.draw("beta") for _ in range(4)] != [b.draw("beta") for _ in range(4)]


def test_fiat_shamir_draw_advances_state():
    t = FiatShamirTranscript(331)
    values = [t.draw("gamma") for _ in range(6)]
    assert len(set(values)) > 1  # each draw is re-absorbed, so the stream moves


def test_fiat_shamir_label_framing_matters():
    # ("ab", "c") and ("a", "bc") must not collide thanks to length prefixes
    a = FiatShamirTranscript(331)
    b = FiatShamirTranscript(331)
    a.absorb("ab", b"c")
    b.absorb("a", b"bc")
    assert a.draw("gamma") != b.draw("gamma")


def test_fiat_shamir_exclusions_respected():
    # a draw among points is one of them, found without retrying: with one
    # point it is that point, and the transcript moves on as for any draw
    t = FiatShamirTranscript(331)
    assert t.draw("sample_point", [123]) == 123
    points = sorted(random.Random(3).sample(range(1, 331), 40))
    draws = [t.draw("sample_point", points) for _ in range(200)]
    assert set(draws) <= set(points)
    assert len(set(draws)) > 20
    # the entry at the digest mod the point count: among all of F_q*, that
    # is the draw an F_q* challenge gets
    a, b = FiatShamirTranscript(331), FiatShamirTranscript(331)
    assert a.draw("sample_point", range(1, 331)) == b.draw("sample_point")


def test_fiat_shamir_unknown_kind():
    with pytest.raises(ValueError):
        FiatShamirTranscript(331).draw("nonce")


# --- merkle trees -----------------------------------------------------------


def test_merkle_single_leaf():
    tree = MerkleTree([(42,)])
    expected = hashlib.sha256(b"\x00" + (42).to_bytes(8, "little")).digest()
    assert tree.root == expected
    assert tree.open(0) == b""
    assert verify_opening(tree.commitment, 0, (42,), b"")


def test_merkle_two_leaves():
    tree = MerkleTree([(1,), (2,)])
    l0 = hashlib.sha256(b"\x00" + (1).to_bytes(8, "little")).digest()
    l1 = hashlib.sha256(b"\x00" + (2).to_bytes(8, "little")).digest()
    assert tree.root == hashlib.sha256(b"\x01" + l0 + l1).digest()
    assert tree.open(0) == l1
    assert tree.open(1) == l0


def test_merkle_duplicate_last_padding():
    # three leaves pad to four by repeating the last leaf digest
    tree3 = MerkleTree([(7,), (8,), (9,)])
    tree4 = MerkleTree([(7,), (8,), (9,), (9,)])
    assert tree3.root == tree4.root


def _reference_levels(values):
    """Tree levels built leaf by leaf: SHA-256(0x00 || the row as 8-byte
    little-endian words) at the leaves, _node_digest above them."""
    level = [hashlib.sha256(b"\x00" + struct.pack(f"<{len(row)}Q", *row)).digest()
             for row in values]
    while len(level) & (len(level) - 1):
        level.append(level[-1])
    levels = [level]
    while len(level) > 1:
        level = [_node_digest(level[i], level[i + 1]) for i in range(0, len(level), 2)]
        levels.append(level)
    return levels


@pytest.mark.parametrize("count", [1, 2, 3, 5, 8, 300])
def test_merkle_matches_reference_tree(count):
    rng = random.Random(count)
    table = [(rng.randrange(12289),) for _ in range(count)]
    tree = MerkleTree(table)
    levels = _reference_levels(table)
    assert tree.root == levels[-1][0]
    for i, v in enumerate(table):
        siblings, index = [], i
        for level in levels[:-1]:
            siblings.append(level[index ^ 1])
            index >>= 1
        path = b"".join(siblings)  # 32 bytes per level, from the leaf upward
        assert tree.open(i) == path
        assert verify_opening(tree.commitment, i, v, path)


def test_merkle_row_leaf_hashes_values_in_order():
    row = (1, 2, 3)
    tree = MerkleTree([row])
    encoded = b"".join(v.to_bytes(8, "little") for v in row)
    assert tree.root == hashlib.sha256(b"\x00" + encoded).digest()
    assert MerkleTree([(3, 2, 1)]).root != tree.root
    rng = random.Random(59)
    rows = [tuple(rng.randrange(769) for _ in range(20)) for _ in range(11)]
    wide = MerkleTree(rows)
    # rows read once from an iterator over columns give the same tree
    lazy = MerkleTree(zip(*zip(*rows)))
    assert (lazy.root, lazy.leaf_count) == (wide.root, len(rows))
    for i, r in enumerate(rows):
        assert verify_opening(wide.commitment, i, r, wide.open(i))
        assert not verify_opening(wide.commitment, i, r[:-1], wide.open(i))
        assert not verify_opening(wide.commitment, i, r[1:] + r[:1], wide.open(i))


def test_merkle_roots_bind_the_table():
    rng = random.Random(61)
    table = [(rng.randrange(331),) for _ in range(37)]
    assert MerkleTree(table).root == MerkleTree(list(table)).root
    other = list(table)
    other[17] = ((other[17][0] + 1) % 331,)
    assert MerkleTree(table).root != MerkleTree(other).root


def test_merkle_order_matters():
    assert MerkleTree([(1,), (2,)]).root != MerkleTree([(2,), (1,)]).root


def test_merkle_openings_verify():
    rng = random.Random(67)
    table = [(rng.randrange(10 ** 9),) for _ in range(21)]
    tree = MerkleTree(table)
    for i, v in enumerate(table):
        assert verify_opening(tree.commitment, i, v, tree.open(i))


def _assert_known_nodes_are_the_trees(tree, known):
    """Every node in `known`, keyed by heap position, is the tree's own."""
    height = len(tree._levels) - 1
    for key, node in known.items():
        level = height + 1 - key.bit_length()
        assert tree._levels[level][key - (1 << (height - level))] == node


def test_merkle_openings_share_authenticated_nodes():
    rng = random.Random(71)
    table = [(rng.randrange(12289),) for _ in range(300)]
    tree = MerkleTree(table)
    sent, known = {1}, {}
    first = rng.sample(range(300), 40) + [0, 299]
    digests = 0
    for i in first:
        full = tree.open(i)
        path = tree.open(i, sent)
        assert path == full[:len(path)]  # a prefix of the full path
        digests += len(path) // 32
        for level in range(len(path) // 32):  # a wrong sibling at any level is refused
            bad = path[:32 * level] + bytes(32) + path[32 * (level + 1):]
            assert not verify_opening(tree.commitment, i, table[i], bad, known)
        assert not verify_opening(tree.commitment, i, ((table[i][0] + 1) % 12289,), path, known)
        assert verify_opening(tree.commitment, i, table[i], path, known)
    # each digest sent is a sibling pair new to the set, so no node is sent
    # twice, and the 42 paths send fewer than their full 9 levels each
    assert len(sent) - 1 == 2 * digests < 2 * 42 * 9
    # a leaf opened before gets an empty path, which binds its row; its full
    # path now runs past known nodes and is refused
    for i in first[:10]:
        assert tree.open(i, sent) == b""
        assert not verify_opening(tree.commitment, i, table[i], tree.open(i), known)
        assert not verify_opening(tree.commitment, i, ((table[i][0] + 1) % 12289,), b"", known)
        assert verify_opening(tree.commitment, i, table[i], b"", known)
    # the prover's set is the verifier's: both learn the same nodes
    assert sent == set(known)
    # only nodes of the committed tree were learnt, refused openings added none
    _assert_known_nodes_are_the_trees(tree, known)
    height = len(tree._levels) - 1
    assert all((1 << height) + i in known for i in first)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), count=st.integers(1, 300))
def test_merkle_opening_refuses_a_dropped_added_or_replaced_digest(data, count):
    # whatever openings came before, an opening's path must run exactly to
    # the first node they made known, with the tree's own siblings on the
    # way, and be whole digests
    table = [(v,) for v in data.draw(st.lists(st.integers(0, 2**64 - 1),
                                              min_size=count, max_size=count), label="table")]
    tree = MerkleTree(table)
    nodes = [node for level in tree._levels for node in level]
    digests = st.one_of(st.sampled_from(nodes), st.binary(min_size=32, max_size=32))
    openings = data.draw(st.lists(st.integers(0, count - 1), min_size=1, max_size=12),
                         label="openings")
    sent, known = {1}, {}
    for i in openings:
        path = tree.open(i, sent)
        appended = data.draw(digests, label="appended")
        cut = data.draw(st.integers(1, 31), label="cut")
        edited = [path + appended, path + appended[:cut]]
        if path:
            edited += [path[:-32], path[:-cut]]
            level = data.draw(st.integers(0, len(path) // 32 - 1), label="level")
            at = slice(32 * level, 32 * (level + 1))
            digest = data.draw(digests.filter(lambda d: d != path[at]), label="replacement")
            edited.append(path[:at.start] + digest + path[at.stop:])
        for bad in edited:
            before = dict(known)
            assert not verify_opening(tree.commitment, i, table[i], bad, known)
            assert known == before
        assert verify_opening(tree.commitment, i, table[i], path, known)
    assert sent == set(known)
    _assert_known_nodes_are_the_trees(tree, known)


def test_merkle_opening_rejects_wrong_value():
    table = [(v,) for v in range(16)]
    tree = MerkleTree(table)
    path = tree.open(5)
    assert not verify_opening(tree.commitment, 5, (99,), path)


def test_merkle_opening_rejects_wrong_index():
    table = [(v,) for v in range(16)]
    tree = MerkleTree(table)
    assert not verify_opening(tree.commitment, 6, (5,), tree.open(5))


def test_merkle_opening_rejects_perturbed_path():
    table = [(v,) for v in range(16)]
    tree = MerkleTree(table)
    path = tree.open(3)
    bad = path[:32] + bytes(32) + path[64:]
    assert not verify_opening(tree.commitment, 3, (3,), bad)


def test_merkle_opening_rejects_wrong_path_length():
    table = [(v,) for v in range(16)]
    tree = MerkleTree(table)
    path = tree.open(3)
    assert len(path) == 4 * 32
    # a digest short or long, or part of one short or long
    for bad in (path[:-32], path + bytes(32), path[:-1], path + bytes(1), path[:-33]):
        assert not verify_opening(tree.commitment, 3, (3,), bad)


def test_merkle_index_bounds():
    tree = MerkleTree([(1,), (2,), (3,)])
    with pytest.raises(IndexError):
        tree.open(3)
    with pytest.raises(IndexError):
        verify_opening(tree.commitment, -1, (1,), b"")
    with pytest.raises(IndexError):
        verify_opening(MerkleCommitment(root=bytes(32), leaf_count=3), 3, (1,), b"")


def test_merkle_empty_table_rejected():
    with pytest.raises(ValueError):
        MerkleTree([])
    with pytest.raises(ValueError):
        MerkleTree(zip())
