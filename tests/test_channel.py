import base64
import hashlib
import itertools
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import minimal_multiproof
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
    # Whether a value in [1, q) is a point with a leaf is _Domains.leaf's rule
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
    assert tree.open([0]) == [b""]
    assert tree.open([0, 0]) == [b"", b""]
    assert verify_opening(tree.commitment, [(0, (42,), b"")])
    assert not verify_opening(tree.commitment, [(0, (43,), b"")])


def test_merkle_two_leaves():
    tree = MerkleTree([(1,), (2,)])
    l0 = hashlib.sha256(b"\x00" + (1).to_bytes(8, "little")).digest()
    l1 = hashlib.sha256(b"\x00" + (2).to_bytes(8, "little")).digest()
    assert tree.root == hashlib.sha256(b"\x01" + l0 + l1).digest()
    assert tree.open([0]) == [l1]
    assert tree.open([1]) == [l0]
    # each leaf lets the verifier compute the other's digest, so none is sent
    assert tree.open([1, 0]) == [b"", b""]
    assert verify_opening(tree.commitment, [(1, (2,), b""), (0, (1,), b"")])


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
        assert tree.open([i]) == [path]  # a leaf opened alone: the full path
        assert verify_opening(tree.commitment, [(i, v, path)])


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
        [path] = wide.open([i])
        assert verify_opening(wide.commitment, [(i, r, path)])
        assert not verify_opening(wide.commitment, [(i, r[:-1], path)])
        assert not verify_opening(wide.commitment, [(i, r[1:] + r[:1], path)])


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
        assert verify_opening(tree.commitment, [(i, v, *tree.open([i]))])
    # every row at once: only the roots of the padding subtrees no row is
    # under are sent, each by the first opening under its parent: leaf 21
    # and leaves 22-23 by that of leaf 20, leaves 24-31 by that of leaf 16
    paths = tree.open(range(21))
    [full] = tree.open([20])
    assert paths[20] == full[:64] and paths[16] == full[96:128]
    assert paths[:16] + paths[17:20] == [b""] * 19
    assert verify_opening(tree.commitment, [(i, table[i], p) for i, p in enumerate(paths)])


def _batch(count, seed):
    """A table of `count` one-value rows, its tree, and a random list of
    openings (index, row, path) made by one open, with leaves repeated."""
    rng = random.Random(seed)
    table = [(rng.randrange(2**64),) for _ in range(count)]
    tree = MerkleTree(table)
    pool = rng.sample(range(count), min(count, 40))
    indices = [rng.choice(pool) for _ in range(rng.randint(1, 60))]
    indices += [indices[0]]  # at least one leaf opened twice
    return rng, table, tree, [(i, table[i], p) for i, p in zip(indices, tree.open(indices))]


def _digests(path):
    return [path[j:j + 32] for j in range(0, len(path), 32)]


BATCH_SIZES = [1, 2, 150, 300, 2048]


def test_merkle_openings_share_authenticated_nodes():
    # one batch sends, among all its paths, exactly the minimal multiproof:
    # each digest the opened rows do not let the verifier compute, once
    for count, seed in itertools.product(BATCH_SIZES, range(4)):
        _, table, tree, openings = _batch(count, seed)
        assert verify_opening(tree.commitment, openings)
        levels = _reference_levels(table)
        minimal = minimal_multiproof(count, [i for i, _, _ in openings])
        sent = [d for _, _, path in openings for d in _digests(path)]
        assert sorted(sent) == sorted(levels[level][pos] for level, pos in minimal)
        # each path is its leaf's full path cut to some of its levels, in order
        for i, _, path in openings:
            [full] = tree.open([i])
            assert set(_digests(path)) <= set(_digests(full))
        # a leaf opened before sends nothing
        seen = set()
        for i, _, path in openings:
            assert path == b"" or i not in seen
            seen.add(i)


def _refused(commitment, openings):
    verdict = verify_opening(commitment, openings)
    assert not verdict and verdict.reason
    return verdict


@pytest.mark.parametrize("count", BATCH_SIZES)
def test_batch_opening_rejects_every_edit(count):
    for seed in range(3):
        rng, table, tree, openings = _batch(count, seed)
        cm = tree.commitment

        def edited(k, **change):
            bad = list(openings)
            i, row, path = bad[k]
            bad[k] = (change.get("index", i), change.get("row", row), change.get("path", path))
            return bad

        for k, (i, row, path) in enumerate(openings):
            # one byte of each digest or value changed
            for j in range(0, len(path), 32):
                at = j + rng.randrange(32)
                flipped = path[:at] + bytes([path[at] ^ rng.randrange(1, 256)]) + path[at + 1:]
                _refused(cm, edited(k, path=flipped))
            value = row[0] ^ (rng.randrange(1, 256) << 8 * rng.randrange(8))
            _refused(cm, edited(k, row=(value,)))
            # a digest dropped or added, named by its opening
            if path:
                assert _refused(cm, edited(k, path=path[:-32])).opening == k
            assert _refused(cm, edited(k, path=path + tree.root)).opening == k
            # a digest moved to the next opening's path, the concatenation unchanged
            if k + 1 < len(openings):
                i2, row2, path2 = openings[k + 1]
                if path:
                    moved = edited(k, path=path[:-32])
                    moved[k + 1] = (i2, row2, path[-32:] + path2)
                    _refused(cm, moved)
                if path2:
                    moved = edited(k, path=path + path2[:32])
                    moved[k + 1] = (i2, row2, path2[32:])
                    _refused(cm, moved)
        # a repeated leaf given another row, named by the later opening
        first = {}
        for k, (i, row, _) in enumerate(openings):
            if i in first:
                verdict = _refused(cm, edited(k, row=((row[0] + 1) % 2**64,)))
                assert verdict.opening == k and f"leaf {i}" in verdict.reason
            first.setdefault(i, k)


@pytest.mark.parametrize("count", BATCH_SIZES)
def test_batch_opening_must_keep_its_order(count):
    # openings reordered are accepted only when the prover, opening the
    # leaves in that order, would have sent those very paths
    refused = 0
    for seed in range(6):
        rng, _, tree, openings = _batch(count, seed)
        for _ in range(5):
            shuffled = rng.sample(openings, len(openings))
            same = tree.open([i for i, _, _ in shuffled]) == [p for _, _, p in shuffled]
            assert bool(verify_opening(tree.commitment, shuffled)) == same
            refused += not same
    assert refused > 0 or count <= 2  # 1 and 2 leaves send no digest in a batch of all


def test_a_root_mismatch_names_both_roots():
    tree = MerkleTree([(v,) for v in range(16)])
    other = MerkleTree([(v + 1,) for v in range(16)])
    [path] = other.open([3])
    verdict = _refused(tree.commitment, [(3, (4,), path)])
    assert verdict.opening is None
    b64 = [base64.b64encode(r).decode() for r in (other.root, tree.root)]
    assert verdict.reason == f"computed root {b64[0]}, committed {b64[1]}"


@settings(max_examples=100, deadline=None)
@given(data=st.data(), count=st.integers(1, 300))
def test_merkle_opening_refuses_a_dropped_added_or_replaced_digest(data, count):
    # each path of a batch must hold exactly the digests the batch assigns
    # it, the tree's own, in whole digests
    table = [(v,) for v in data.draw(st.lists(st.integers(0, 2**64 - 1),
                                              min_size=count, max_size=count), label="table")]
    tree = MerkleTree(table)
    nodes = tree._nodes[1:]
    digests = st.one_of(st.sampled_from(nodes), st.binary(min_size=32, max_size=32))
    indices = data.draw(st.lists(st.integers(0, count - 1), min_size=1, max_size=12),
                        label="openings")
    openings = [(i, table[i], p) for i, p in zip(indices, tree.open(indices))]
    assert verify_opening(tree.commitment, openings)
    k = data.draw(st.integers(0, len(openings) - 1), label="opening")
    i, row, path = openings[k]
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
        assert not verify_opening(tree.commitment,
                                  openings[:k] + [(i, row, bad)] + openings[k + 1:])


def test_merkle_opening_rejects_wrong_value():
    table = [(v,) for v in range(16)]
    tree = MerkleTree(table)
    [path] = tree.open([5])
    assert not verify_opening(tree.commitment, [(5, (99,), path)])


def test_merkle_opening_rejects_wrong_index():
    table = [(v,) for v in range(16)]
    tree = MerkleTree(table)
    assert not verify_opening(tree.commitment, [(6, (5,), *tree.open([5]))])


def test_merkle_opening_rejects_perturbed_path():
    table = [(v,) for v in range(16)]
    tree = MerkleTree(table)
    [path] = tree.open([3])
    bad = path[:32] + bytes(32) + path[64:]
    assert not verify_opening(tree.commitment, [(3, (3,), bad)])


def test_merkle_opening_rejects_wrong_path_length():
    table = [(v,) for v in range(16)]
    tree = MerkleTree(table)
    [path] = tree.open([3])
    assert len(path) == 4 * 32
    # a digest short or long, or part of one short or long
    for bad in (path[:-32], path + bytes(32), path[:-1], path + bytes(1), path[:-33]):
        verdict = _refused(tree.commitment, [(3, (3,), bad)])
        assert verdict.opening == 0
        assert verdict.reason == f"a path of {len(bad)} bytes, where its leaf needs 4 digests of 32"


def test_merkle_index_bounds():
    tree = MerkleTree([(1,), (2,), (3,)])
    with pytest.raises(IndexError):
        tree.open([3])
    with pytest.raises(IndexError):
        tree.open([0, -1])
    with pytest.raises(IndexError):
        verify_opening(tree.commitment, [(-1, (1,), b"")])
    with pytest.raises(IndexError):
        verify_opening(MerkleCommitment(root=bytes(32), leaf_count=3), [(3, (1,), b"")])


def test_merkle_empty_table_rejected():
    with pytest.raises(ValueError):
        MerkleTree([])
    with pytest.raises(ValueError):
        MerkleTree(zip())
