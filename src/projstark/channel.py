"""Verifier randomness and commitment plumbing.

Two transcripts share one interface: replay consumes injected challenge
lists in order (used to reproduce the worked example), fiat-shamir derives
challenges from a SHA-256 hash of the message log.  Merkle trees commit to
ordered tables of rows (the values of several polynomials at one point) with
domain-separated SHA-256 hashing.
"""

from __future__ import annotations

import binascii
import hashlib
import struct
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

CHALLENGE_KINDS = ("gamma", "beta", "sample_point")


class TranscriptError(RuntimeError):
    """An injected value outside [1, q), refused when built; a replay list exhausted."""


class ReplayTranscript:
    """Injected challenge lists, drawn in order, each value as written."""

    salt = b""  # challenges are injected, so none is salted

    def __init__(
        self,
        modulus: int,
        gammas: Sequence[int] = (),
        betas: Sequence[int] = (),
        sample_points: Sequence[int] = (),
    ):
        self._queues = dict(zip(CHALLENGE_KINDS, map(list, (gammas, betas, sample_points))))
        for kind, values in self._queues.items():
            for i, v in enumerate(values):  # named as the keyword that took the list
                if not 1 <= v < modulus:
                    raise TranscriptError(f"{kind}s[{i}] = {v} is not in [1, {modulus})")

    def absorb(self, label: str, data: bytes) -> None:
        pass  # replay challenges are fixed up front

    def draw(self, kind: str, points: Optional[Sequence[int]] = None) -> int:
        """The next injected value of `kind`; whether it is in `points` is the caller's rule."""
        if not self._queues[kind]:
            raise TranscriptError(f"replay transcript exhausted for kind {kind!r}")
        return self._queues[kind].pop(0)


class FiatShamirTranscript:
    def __init__(self, modulus: int, salt: bytes = b""):
        self.modulus = modulus
        self.salt = salt
        self._state = hashlib.sha256()
        if salt:
            self.absorb("salt", salt)

    def absorb(self, label: str, data: bytes) -> None:
        enc = label.encode()
        self._state.update(len(enc).to_bytes(4, "little") + enc)
        self._state.update(len(data).to_bytes(8, "little") + data)

    def draw(self, kind: str, points: Optional[Sequence[int]] = None) -> int:
        """A challenge derived from the messages absorbed so far: an element of
        F_q*, or, when `points` is given, the entry of `points` at the digest
        mod len(points), so a draw never has to be retried."""
        if kind not in CHALLENGE_KINDS:
            raise ValueError(f"unknown challenge kind {kind!r}")
        digest = hashlib.sha256(
            self._state.copy().digest() + kind.encode() + bytes(8)
        ).digest()
        word = int.from_bytes(digest, "big")
        value = word % (self.modulus - 1) + 1 if points is None else points[word % len(points)]
        self.absorb("challenge:" + kind, value.to_bytes(8, "little"))
        return value


# --- Merkle commitments -----------------------------------------------------

_LEAF_TAG = b"\x00"
_NODE_TAG = b"\x01"


@lru_cache(maxsize=16)  # one per row width
def _leaf_hasher(width: int) -> Callable[[Sequence[int]], bytes]:
    """The function giving the leaf digest of a row of `width` values:
    SHA-256(0x00 || the values as 8-byte little-endian words), the row
    encoded by one struct call."""
    encode, sha = struct.Struct(f"<{width}Q").pack, hashlib.sha256
    return lambda row: sha(_LEAF_TAG + encode(*row)).digest()


def _node_digest(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(_NODE_TAG + left + right).digest()


@dataclass(frozen=True)
class MerkleCommitment:
    root: bytes
    leaf_count: int

    def __post_init__(self):
        if len(self.root) != 32:
            raise ValueError("commitment root must be 32 bytes")


class MerkleTree:
    """Binary tree over an ordered table of rows, duplicate-last padded.

    A leaf is SHA-256(0x00 || the row's values as 8-byte little-endian), so a
    one-value row hashes like a single table entry. Every row of the table has
    the same number of values, each below 2^64. The rows are read once, in
    order, so they can come from an iterator such as zip(*columns) and need
    not be kept.
    """

    def __init__(self, rows: Iterable[Sequence[int]]):
        rows = iter(rows)
        first = next(rows, None)
        if first is None:
            raise ValueError("cannot commit to an empty table")
        level = list(map(_leaf_hasher(len(first)), chain((first,), rows)))
        self.leaf_count = len(level)
        # Every padding leaf is the last leaf, so the nodes above only padding
        # share one digest per level: each level hashes the pairs that hold a
        # table row, then pads itself with that digest.
        pad = level[-1]
        size = 1 << (len(level) - 1).bit_length()
        levels = []
        while True:
            levels.append(level + [pad] * (size - len(level)))
            if size == 1:
                break
            level += [pad] * (len(level) & 1)
            level = list(map(_node_digest, level[0::2], level[1::2]))
            pad = _node_digest(pad, pad)
            size //= 2
        # in heap positions: the root at 1, the children of node v at 2v and
        # 2v + 1, so leaf i at 2^height + i
        self._nodes = [b""]
        for level in reversed(levels):
            self._nodes += level

    @property
    def root(self) -> bytes:
        return self._nodes[1]

    @property
    def commitment(self) -> MerkleCommitment:
        return MerkleCommitment(root=self.root, leaf_count=self.leaf_count)

    def open(self, indices: Sequence[int]) -> List[bytes]:
        """The paths of one batch opening of the leaves `indices`, in that
        order, which may repeat a leaf: each path the sibling digests
        _multiproof assigns its opening, joined from the leaf upward. The
        paths together send every digest the opened rows do not let the
        verifier compute, each once; a single leaf's path runs to the root.
        verify_opening checks the openings in the same order.
        """
        nodes = self._nodes
        paths: List[List[bytes]] = [[] for _ in indices]
        for sends, _ in _multiproof(self.leaf_count, indices):
            for k, v in sends:
                paths[k].append(nodes[v])
        return [b"".join(path) for path in paths]


def _multiproof(leaf_count: int, indices: Sequence[int]
                ) -> List[Tuple[List[Tuple[int, int]], Dict[int, int]]]:
    """The one rule that cuts a batch opening of the leaves `indices` of a
    tree of `leaf_count` leaves into paths, level by level from the leaves
    up to the root: for each level, the digests sent there, as (opening,
    node) pairs, each appended to that opening's path, and the nodes of the
    level above that an opened leaf is under, each mapped to its owner. An
    index out of range is an IndexError.

    In heap positions the root is 1 and the children of node v are 2v and
    2v + 1, so leaf i is 2^height + i. A node's owner is the first opening
    whose leaf is under it. An opening sends the sibling of each node it
    owns below the root, unless an opened leaf is under that sibling too,
    which the verifier then computes; so each digest of the minimal
    multiproof is sent once, and a leaf opened before sends nothing.
    """
    base = 1 << (leaf_count - 1).bit_length()
    level: Dict[int, int] = {}
    for k, i in enumerate(indices):
        if not 0 <= i < leaf_count:
            raise IndexError(f"leaf index {i} out of range")
        level.setdefault(base + i, k)
    # each level's nodes are kept in their owners' order, so the first child
    # of a node met is its owner's
    levels = []
    while base > 1:
        parents: Dict[int, int] = {}
        sends = []
        for v, k in level.items():
            if v ^ 1 not in level:
                sends.append((k, v ^ 1))
            parents.setdefault(v >> 1, k)
        levels.append((sends, parents))
        level = parents
        base >>= 1
    return levels


@dataclass(frozen=True)
class OpeningVerdict:
    """verify_opening's verdict, true when the openings are accepted. A reject
    says why, and names the opening at fault by its place in the batch when
    one is."""

    reason: str = ""
    opening: Optional[int] = None

    def __bool__(self) -> bool:
        return not self.reason


def verify_opening(
    commitment: MerkleCommitment,
    openings: Sequence[Tuple[int, Sequence[int], bytes]],
) -> OpeningVerdict:
    """Whether `openings`, (leaf index, row, path) triples in the order
    MerkleTree.open made their paths, open the committed tree.

    _multiproof gives, from the indices alone, the digests each path must
    send: a path of any other length is refused, and so is a leaf opened
    twice with two rows. The verifier then hashes the opened leaves up level
    by level as _multiproof walks them, each missing sibling the next digest
    of its owner's path, and accepts when the root it reaches is the
    committed one. A reject names the opening at fault, or else both roots.
    An empty batch opens nothing and is accepted.
    """
    if not openings:
        return OpeningVerdict()
    levels = _multiproof(commitment.leaf_count, [o[0] for o in openings])
    due = [0] * len(openings)  # the bytes each path must hold
    for sends, _ in levels:
        for k, _ in sends:
            due[k] += 32
    base = 1 << (commitment.leaf_count - 1).bit_length()
    nodes: Dict[int, bytes] = {}
    for k, (index, row, path) in enumerate(openings):
        if len(path) != due[k]:
            return OpeningVerdict(f"a path of {len(path)} bytes, where its leaf needs "
                                  f"{due[k] // 32} digests of 32", k)
        digest = _leaf_hasher(len(row))(row)
        if nodes.setdefault(base + index, digest) != digest:
            return OpeningVerdict(f"leaf {index} opened again with another row", k)
    used = [0] * len(openings)  # the bytes of each path taken so far
    sha = hashlib.sha256
    for sends, parents in levels:
        for k, v in sends:
            at = used[k]
            nodes[v] = openings[k][2][at:at + 32]
            used[k] = at + 32
        for v in parents:  # _node_digest, inlined
            nodes[v] = sha(_NODE_TAG + nodes[2 * v] + nodes[2 * v + 1]).digest()
    if nodes[1] != commitment.root:
        return OpeningVerdict(f"computed root {_b64(nodes[1])}, committed {_b64(commitment.root)}")
    return OpeningVerdict()


def _b64(digest: bytes) -> str:
    """A digest as the proof document spells it."""
    return binascii.b2a_base64(digest, newline=False).decode()
