"""Verifier randomness and commitment plumbing.

Two transcripts share one interface: replay consumes injected challenge
lists in order (used to reproduce the worked example), fiat-shamir derives
challenges from a SHA-256 hash of the message log.  Merkle trees commit to
ordered tables of rows (the values of several polynomials at one point) with
domain-separated SHA-256 hashing.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Callable, Dict, Iterable, Optional, Sequence, Set

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
        self._levels = levels

    @property
    def root(self) -> bytes:
        return self._levels[-1][0]

    @property
    def commitment(self) -> MerkleCommitment:
        return MerkleCommitment(root=self.root, leaf_count=self.leaf_count)

    def open(self, index: int, known: Optional[Set[int]] = None) -> bytes:
        """The siblings on the way up from leaf `index` to the first node in
        `known`, at the latest the root, joined from the leaf upward.

        `known` holds heap positions (the root is 1, the children of node v
        are 2v and 2v + 1, so leaf i is 2^height + i) of the nodes that
        earlier openings of this tree sent or let the verifier compute. The
        walk adds each node it passes and that node's sibling to it, which
        are the nodes verify_opening learns when it accepts the opening. So
        passing one set to every opening of a tree sends each node at most
        once, provided the verifier checks the openings in the same order.
        Without `known` the set starts as the root alone: the full path.
        """
        if not 0 <= index < self.leaf_count:
            raise IndexError(f"leaf index {index} out of range")
        if known is None:
            known = {1}
        node = (1 << (len(self._levels) - 1)) + index
        siblings = []
        for level in self._levels[:-1]:
            if node in known:
                break
            known.add(node)
            known.add(node ^ 1)
            siblings.append(level[index ^ 1])
            node >>= 1
            index >>= 1
        return b"".join(siblings)


def verify_opening(
    commitment: MerkleCommitment,
    index: int,
    row: Sequence[int],
    path: bytes,
    known: Optional[Dict[int, bytes]] = None,
) -> bool:
    """True when `path`, sibling digests of 32 bytes each joined from the leaf
    upward, opens `row` at leaf `index` of the committed tree.

    `known` holds the nodes of this tree that earlier accepted openings
    authenticated, keyed by heap position: the root is 1 and the children of
    node v are 2v and 2v + 1, so leaf i is 2^height + i. Pass one dict per
    tree and check the openings in the order MerkleTree.open made them. The
    walk up from the leaf takes the path's next 32 bytes per level and stops
    at the first known node (at the latest the root), whose digest the hashed
    one must equal, with all of `path` used: a path that runs out before a
    known node, goes on past one, or ends in part of a digest is refused.
    Every known node was authenticated against the root, so an opening is
    accepted exactly when its full path would have been. An accepted opening
    adds the root and the nodes and siblings it hashed to `known`; a refused
    one adds nothing.
    """
    if not 0 <= index < commitment.leaf_count:
        raise IndexError(f"leaf index {index} out of range")
    if known is None:
        known = {}
    node = (1 << (commitment.leaf_count - 1).bit_length()) + index
    digest = _leaf_hasher(len(row))(row)
    found = {1: commitment.root}
    offset = 0
    while node > 1 and node not in known:
        sibling = path[offset:offset + 32]
        if len(sibling) != 32:
            return False
        found[node] = digest
        found[node ^ 1] = sibling
        digest = _node_digest(sibling, digest) if node & 1 else _node_digest(digest, sibling)
        node >>= 1
        offset += 32
    if offset != len(path) or digest != known.get(node, commitment.root):
        return False
    known.update(found)
    return True
