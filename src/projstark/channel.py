"""Verifier randomness and commitment plumbing.

Two transcript modes share one interface: replay consumes injected challenge
lists in order (used to reproduce the worked example), fiat_shamir derives
challenges from a SHA-256 hash of the message log.  Merkle trees commit to
ordered tables of rows (the values of several polynomials at one point) with
domain-separated SHA-256 hashing.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import AbstractSet, Dict, List, Sequence

CHALLENGE_KINDS = ("gamma", "beta", "sample_point")

_EMPTY: AbstractSet[int] = frozenset()


class TranscriptError(RuntimeError):
    """Replay list exhausted, or an injected value falls in the exclusion set."""


class ReplayTranscript:
    mode = "replay"

    def __init__(
        self,
        modulus: int,
        gammas: Sequence[int] = (),
        betas: Sequence[int] = (),
        sample_points: Sequence[int] = (),
    ):
        self.modulus = modulus
        self._queues: Dict[str, List[int]] = {
            "gamma": list(gammas),
            "beta": list(betas),
            "sample_point": list(sample_points),
        }

    def absorb(self, label: str, data: bytes) -> None:
        pass  # replay challenges are fixed up front

    def draw(self, kind: str, exclusions: AbstractSet[int] = _EMPTY) -> int:
        queue = self._queues[kind]
        if not queue:
            raise TranscriptError(f"replay transcript exhausted for kind {kind!r}")
        value = queue.pop(0) % self.modulus
        if value == 0 or value in exclusions:
            raise TranscriptError(f"injected {kind} value {value} is excluded")
        return value


class FiatShamirTranscript:
    mode = "fiat_shamir"

    def __init__(self, modulus: int, salt: bytes = b""):
        self.modulus = modulus
        self._state = hashlib.sha256()
        if salt:
            self.absorb("salt", salt)

    def absorb(self, label: str, data: bytes) -> None:
        enc = label.encode()
        self._state.update(len(enc).to_bytes(4, "little") + enc)
        self._state.update(len(data).to_bytes(8, "little") + data)

    def draw(self, kind: str, exclusions: AbstractSet[int] = _EMPTY) -> int:
        if kind not in CHALLENGE_KINDS:
            raise ValueError(f"unknown challenge kind {kind!r}")
        base = self._state.copy().digest()
        counter = 0
        while True:
            digest = hashlib.sha256(
                base + kind.encode() + counter.to_bytes(8, "little")
            ).digest()
            value = int.from_bytes(digest, "big") % (self.modulus - 1) + 1
            if value not in exclusions:
                break
            counter += 1
        self.absorb("challenge:" + kind, value.to_bytes(8, "little"))
        return value


# --- Merkle commitments -----------------------------------------------------

_LEAF_TAG = b"\x00"
_NODE_TAG = b"\x01"


def _leaf_digest(row: Sequence[int]) -> bytes:
    return hashlib.sha256(_LEAF_TAG + b"".join([v.to_bytes(8, "little") for v in row])).digest()


def _node_digest(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(_NODE_TAG + left + right).digest()


@dataclass(frozen=True)
class MerkleCommitment:
    root: bytes
    leaf_count: int


class MerkleTree:
    """Binary tree over an ordered table of rows, duplicate-last padded.

    A leaf is SHA-256(0x00 || the row's values as 8-byte little-endian), so a
    one-value row hashes like a single table entry.
    """

    def __init__(self, rows: Sequence[Sequence[int]]):
        if not rows:
            raise ValueError("cannot commit to an empty table")
        self.leaf_count = len(rows)
        # the digests of _leaf_digest and _node_digest, inlined to save a call per digest
        sha, join = hashlib.sha256, b"".join
        level = [sha(_LEAF_TAG + join([v.to_bytes(8, "little") for v in row])).digest()
                 for row in rows]
        while len(level) & (len(level) - 1):
            level.append(level[-1])
        levels = [level]
        while len(level) > 1:
            level = [sha(_NODE_TAG + a + b).digest() for a, b in zip(level[0::2], level[1::2])]
            levels.append(level)
        self._levels = levels

    @property
    def root(self) -> bytes:
        return self._levels[-1][0]

    @property
    def commitment(self) -> MerkleCommitment:
        return MerkleCommitment(root=self.root, leaf_count=self.leaf_count)

    def open(self, index: int) -> List[bytes]:
        if not 0 <= index < self.leaf_count:
            raise IndexError(f"leaf index {index} out of range")
        path = []
        for level in self._levels[:-1]:
            path.append(level[index ^ 1])
            index >>= 1
        return path


def verify_opening(
    commitment: MerkleCommitment, index: int, row: Sequence[int], path: Sequence[bytes]
) -> bool:
    if not 0 <= index < commitment.leaf_count:
        raise IndexError(f"leaf index {index} out of range")
    padded = 1 if commitment.leaf_count <= 1 else 1 << (commitment.leaf_count - 1).bit_length()
    if len(path) != padded.bit_length() - 1:
        return False
    digest = _leaf_digest(row)
    for sibling in path:
        if index & 1:
            digest = _node_digest(sibling, digest)
        else:
            digest = _node_digest(digest, sibling)
        index >>= 1
    return digest == commitment.root
