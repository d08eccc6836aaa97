"""Owner-side key identification for encrypted inventory responses.

Two interchangeable strategies:

* naive: trial-decrypt against every enrolled key, O(n) tag checks;
* key tree: a p-ary hierarchy of shared keys. Each device prepends one
  PRF output per tree level, keyed by the node keys on its root-to-leaf
  path and evaluated over the request nonce. The owner walks the tree
  top-down, testing at most p-1 children per level, so identification
  needs at most (p-1) * L PRF evaluations instead of n tag checks.

The tree is padded to a full p-ary shape with dummy leaves so every
device holds exactly L keys and all headers are the same length; a leaf
key doubles as that device's response-encryption key. The root key is
shared by everyone and therefore never used.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Iterator, Sequence

from . import crypto


class ParameterError(ValueError):
    """Tree shape arguments out of range."""


class RetrievalError(LookupError):
    """A key-tree header the tree cannot walk: its field count is not the
    tree's height."""


@dataclass(frozen=True)
class KeyTree:
    """Complete p-ary key tree; node 0 is the root, children of node i
    are p*i + 1 .. p*i + p, leaves are the last padded_leaves nodes."""

    arity: int
    leaf_count: int  # real devices
    padded_leaves: int  # next power of arity
    height: int  # L: levels below the root
    node_keys: tuple[bytes, ...]

    @property
    def first_leaf(self) -> int:
        return (self.padded_leaves - 1) // (self.arity - 1)

    @property
    def total_nodes(self) -> int:
        return (self.arity * self.padded_leaves - 1) // (self.arity - 1)

    def leaf_key(self, index: int) -> bytes:
        """Response-encryption key for device `index`."""
        if not 0 <= index < self.leaf_count:
            raise IndexError(f"device index {index} out of range [0, {self.leaf_count})")
        return self.node_keys[self.first_leaf + index]


def build_tree(n: int, p: int, rng: Random) -> KeyTree:
    """Construct a key tree over n devices with arity p.

    n is padded up to the next power of p; every node gets a fresh key.
    A single device makes the hierarchy meaningless, so n must be >= 2.
    """
    if n < 2:
        raise ParameterError("key tree needs at least 2 devices")
    if p < 2:
        raise ParameterError("tree arity must be at least 2")
    height = 1
    padded = p
    while padded < n:
        padded *= p
        height += 1
    total = (p * padded - 1) // (p - 1)
    keys = tuple(rng.randbytes(crypto.SYMMETRIC_KEY_LEN) for _ in range(total))
    return KeyTree(arity=p, leaf_count=n, padded_leaves=padded, height=height, node_keys=keys)


def device_key_vector(tree: KeyTree, index: int) -> tuple[bytes, ...]:
    """Keys along the root-to-leaf path for one device, levels 1..L.

    The root key is excluded; the last element is the device's own key.
    Two devices share a prefix exactly as deep as their common ancestor.
    """
    if not 0 <= index < tree.leaf_count:
        raise IndexError(f"device index {index} out of range [0, {tree.leaf_count})")
    p = tree.arity
    node = 0
    vector = []
    for level in range(1, tree.height + 1):
        digit = (index // p ** (tree.height - level)) % p
        node = p * node + 1 + digit
        vector.append(tree.node_keys[node])
    return tuple(vector)


def build_header(vector: Sequence[bytes], owner_nonce: bytes) -> tuple[bytes, ...]:
    """Per-level PRF outputs over the request nonce, one per path key."""
    return tuple(crypto.prf_eval(key, owner_nonce) for key in vector)


def walk(
    tree: KeyTree, header: Sequence[bytes], owner_nonce: bytes
) -> Iterator[tuple[int, int]]:
    """Walk the tree toward the leaf that produced `header`, top-down.

    At each level the first p-1 children's PRF outputs are compared to the
    header field; a miss on all of them implies the last child, so the
    binary case needs a single evaluation per level. Yields (PRF
    evaluations, node chosen) per level; the last node is the leaf.
    """
    if len(header) != tree.height:
        raise RetrievalError(
            f"header has {len(header)} fields, tree height is {tree.height}"
        )
    p = tree.arity
    node = 0
    for level in range(tree.height):
        first_child = p * node + 1
        node = first_child + p - 1  # fall through to the last child on no match
        evals = p - 1
        for q in range(p - 1):
            if crypto.prf_eval(tree.node_keys[first_child + q], owner_nonce) == header[level]:
                node = first_child + q
                evals = q + 1
                break
        yield evals, node


def retrieve_lkh(
    tree: KeyTree, header: Sequence[bytes], owner_nonce: bytes
) -> tuple[int, int]:
    """Returns (leaf index, PRF evaluations used) for `header`. The caller
    confirms the leaf key by opening the sealed payload; a forged header
    surfaces there, or here as an index beyond the real device range."""
    steps = list(walk(tree, header, owner_nonce))
    return steps[-1][1] - tree.first_leaf, sum(evals for evals, _ in steps)


def retrieve_naive(
    keys: Sequence[bytes], items: Sequence[tuple[bytes, bytes, bytes]]
) -> tuple[list[int | None], int]:
    """Exhaustive trial decryption of every (iv, sealed, associated data)
    item in one sweep of `keys`. Returns (positions, decrypts): each item's
    first opening key position, or None if no key opens it, and the
    decrypts the sweep made, position + 1 per opened item and len(keys)
    per item no key opens."""
    positions = crypto.aead_sweep(keys, items)
    return positions, sum(len(keys) if p is None else p + 1 for p in positions)


@dataclass(frozen=True)
class StorageCounts:
    """Per-deployment storage and header overhead."""

    device_keys: int
    owner_keys: int
    header_bytes: int


def storage_counts(tree: KeyTree) -> StorageCounts:
    """Device keys L, owner keys (p*n - 1)/(p - 1) - 1 (root excluded),
    header bytes L * PRF output size."""
    return StorageCounts(
        device_keys=tree.height,
        owner_keys=tree.total_nodes - 1,
        header_bytes=tree.height * crypto.PRF_OUTPUT_LEN,
    )
