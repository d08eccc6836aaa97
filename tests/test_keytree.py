"""Key-tree construction, traversal, naive search, and overhead counts."""

import math
from random import Random

import pytest

from pulldisc import crypto, keytree


@pytest.fixture
def rng():
    return Random(41)


def test_parameter_errors(rng):
    with pytest.raises(keytree.ParameterError):
        keytree.build_tree(1, 2, rng)
    with pytest.raises(keytree.ParameterError):
        keytree.build_tree(8, 1, rng)


@pytest.mark.parametrize(
    "n,p,expected",
    [
        (256, 2, (8, 510, 128)),
        (256, 4, (4, 340, 64)),
        (2, 2, (1, 2, 16)),
    ],
)
def test_storage_counts(rng, n, p, expected):
    counts = keytree.storage_counts(keytree.build_tree(n, p, rng))
    assert (counts.device_keys, counts.owner_keys, counts.header_bytes) == expected


def test_padding_to_power_of_arity(rng):
    tree = keytree.build_tree(5, 2, rng)
    assert tree.padded_leaves == 8 and tree.height == 3
    tree = keytree.build_tree(17, 4, rng)
    assert tree.padded_leaves == 64 and tree.height == 3
    # every real device still gets a full-length vector
    assert all(len(keytree.device_key_vector(tree, i)) == 3 for i in range(17))


def test_node_keys_distinct(rng):
    tree = keytree.build_tree(64, 2, rng)
    assert len(set(tree.node_keys)) == tree.total_nodes


def test_vector_prefix_sharing(rng):
    tree = keytree.build_tree(8, 2, rng)
    v0 = keytree.device_key_vector(tree, 0)
    v1 = keytree.device_key_vector(tree, 1)
    v4 = keytree.device_key_vector(tree, 4)
    assert v0[:2] == v1[:2] and v0[2] != v1[2]  # siblings: levels 1..2 shared
    assert v0[0] != v4[0]  # opposite halves diverge at level 1
    assert v0[-1] == tree.leaf_key(0)
    with pytest.raises(IndexError):
        keytree.device_key_vector(tree, 8)


def test_header_construction(rng):
    tree = keytree.build_tree(256, 2, rng)
    nonce = rng.randbytes(12)
    header = keytree.build_header(keytree.device_key_vector(tree, 77), nonce)
    assert len(header) == 8 and sum(map(len, header)) == 128
    other = keytree.build_header(keytree.device_key_vector(tree, 77), rng.randbytes(12))
    assert all(a != b for a, b in zip(header, other))  # nonce enters every field
    # same half of the tree, same nonce: identical level-1 field
    h0 = keytree.build_header(keytree.device_key_vector(tree, 0), nonce)
    h1 = keytree.build_header(keytree.device_key_vector(tree, 1), nonce)
    assert h0[0] == h1[0]


def test_traversal_walkthrough_small_tree(rng):
    """Device 2 of 8 sits at path left, right, left; the binary walk needs
    one evaluation per level, three total."""
    tree = keytree.build_tree(8, 2, rng)
    nonce = rng.randbytes(12)
    header = keytree.build_header(keytree.device_key_vector(tree, 2), nonce)
    index, evals = keytree.retrieve_lkh(tree, header, nonce)
    assert index == 2
    assert evals <= 3


def test_traversal_all_devices_binary(rng):
    tree = keytree.build_tree(1024, 2, rng)
    for trial in range(100):
        nonce = rng.randbytes(12)
        device = rng.randrange(1024)
        header = keytree.build_header(keytree.device_key_vector(tree, device), nonce)
        index, evals = keytree.retrieve_lkh(tree, header, nonce)
        assert index == device
        assert evals <= tree.height


def test_traversal_eval_bound_p4(rng):
    tree = keytree.build_tree(256, 4, rng)
    for device in range(0, 256, 17):
        nonce = rng.randbytes(12)
        header = keytree.build_header(keytree.device_key_vector(tree, device), nonce)
        index, evals = keytree.retrieve_lkh(tree, header, nonce)
        assert index == device
        assert evals <= (4 - 1) * tree.height == 12


def test_traversal_header_depth_mismatch(rng):
    tree = keytree.build_tree(8, 2, rng)
    with pytest.raises(keytree.RetrievalError):
        keytree.retrieve_lkh(tree, [bytes(16)] * 5, rng.randbytes(12))


def test_cross_decryption_matrix(rng):
    """Exactly one leaf key opens any honest sealed response."""
    tree = keytree.build_tree(8, 2, rng)
    iv = rng.randbytes(12)
    for i in range(8):
        sealed = crypto.aead_seal(tree.leaf_key(i), iv, bytes(96))
        for j in range(8):
            if i == j:
                assert crypto.aead_open(tree.leaf_key(j), iv, sealed) == bytes(96)
            else:
                with pytest.raises(crypto.AeadAuthenticationError):
                    crypto.aead_open(tree.leaf_key(j), iv, sealed)


def _item(key, iv, ad=b""):
    return iv, crypto.aead_seal(key, iv, b"x", ad), ad


def test_naive_positions(rng):
    keys = [rng.randbytes(16) for _ in range(50)]
    iv = rng.randbytes(12)
    assert keytree.retrieve_naive(keys, [_item(keys[37], iv)]) == ([37], 38)
    assert keytree.retrieve_naive(keys[:1], [_item(keys[0], iv)]) == ([0], 1)
    assert keytree.retrieve_naive(keys, [_item(rng.randbytes(16), iv)]) == ([None], 50)


def test_naive_sweep_reports_every_other_payload(rng):
    keys = [rng.randbytes(16) for _ in range(50)]
    iv = rng.randbytes(12)
    hit, miss, last = _item(keys[12], iv, b"ad"), _item(rng.randbytes(16), iv), _item(keys[49], iv)
    items = [_item(keys[37], iv), hit, miss, last]
    assert keytree.retrieve_naive(keys, items) == ([37, 12, None, 49], 38 + 13 + 50 + 50)
    # Reported even when the first payload opens under no key.
    assert keytree.retrieve_naive(keys, [miss, hit, miss, last]) == ([None, 12, None, 49], 50 + 13 + 50 + 50)


def _first_by_aead_open(keys, iv, sealed, ad):
    for position, key in enumerate(keys):
        try:
            crypto.aead_open(key, iv, sealed, ad)
        except crypto.AeadAuthenticationError:
            continue
        return position
    return None


def test_naive_decrypts_are_the_decrypts_made(rng, aesgcm_counts):
    """The count equals the AES-GCM decrypts the sweep makes, and the
    positions equal a per-item `aead_open` loop's."""
    keys = [rng.randbytes(16) for _ in range(40)]
    iv = rng.randbytes(12)
    first, middle, last = (_item(keys[i], iv, b"ad") for i in (0, 20, 39))
    miss = _item(rng.randbytes(16), iv)
    for items in ([first, middle, last, miss, middle], [middle, first], [miss], [last], []):
        aesgcm_counts.clear()
        positions, decrypts = keytree.retrieve_naive(keys, items)
        assert decrypts == aesgcm_counts["decrypts"]
        assert positions == [_first_by_aead_open(keys, *item) for item in items]
    assert keytree.retrieve_naive(keys, [first, middle, last, miss, middle]) == (
        [0, 20, 39, None, 20], 1 + 21 + 40 + 40 + 21)


def test_naive_expected_trials_monte_carlo(rng):
    """Uniform target position: expected trials (n + 1) / 2, within 5 %."""
    n = 100
    keys = [rng.randbytes(16) for _ in range(n)]
    iv = rng.randbytes(12)
    total = 0
    runs = 1000
    for _ in range(runs):
        target = rng.randrange(n)
        _, trials = keytree.retrieve_naive(keys, [_item(keys[target], iv)])
        total += trials
    mean = total / runs
    assert mean == pytest.approx((n + 1) / 2, rel=0.05)


def test_header_uniform_length_across_devices(rng):
    tree = keytree.build_tree(100, 2, rng)  # padded to 128, height 7
    nonce = rng.randbytes(12)
    lengths = {
        len(b"".join(keytree.build_header(keytree.device_key_vector(tree, i), nonce)))
        for i in range(100)
    }
    assert lengths == {7 * 16}
