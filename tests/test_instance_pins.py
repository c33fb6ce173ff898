"""sha256 pins of the canonical instance bytes of the builders.

Instance files are compared byte for byte (``instance_digest``, golden
outputs), so a builder change that renumbers arrows of a global action, of
the Z-shift, of a pair groupoid, tree window, product or blow-up, or that
changes a tree window's graphing sidecar, must show here.
"""

import hashlib

import pytest

from grpdim import (
    action_groupoid,
    blowup,
    cyclic_table,
    pair_groupoid,
    partial_action_groupoid,
    product,
    replicate_psi,
    rotation_perms,
    save_graphing,
    tree_window,
    trivial_perms,
    z_shift_partial_spec,
)
from grpdim.builders import canonical_dumps, instance_to_obj

ACTION = {  # (group order, action, point count) -> digest
    (1, "rotation", 1): "cba8970717d7d9cff0a15a734ed6fb0743cfe05ca4254588e7a5e1eb31fff5be",
    (1, "rotation", 2): "91cfe76028aaec2bb61ad0d2196c4598f4751030e916e26f6a4bd64c59f660d1",
    (1, "trivial", 1): "cba8970717d7d9cff0a15a734ed6fb0743cfe05ca4254588e7a5e1eb31fff5be",
    (1, "trivial", 3): "242879d08538f05ff9260f135fc47ee405d4b2244e6446e754e47163729f71a7",
    (2, "rotation", 2): "2734bf87796d6ed79bc33b1ff89af8a53a5f61bab83d7c8ff28beebc8d426827",
    (2, "rotation", 4): "594cab0539af407debc326b075c699dc85deff0c770ba954ca4a42a33deae8c8",
    (2, "trivial", 1): "6314e9070380b87381771066683f85dec83f5d02245237517d73dd689ded1136",
    (2, "trivial", 3): "3f5b145596e8a3aa5058cb980a52fa504aec4eb93b29cf09930a77821fe4722d",
    (3, "rotation", 3): "b272938faaa9ae71bb81fb0d2510d8d6b3c5570aacdd33bd10c4b6c5d86a0bf0",
    (3, "rotation", 6): "a663530cf96ad64069c5c29773eba76a9fdd16485038bbb585beed36857346d3",
    (3, "trivial", 1): "f7146595aae2e3a5f031692dbe6bf5f5815d8a177e6c7702429dde9281f83405",
    (3, "trivial", 3): "c7977203209370a4b561d364832430238ba01c86c334fa6177ff0d3cd04ff335",
    (4, "rotation", 4): "4adf4adce33cecf5992ecfe3f7c8258afa35c9d0d59d118bab33837470d0d07b",
    (4, "rotation", 8): "707c7bf7e0cab102696fb8943a0f3ef4ace7b72e2371d3d158e87b4f147daf8a",
    (4, "trivial", 1): "6f0efc97e2132b3cd0b287be55469b67c5d77568fd55ab9980f5befd6781340f",
    (4, "trivial", 3): "373d45a3c597c810a060be0e6ad9225909612ac9b8009e21518b3423c412f268",
    (5, "rotation", 5): "7fa153bee56a934ee6e5e978186e6d24455a0abaf375d4618202da2774e40afe",
    (5, "rotation", 10): "e2a23b8c72043a1cd3d19bf812947c160982070af0a6d059ced3ee26caa69ba9",
    (5, "trivial", 1): "1c9116e4504dd4c67625a4e1957a64aabc4dbcce71ec30d7e3f438855231ba09",
    (5, "trivial", 3): "fa1548a6a9477c98a5acb262fb883c2169f2e223602aa582bf51b2bc051a05ae",
    (6, "rotation", 6): "0dbeee3cc6b245873379b40cf409f9e2a88646a4a279dadb72eeea8da73428e8",
    (6, "rotation", 12): "873794b26ce2da7a97fcef53feacc84deef8a79fa91911b9719e2612a24bad12",
    (6, "trivial", 1): "82dc55ddc15505c0f5e1b29e9a922c78c3d4375537c60b7afcef5655fe26deb5",
    (6, "trivial", 3): "fda76cd89824631ed6f091b32c5cc4c0464bda5d9e3d7be9fa60af3fcf1fb3e5",
    (7, "rotation", 7): "9c5174bce064b08421d5177c47ea090eba7cc643510762383f38dec846385e43",
    (7, "rotation", 14): "fb4d1648d78af42030a5f8f3f77c58f757cc447e07edfff95c2e96f9a1715c4d",
    (7, "trivial", 1): "5bd9552c7ae0aba73959ef4d9e8e7145cf1280ca0dc211785cfb6c0e1a685252",
    (7, "trivial", 3): "c20ae06100fef0c257381c4b367edd29d372f9282aa5d53cbc62748eda8eef31",
    (8, "rotation", 8): "20eedfe3cd09b8cd5addc928e415cf789604616327bcc033ea740bac0ac7e4ce",
    (8, "rotation", 16): "b9464b0d331a331d0ff88b338348b60e543d2b94e0bfe41a776794cd0c170c82",
    (8, "trivial", 1): "1b46c0fa1d41dd673fa867783468f31f0cb6de2ca3069e80b013d43641bbe90c",
    (8, "trivial", 3): "0e52b63e02a711fd96de802d17e371e47061ee4824c8266752faa5582a14ca26",
}
ZSHIFT = {  # window size -> digest
    1: "cba8970717d7d9cff0a15a734ed6fb0743cfe05ca4254588e7a5e1eb31fff5be",
    2: "2734bf87796d6ed79bc33b1ff89af8a53a5f61bab83d7c8ff28beebc8d426827",
    3: "7b1a5ea0bd717c5406fa6c0e9f6309d2cfd98813ad7ce5b93bb127af6c811157",
    4: "7d3fef51adb734b6c18dd439454c12d22585a7acaf5e6956b54c19209885b28d",
    5: "db8fbe850108caa1653cfc4442edc36181e089f8e4fc911c570740f5cc696fc0",
    6: "71518d338644a88668e7eabdcd5e3d27382407a8808a374c2ad0518b2f4f650e",
    7: "16adf1e4a3791be1dc53f5cd61d85c8c88d1ae3c21955a472fb7870114460702",
    8: "537f89b6098d40eba72a1a7924464f32ebed053d19ae58801ab87c10bf1ac1b8",
    9: "28cc051ae4a4ce8e99b38488d4b9ebfa34950aa815b143b82efcc733953fc44b",
    10: "d5f2a5dfe0caff4dbe918797c9411ee6101827d477273ad3a28bd3856862a300",
    11: "50b6da9ae5bfd4b0cf3e0fb2fcc3ac872876fd293147d8159a41c00baf2bcb21",
    12: "92e909e0574e55a59387c47c58d14ab6b4daab6e59d5edc51f1f0447ce429849",
}

PAIR = {  # unit count -> digest
    1: "cba8970717d7d9cff0a15a734ed6fb0743cfe05ca4254588e7a5e1eb31fff5be",
    2: "e716b50517981ebc43f0a2462efed94b8f330b2a76779e7dd6159a61ae996192",
    3: "e35a20d846850fc54e89b7118aa2a664adabc88c2425228e215f77464b20affa",
    4: "ea7b14f97bd4e541bd8dd87ba204ce57740495dc43a9cfc28ad75303198c11ee",
    5: "dce913bdd516a65bd89c8abec6922810ad1130c1169d0d7ff7cc89b10f492d7c",
    6: "4cf3d56e4e527a6a67eb8148d87398f91a01c0d86eb9b082a9d5fce24c6a7e9d",
}
TREE = {  # (shape, size) -> (instance digest, graphing sidecar digest)
    ("binary", 0): (
        "cba8970717d7d9cff0a15a734ed6fb0743cfe05ca4254588e7a5e1eb31fff5be",
        "0ac9f00de6e9a0ea897fe87df102a2f91d16d79234ae0b5ef6f16da3a835e05c",
    ),
    ("binary", 1): (
        "e35a20d846850fc54e89b7118aa2a664adabc88c2425228e215f77464b20affa",
        "d7c67afa8f0c31f953890c75a072eff7f093f5e24c660c9905205dc315000503",
    ),
    ("binary", 2): (
        "0cd6859e7ecb736549542752eaea7a36abd5a82ca492518ee91d0ddd3489e223",
        "9a2269296032e5608d2ccebfda0b8788f8e2358354f7fca7a3f9290b03f10d83",
    ),
    ("binary", 3): (
        "cb5ad9553d8496ccd12e23e59caa62e6c3f1ff90088263d38397d6f2c0b4d76f",
        "2454acf9356b23f0b8ebf7a70333284ae97a4bdb64a8006cb5f541bc429ffb75",
    ),
    ("path", 1): (
        "cba8970717d7d9cff0a15a734ed6fb0743cfe05ca4254588e7a5e1eb31fff5be",
        "0ac9f00de6e9a0ea897fe87df102a2f91d16d79234ae0b5ef6f16da3a835e05c",
    ),
    ("path", 2): (
        "e716b50517981ebc43f0a2462efed94b8f330b2a76779e7dd6159a61ae996192",
        "e3e4202b1d996cc1afa5f4289cc7b9e282ac6622570ab3c9f48ec21333f721b4",
    ),
    ("path", 3): (
        "e35a20d846850fc54e89b7118aa2a664adabc88c2425228e215f77464b20affa",
        "0092e0b4242dd21e3bcfb8f686e7ea7d12c42223f761395551ea55202642f7a4",
    ),
    ("path", 4): (
        "ea7b14f97bd4e541bd8dd87ba204ce57740495dc43a9cfc28ad75303198c11ee",
        "12d0ee04f1914f79e25f87e6c9979f688038ca3c1615d7fabe2362cf29fcf944",
    ),
    ("path", 5): (
        "dce913bdd516a65bd89c8abec6922810ad1130c1169d0d7ff7cc89b10f492d7c",
        "1c156b003d55d294dde79550d26620ce3e666a6897802e80e1ab577104d62d85",
    ),
    ("path", 6): (
        "4cf3d56e4e527a6a67eb8148d87398f91a01c0d86eb9b082a9d5fce24c6a7e9d",
        "55cf5da668539188259dc7cb92a09b819326fa716148273dd4feb7bf44545a62",
    ),
    ("path", 7): (
        "0cd6859e7ecb736549542752eaea7a36abd5a82ca492518ee91d0ddd3489e223",
        "ad1098bef6321b44862e63b94e4acdc1f025a2334386e55f044531c635824989",
    ),
    ("path", 8): (
        "58fec205e83a1435354168f11dc60276ed5a7edc23b9d014905175e812987643",
        "be7d64fefbd0e812f44e155f55be6b52841d2b4bf8f7859c693dee3fd598779c",
    ),
}
PATH5_SQUARED = "e0bfe9fba5f545a7ad64a7dc83b3a8de146e258e3c273780965a516db08b2663"
PAIR3_TIMES_Z3 = "d5e791f9751c8819e07861668f6803c41f385815d6664a807d4a8c7a2e8179eb"  # Z/3 rotating 3 points
BLOWUP_PATH10_TWICE = "9058cee2b6f26b7dcf5d629285d59a1c5f8f5d42d9a66f8011b38c3e23a0111d"


def digest(g) -> str:
    return hashlib.sha256(canonical_dumps(instance_to_obj(g)).encode()).hexdigest()


@pytest.mark.parametrize("k, kind, n", sorted(ACTION))
def test_action_groupoid_bytes_are_pinned(k, kind, n):
    perms = rotation_perms(k, n) if kind == "rotation" else trivial_perms(k, n)
    assert digest(action_groupoid(cyclic_table(k), perms)) == ACTION[k, kind, n]


@pytest.mark.parametrize("n", sorted(ZSHIFT))
def test_z_shift_bytes_are_pinned(n):
    assert digest(partial_action_groupoid(z_shift_partial_spec(n))) == ZSHIFT[n]


@pytest.mark.parametrize("n", sorted(PAIR))
def test_pair_groupoid_bytes_are_pinned(n):
    assert digest(pair_groupoid(n)) == PAIR[n]


@pytest.mark.parametrize("shape, size", sorted(TREE))
def test_tree_window_and_sidecar_bytes_are_pinned(shape, size, tmp_path):
    g, graphing = tree_window(shape, size)
    save_graphing(graphing, tmp_path / "q.json")
    sidecar = hashlib.sha256((tmp_path / "q.json").read_bytes()).hexdigest()
    assert (digest(g), sidecar) == TREE[shape, size]


def test_product_bytes_are_pinned():
    p5 = tree_window("path", 5)[0]
    z3 = action_groupoid(cyclic_table(3), rotation_perms(3, 3))
    assert digest(product(p5, p5).groupoid) == PATH5_SQUARED
    assert digest(product(pair_groupoid(3), z3).groupoid) == PAIR3_TIMES_Z3


def test_blowup_bytes_are_pinned():
    p10 = tree_window("path", 10)[0]
    assert digest(blowup(p10, replicate_psi(p10, 2)).groupoid) == BLOWUP_PATH10_TWICE
