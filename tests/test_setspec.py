import re

import pytest

from grpdim import GroupoidError, power, tree_window
from grpdim.setspec import parse_arrow_spec


@pytest.fixture(scope="module")
def path5():
    return tree_window("path", 5)


@pytest.fixture(scope="module")
def k_set(path5):
    g, graphing = path5
    return graphing.ball(1)


def test_each_form_names_its_set(path5, k_set):
    g, graphing = path5
    assert parse_arrow_spec(g, "units") == g.arrow_set(range(g.n_units))
    assert parse_arrow_spec(g, "all") == g.all_arrows()
    assert parse_arrow_spec(g, " all ") == g.all_arrows()
    for r in range(6):
        assert parse_arrow_spec(g, f"ball:{r}", graphing=graphing) == graphing.ball(r)
    for n in range(4):
        assert parse_arrow_spec(g, f"power:K:{n}", k_set=k_set) == power(k_set, n)


@pytest.mark.parametrize("text, message, uses", [
    ("ball:1", "spec 'ball:1' needs a graphing (--graphing)", ()),
    ("ball:1", "graphing belongs to a different groupoid", ("other",)),
    ("ball:x", "bad ball radius in 'ball:x'", ("graphing",)),
    # a negative radius or exponent is refused by ball and power themselves
    ("ball:-1", "ball radius must be nonnegative", ("graphing",)),
    ("power:K:2", "spec 'power:K:2' refers to K outside an l-spec", ()),
    ("power:K:x", "bad exponent in 'power:K:x'", ("k",)),
    ("power:K:-1", "power exponent must be nonnegative", ("k",)),
    ("foo", "unrecognized set spec 'foo'", ()),
    ("units:1", "unrecognized set spec 'units:1'", ()),
    ("power:L:2", "unrecognized set spec 'power:L:2'", ("k",)),
])
def test_each_refusal_is_a_groupoid_error(path5, k_set, text, message, uses):
    g, graphing = path5
    kwargs = {}
    if "graphing" in uses:
        kwargs["graphing"] = graphing
    if "other" in uses:
        kwargs["graphing"] = tree_window("path", 5)[1]
    if "k" in uses:
        kwargs["k_set"] = k_set
    with pytest.raises(GroupoidError, match=f"^{re.escape(message)}$"):
        parse_arrow_spec(g, text, **kwargs)
