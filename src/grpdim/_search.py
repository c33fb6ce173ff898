"""Shared exact/greedy search for assigning items to classes.

``class_search`` is the one engine: items are assigned to classes one by
one in increasing id, and a caller-supplied transition says whether a class
takes an item.  ``partition_search`` gives it mergeable components: within a
class, items form components under an adjacency relation, and a component is
feasible while it stays inside the common compatibility mask of its members
(principal dad search: window and bound arrows; coarse decompositions: E and
F).  ``dad._generic_search`` gives it generated subgroupoids, for groupoids
with isotropy.

Exact mode explores partitions in lexicographic order with classes
canonicalized by first use, so the returned assignment is the minimum of the
search order and independent of everything but the inputs.  Greedy mode is a
single first-fit pass: sound, incomplete.
"""

from __future__ import annotations

from typing import Sequence

# per-class state: (items_mask, components) where each component is
# (member_mask, common_mask) and common_mask = intersection of ok[] members


def _try_add(state, item, adj, ok):
    items, comps = state
    nbr = adj[item] & items
    new_mask = 1 << item
    new_common = ok[item]
    rest = []
    for cmask, ccommon in comps:
        if cmask & nbr:
            new_mask |= cmask
            new_common &= ccommon
        else:
            rest.append((cmask, ccommon))
    if new_mask & ~new_common:
        return None
    rest.append((new_mask, new_common))
    return (items | 1 << item, tuple(rest))


def _state_key(states, near, future, width):
    """Injective encoding of what ``states`` leaves for the unassigned items.

    ``future`` is F, the unassigned items, and ``near`` is N(F), the items
    adjacent to some item of F.  A live component (members meeting
    ``near``) becomes one int of three ``width``-bit fields: ``members &
    near``, ``common & F`` and the union of ``members & near`` over the live
    components of its class it may merge with (``members_i <= common_j``,
    itself included).  A class packs its sorted component ints into one int;
    the first field of each is nonzero, so the bit length splits it back.
    Classes are interchangeable, so the key is their sorted ints.
    """
    shift = 3 * width
    keys = []
    for _, comps in states:
        live = [(m, q) for m, q in comps if m & near]
        recs = []
        for m, q in live:
            compat = 0
            for m2, q2 in live:
                if not m & ~q2:
                    compat |= m2
            recs.append(((m & near) << width | q & future) << width | compat & near)
        recs.sort()
        key = 0
        for r in recs:
            key = key << shift | r
        keys.append(key)
    keys.sort()
    return tuple(keys)


def partition_search(
    n_items: int,
    n_classes: int,
    adj: Sequence[int],
    ok: Sequence[int],
    mode: str = "exact",
):
    """Partition items into feasible classes; returns per-class states or None.

    Each returned class is a pair ``(items_mask, components)`` with the
    components listed as ``(member_mask, common_mask)`` pairs.

    Exact mode is a depth-first search on an explicit stack, so its depth is
    not bounded by the recursion limit.  It requires ``adj`` and ``ok`` to be
    symmetric (both callers ensure it: L is oc-normal, gauges are checked).
    When every child of a node has failed, the node's key is stored; a node
    whose key is stored is not entered.  With F the unassigned items, the key
    holds the item index (one store per depth) and, per class, the components
    with a neighbour in F as ``(members & N(F), common & F)`` with their
    pairwise mergeability bits ``members_i <= common_j``; classes are sorted
    (``_state_key`` gives the encoding).  That is everything the future can
    see: an item y in F joins a component iff it is adjacent to ``members &
    N(F)``, and the merged component stays feasible iff y lies in every
    ``common & F`` (by symmetry of ``ok``, ``members <= ok[y]`` iff ``y in
    common``) and the merged old members are pairwise mergeable.
    Components without a neighbour in F never change again, and an empty
    class acts like a class of such components.  The key is exact, never a
    hash, so a stored key proves that its subtree has no solution.  Only
    failures are stored, so the first solution reached, the least one in
    the search order, is the same as without the cache.
    """
    near = [0] * (n_items + 1)
    for item in range(n_items - 1, -1, -1):
        near[item] = near[item + 1] | adj[item]
    full = (1 << n_items) - 1

    def key_at(states, item):
        return _state_key(states, near[item], full >> item << item, n_items)

    try_add = _try_add  # looked up per call, so a replaced _try_add is used
    return class_search(
        n_items, n_classes, (0, ()), lambda s, item: try_add(s, item, adj, ok), mode, key_at
    )


def class_search(n_items, n_classes, empty, try_add, mode="exact", key_at=None):
    """Assign items 0..n-1 to ``n_classes`` classes; the class states or None.

    Classes start as ``empty``; ``try_add(state, item)`` returns the state
    with ``item`` added, or None if the class refuses it.  Exact mode is a
    depth-first search on an explicit stack, so its depth is not bounded by
    the recursion limit.  ``key_at(states, item)``, if given, is an exact key
    of what ``states`` leaves for items ``item..n-1``: when every child of a
    node has failed, its key is stored, and a node whose key is stored is not
    entered.  Without ``key_at`` nothing is stored.
    """
    states = [empty] * n_classes
    if mode == "greedy":
        for item in range(n_items):
            for c in range(n_classes):
                ns = try_add(states[c], item)
                if ns is not None:
                    states[c] = ns
                    break
            else:
                return None
        return states

    if mode != "exact":
        raise ValueError(f"unknown search mode: {mode!r}")

    failed = [set() for _ in range(n_items + 1)]
    # one frame per assigned depth: [states, classes used, next class, key];
    # a key is computed on entry if its depth has a stored key, else on failure
    stack = [[states, 0, 0, None]]
    while stack:
        frame = stack[-1]
        states, used, c, key = frame
        item = len(stack) - 1
        if item == n_items:
            return states
        limit = min(used + 1, n_classes)
        while c < limit:
            ns = try_add(states[c], item)
            c += 1
            if ns is None:
                continue
            nxt = list(states)
            nxt[c - 1] = ns
            child_key = None
            if failed[item + 1]:
                child_key = key_at(nxt, item + 1)
                if child_key in failed[item + 1]:
                    continue
            frame[2] = c
            stack.append([nxt, used + 1 if c - 1 == used else used, 0, child_key])
            break
        else:
            if key_at is not None:
                failed[item].add(key_at(states, item) if key is None else key)
            stack.pop()
    return None
