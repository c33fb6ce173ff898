"""Shared exact/greedy search for assigning items to classes.

``class_search`` is the one engine: items are assigned to classes one by
one in a given item order, and a caller-supplied transition says whether a
class takes an item.  ``partition_search`` gives it mergeable components:
within a class, items form components under an adjacency relation, and a
component is feasible while it stays inside the common compatibility mask of
its members (principal dad search: window and bound arrows; coarse
decompositions: E and F).  ``dad._generic_search`` gives it unit masks
as class states, feasible while the subgroupoid the window generates on the
class stays inside L, for groupoids with isotropy; ``dad.kl_dad_search``
runs it only at a d that ``partition_search`` on the principal shadow
(units joined by the window, bounded by where L's arrows go) cannot refute.

Exact mode first runs in ``compact_order`` of the adjacency graph, so a
refutation costs what the instance needs and not what its item ids happen
to be.  Only when that run finds a solution does a second run go in
increasing id, exploring partitions in lexicographic order with classes
canonicalized by first use: the returned assignment is still the minimum of
that order and independent of everything but the inputs.  Greedy mode is
the first descent of the same search in increasing id, given up at its
first dead end: sound, incomplete.
"""

from __future__ import annotations

import heapq
from typing import Sequence

from .groupoid import iter_bits

# per-class search state: (items_mask, live components) where each component
# is (member_mask, common_mask), common_mask = intersection of ok[] members,
# and a component is live while a member has an unplaced neighbour


def compact_order(n: int, adj: Sequence[int]) -> list[int]:
    """Items 0..n-1 in a frontier-compact order of the graph ``adj``.

    The frontier is the set of placed items that still have an unplaced
    neighbour.  A component starts at a least-degree item (least id among
    ties); then the next item is the unplaced neighbour of the placed set
    whose placement least grows the frontier, ties going to the one with the
    oldest placed neighbour, then to the least id.  A component is finished
    before the next starts.  Self-loops are ignored.

    Placing v grows the frontier by [v has an unplaced neighbour] minus the
    placed items whose last unplaced neighbour is v.  Both terms only shrink
    the growth while v waits, so a heap with stale entries skipped gives
    O((n + m) log n) steps for m edges.
    """
    nbrs = [adj[v] & ~(1 << v) for v in range(n)]
    if not any(nbrs):
        return list(range(n))
    left = [row.bit_count() for row in nbrs]  # unplaced neighbours
    leaving = [0] * n  # placed items whose last unplaced neighbour it is
    oldest = [-1] * n  # position of the oldest placed neighbour
    placed = bytearray(n)
    unplaced = (1 << n) - 1
    order: list[int] = []
    heap: list[tuple[int, int, int]] = []

    def growth(v):
        return (left[v] > 0) - leaving[v]

    def push_last_unplaced(u):
        y = (nbrs[u] & unplaced).bit_length() - 1
        leaving[y] += 1
        heapq.heappush(heap, (growth(y), oldest[y], y))

    for v in sorted(range(n), key=left.__getitem__):  # stable: ties by id
        while not placed[v]:
            pos = len(order)
            order.append(v)
            placed[v] = 1
            unplaced ^= 1 << v
            for x in iter_bits(nbrs[v]):
                left[x] -= 1
                if not placed[x]:
                    if oldest[x] < 0:
                        oldest[x] = pos
                    heapq.heappush(heap, (growth(x), oldest[x], x))
                elif left[x] == 1:
                    push_last_unplaced(x)
            if left[v] == 1:
                push_last_unplaced(v)
            while heap:
                g, _, x = heapq.heappop(heap)
                if not placed[x] and g == growth(x):
                    v = x
                    break
    return order


def _try_add(state, item, adj, ok, near):
    """Class ``state`` with ``item`` added, or None if a component breaks.

    ``near`` holds the items with an unplaced neighbour once ``item`` is
    placed; a component with no member in it can never merge again, so it
    is dropped from the state (``_components`` rebuilds it at the end).
    """
    items, comps = state
    nbr = adj[item] & items
    new_mask = 1 << item
    new_common = ok[item]
    rest = []
    for cmask, ccommon in comps:
        if cmask & nbr:
            new_mask |= cmask
            new_common &= ccommon
        elif cmask & near:
            rest.append((cmask, ccommon))
    if new_mask & ~new_common:
        return None
    if new_mask & near:
        rest.append((new_mask, new_common))
    return (items | 1 << item, tuple(rest))


def _components(items, adj, ok):
    """The ``(member_mask, common_mask)`` components of a class, by greatest
    member: the order in which an id-order search last changed them."""
    comps = []
    rest = items
    while rest:
        mask = grow = 1 << rest.bit_length() - 1
        while grow:
            reach = 0
            for x in iter_bits(grow):
                reach |= adj[x]
            grow = reach & rest & ~mask
            mask |= grow
        rest &= ~mask
        common = -1
        for x in iter_bits(mask):
            common &= ok[x]
        comps.append((mask, common))
    return tuple(reversed(comps))


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
    order: "Sequence[int] | None" = None,
):
    """Partition items into feasible classes; returns per-class states or None.

    Each returned class is a pair ``(items_mask, components)`` with the
    components listed as ``(member_mask, common_mask)`` pairs, ordered by
    greatest member.

    Exact mode searches in ``order`` (default ``compact_order(n_items,
    adj)``; pass it to reuse one order across several ``n_classes``) and
    returns None if that finds nothing.  Otherwise it searches again in
    increasing id and returns that run's first solution, the least
    partition in lexicographic order.  Greedy mode is the first descent of
    the id-order search, and returns None at its first dead end.

    Exact mode is a depth-first search on an explicit stack, so its depth is
    not bounded by the recursion limit.  It requires ``adj`` and ``ok`` to be
    symmetric (both callers ensure it: L is oc-normal, and ``ef_asdim_search``
    checks its E and F rows).
    When every child of a node has failed, the node's key is stored; a node
    whose key is stored is not entered.  With F the unassigned items, the key
    holds the depth (one store per depth) and, per class, the components
    with a neighbour in F as ``(members & N(F), common & F)`` with their
    pairwise mergeability bits ``members_i <= common_j``; classes are sorted
    (``_state_key`` gives the encoding).  That is everything the future can
    see: an item y in F joins a component iff it is adjacent to ``members &
    N(F)``, and the merged component stays feasible iff y lies in every
    ``common & F`` (by symmetry of ``ok``, ``members <= ok[y]`` iff ``y in
    common``) and the merged old members are pairwise mergeable.
    Components without a neighbour in F never change again, so the state
    does not carry them, and an empty class acts like a class of such
    components.  None of this depends on the item order.  The key is exact,
    never a hash, so a stored key proves that its subtree has no solution.
    Only failures are stored, so the first solution reached, the least one
    in the search order, is the same as without the cache.
    """
    try_add = _try_add  # looked up per call, so a replaced _try_add is used

    def run(items):
        near = [0] * (n_items + 1)  # near[i] = N(F) for F = items[i:]
        future = [0] * (n_items + 1)
        after = [0] * n_items  # N(F) once an item is placed
        for i in range(n_items - 1, -1, -1):
            item = items[i]
            after[item] = near[i + 1]
            near[i] = near[i + 1] | adj[item]
            future[i] = future[i + 1] | 1 << item

        def key_at(states, depth):
            return _state_key(states, near[depth], future[depth], n_items)

        return class_search(
            items,
            n_classes,
            (0, ()),
            lambda s, item: try_add(s, item, adj, ok, after[item]),
            mode,
            key_at,
        )

    if mode == "exact" and order is None:
        order = compact_order(n_items, adj)
    states = refute_then_witness(run, n_items, order, mode)
    if states is None:
        return None
    return [(items, _components(items, adj, ok)) for items, _ in states]


def refute_then_witness(run, n_items, order, mode):
    """``run(items)`` searches in the item order ``items``.  Exact mode runs
    it in ``order`` first and stops there if that finds nothing; a solution
    always comes from the run in increasing id."""
    ids = range(n_items)
    if mode == "exact" and list(order) != list(ids) and run(order) is None:
        return None
    return run(ids)


def class_search(order, n_classes, empty, try_add, mode="exact", key_at=None):
    """Assign the items of ``order``, in that order, to ``n_classes`` classes;
    the class states or None.

    Classes start as ``empty``; ``try_add(state, item)`` returns the state
    with ``item`` added, or None if the class refuses it.  Exact mode is a
    depth-first search on an explicit stack, so its depth is not bounded by
    the recursion limit; the first solution it reaches is the least in the
    lexicographic order of class choices along ``order``, with classes
    canonicalized by first use.  ``key_at(states, depth)``, if given, is an
    exact key of what ``states`` leaves for the items ``order[depth:]``: when
    every child of a node has failed, its key is stored, and a node whose
    key is stored is not entered.  Without ``key_at`` nothing is stored.

    Greedy mode gives up at the first node whose children all fail, so it
    follows the first descent only: each item goes to the first class that
    takes it.  That is first fit over all ``n_classes`` classes, because
    ``try_add`` is pure and every class past the used ones is ``empty``.
    """
    if mode not in ("exact", "greedy"):
        raise ValueError(f"unknown search mode: {mode!r}")
    n_items = len(order)
    failed = [set() for _ in range(n_items + 1)]
    # one frame per assigned depth: [states, classes used, next class, key];
    # a key is computed on entry if its depth has a stored key, else on failure
    stack = [[[empty] * n_classes, 0, 0, None]]
    while stack:
        frame = stack[-1]
        states, used, c, key = frame
        depth = len(stack) - 1
        if depth == n_items:
            return states
        item = order[depth]
        limit = min(used + 1, n_classes)
        while c < limit:
            ns = try_add(states[c], item)
            c += 1
            if ns is None:
                continue
            nxt = list(states)
            nxt[c - 1] = ns
            child_key = None
            if failed[depth + 1]:
                child_key = key_at(nxt, depth + 1)
                if child_key in failed[depth + 1]:
                    continue
            frame[2] = c
            stack.append([nxt, used + 1 if c - 1 == used else used, 0, child_key])
            break
        else:
            if mode == "greedy":
                return None
            if key_at is not None:
                failed[depth].add(key_at(states, depth) if key is None else key)
            stack.pop()
    return None
