"""Set-builder mini-language for window and bound specs on the CLI.

Forms: ``units``, ``all``, ``ball:R`` (R-ball of a declared graphing), and
``power:K:N`` (N-th power of the window bound to the name ``K``).
"""

from __future__ import annotations

from .graphing import Graphing
from .groupoid import ArrowSet, Groupoid, GroupoidError, power


class SpecError(GroupoidError):
    pass


def parse_arrow_spec(
    g: Groupoid,
    text: str,
    k_set: "ArrowSet | None" = None,
    graphing: "Graphing | None" = None,
) -> ArrowSet:
    parts = text.strip().split(":")
    head = parts[0]
    if head == "units" and len(parts) == 1:
        return ArrowSet(g, g.units_mask)
    if head == "all" and len(parts) == 1:
        return g.all_arrows()
    if head == "ball" and len(parts) == 2:
        if graphing is None:
            raise SpecError(f"spec {text!r} needs a graphing (--graphing)")
        if graphing.owner is not g:
            raise SpecError("graphing belongs to a different groupoid")
        try:
            radius = int(parts[1])
        except ValueError:
            raise SpecError(f"bad ball radius in {text!r}") from None
        if radius < 0:
            raise SpecError("ball radius must be nonnegative")
        return graphing.ball(radius)
    if head == "power" and len(parts) == 3 and parts[1] == "K":
        if k_set is None:
            raise SpecError(f"spec {text!r} refers to K outside an l-spec")
        try:
            exponent = int(parts[2])
        except ValueError:
            raise SpecError(f"bad exponent in {text!r}") from None
        if exponent < 0:
            raise SpecError("power exponent must be nonnegative")
        return power(k_set, exponent)
    raise SpecError(f"unrecognized set spec {text!r}")
