"""Outside-in tracer for grpdim: wraps public functions, records spans and counts.

The tracer never edits the program. It replaces each traced function in
*every* grpdim module namespace that holds it, because ``from .groupoid
import generated`` binds the same function separately in ``dad``, ``coarse``
and ``covers``; wrapping only the defining module would miss those calls.
A traced name that no longer exists raises ``TracerError``, so a later rename
shows up as an error and never as a silent zero.

Spans carry (id, name, start, end, parent id, op id) and are kept in memory
until the caller writes them out. Self time is a span's duration minus the
durations of its direct children. Calls are assumed to come from one thread,
which holds because the benchmark refuses to run with ``GRPDIM_WORKERS`` set.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

MODULES = (
    "grpdim",
    "grpdim._search",
    "grpdim.groupoid",
    "grpdim.covers",
    "grpdim.dad",
    "grpdim.coarse",
    "grpdim.builders",
    "grpdim.setspec",
    "grpdim.pipelines",
    "grpdim.cli",
)

# (layer, module, function): each call becomes a span named after the layer.
SPANS = (
    ("groupoid.validate", "grpdim.groupoid", "validate"),
    ("groupoid.generated", "grpdim.groupoid", "generated"),
    ("groupoid.compose_sets", "grpdim.groupoid", "compose_sets"),
    ("groupoid.power", "grpdim.groupoid", "power"),
    ("groupoid.restrict", "grpdim.groupoid", "restrict"),
    ("builders.load", "grpdim.builders", "load"),
    ("builders.save", "grpdim.builders", "save"),
    ("builders.construct", "grpdim.builders", "pair_groupoid"),
    ("builders.construct", "grpdim.builders", "tree_window"),
    ("builders.construct", "grpdim.builders", "product"),
    ("builders.construct", "grpdim.builders", "blowup"),
    ("builders.construct", "grpdim.builders", "action_groupoid"),
    ("builders.construct", "grpdim.builders", "partial_action_groupoid"),
    ("dad.kl_dad_search", "grpdim.dad", "kl_dad_search"),
    ("dad.kl_dad_check", "grpdim.dad", "kl_dad_check"),
    ("dad.transfers", "grpdim.dad", "glue_two"),
    ("dad.transfers", "grpdim.dad", "glue_chain"),
    ("dad.transfers", "grpdim.dad", "union_combine"),
    ("dad.transfers", "grpdim.dad", "product_combine"),
    ("dad.transfers", "grpdim.dad", "pullback_witness"),
    ("dad.transfers", "grpdim.dad", "blowup_lift"),
    ("dad.transfers", "grpdim.dad", "blowup_transfer"),
    ("dad.transfers", "grpdim.dad", "discover_control_function"),
    ("covers.ostrand_lift", "grpdim.covers", "ostrand_lift"),
    ("covers.control_apply", "grpdim.covers", "control_apply"),
    ("coarse.treeable_cover", "grpdim.coarse", "treeable_cover"),
    ("coarse.dad_to_asdim", "grpdim.coarse", "dad_to_asdim"),
    ("coarse.asdim_fiber_decompositions", "grpdim.coarse", "asdim_fiber_decompositions"),
    ("coarse.asdim_to_dad", "grpdim.coarse", "asdim_to_dad"),
    ("coarse.ef_asdim_search", "grpdim.coarse", "ef_asdim_search"),
    ("coarse.ef_asdim_check", "grpdim.coarse", "ef_asdim_check"),
    ("coarse.gauge", "grpdim.coarse", "gauge_from"),
    ("coarse.gauge", "grpdim.coarse", "fiber_gauge"),
    ("pipelines.product", "grpdim.pipelines", "product_theorem"),
    ("pipelines.union", "grpdim.pipelines", "union_theorem"),
    ("pipelines.morita", "grpdim.pipelines", "morita_theorem"),
    ("pipelines.bridge", "grpdim.pipelines", "bridge_theorem"),
    ("pipelines.sweep", "grpdim.pipelines", "sweep_rows"),
)

# (layer, module, class, method): spans on a method, patched on the class.
METHOD_SPANS = (("coarse.graphing", "grpdim.coarse", "Graphing", "__init__"),)

# (counter, module, function): hot inner functions get a call count only,
# plus a reject count when the function signals a rejected state with None.
COUNTERS = (
    ("search.nodes", "grpdim._search", "_try_add"),
    ("search.generic_nodes", "grpdim.dad", "_generic_try_add"),
    ("search.d_tried", "grpdim._search", "partition_search"),
    ("search.d_tried", "grpdim.dad", "_generic_search"),
)
REJECTING = ("search.nodes", "search.generic_nodes")

# layers whose call counts are reported, and those whose file sizes are
CALLS = ("groupoid.validate", "groupoid.generated", "dad.kl_dad_search", "dad.kl_dad_check")
BYTES = ("builders.load", "builders.save")

CLI_COMMAND = "cli.command"


class TracerError(RuntimeError):
    """A traced name is missing from the program."""


def _path_arg(layer, args):
    """The file argument of load(path) / save(g, path)."""
    return args[0] if layer == "builders.load" else args[1]


class Tracer:
    """Installs the wrappers and holds what they record until ``take``."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op = None
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _span(self, layer, fn):
        tracer = self
        measure_bytes = layer in BYTES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += end - start
                tracer.spans.append(
                    (span_id, layer, start, end, parent, tracer.op, end - start - frame[1])
                )
                tracer.counts[layer + ".calls"] += 1
                if measure_bytes:
                    path = _path_arg(layer, args)
                    if os.path.exists(path):
                        tracer.counts[layer + ".bytes"] += os.path.getsize(path)

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts
        if name in REJECTING:
            rejects = name + ".rejects"

            @functools.wraps(fn)
            def wrapper(*args):
                counts[name] += 1
                res = fn(*args)
                if res is None:
                    counts[rejects] += 1
                return res

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced name in every grpdim namespace that binds it.

        On a missing name nothing stays wrapped and ``TracerError`` is raised.
        """
        try:
            self._install()
        except TracerError:
            self.uninstall()
            raise

    def _install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for layer, mod, attr in SPANS:
            self._replace(modules, mod, attr, lambda fn, layer=layer: self._span(layer, fn))
        for name, mod, attr in COUNTERS:
            self._replace(modules, mod, attr, lambda fn, name=name: self._counter(name, fn))
        for layer, mod, cls_name, meth in METHOD_SPANS:
            cls = _lookup(sys.modules[mod], cls_name, mod)
            orig = _lookup(cls, meth, f"{mod}.{cls_name}")
            setattr(cls, meth, self._span(layer, orig))
            self._undo.append((cls, meth, orig))
        main = _lookup(sys.modules["grpdim.cli"], "main", "grpdim.cli")
        commands = getattr(main, "commands", None)
        if not commands:
            raise TracerError("grpdim.cli.main has no subcommands to trace")
        for cmd in commands.values():
            orig = cmd.callback
            cmd.callback = self._span(CLI_COMMAND, orig)
            self._undo.append((cmd, "callback", orig))

    def _replace(self, modules, mod, attr, make):
        orig = _lookup(sys.modules[mod], attr, mod)
        wrapper = make(orig)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, name, wrapper)
                    self._undo.append((module, name, orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, orig = self._undo.pop()
            setattr(owner, name, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- export ------------------------------------------------------------

    def take(self) -> dict:
        """Return and clear what was recorded since the last call."""
        out = {"spans": self.spans, "counts": dict(self.counts)}
        self.spans = []
        self.counts.clear()  # in place: installed counters hold this dict
        return out


def _lookup(owner, attr, where):
    try:
        return getattr(owner, attr)
    except AttributeError:
        raise TracerError(f"traced name {where}.{attr} does not exist") from None


def layer_names() -> list[str]:
    """Every span layer, in table order, without repeats."""
    layers = [span[0] for span in SPANS + METHOD_SPANS] + [CLI_COMMAND]
    return list(dict.fromkeys(layers))


def summarize(records: list[dict]) -> dict[str, float]:
    """Fold recorded spans and counts into per-layer totals."""
    totals: dict[str, float] = defaultdict(float)
    for rec in records:
        for span in rec["spans"]:
            totals[span[1] + ".self_s"] += span[6]
        for name, value in rec["counts"].items():
            totals[name] += value
    return totals
