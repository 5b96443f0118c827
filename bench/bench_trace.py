"""Span tracer for the benchmark's traced passes, and the per-layer metrics.

`install` wraps the public functions of the nine goldiebound modules at every
module attribute they are bound to (the modules import each other's functions
by name, so wrapping only the defining module would miss nested calls), the
public methods of `RootSystem`, and the first access of its lazily built root
data.  Spans are aggregated as they close, per span name: call count, self
time (duration minus the time covered by child spans) and inclusive time.
This keeps memory flat however many spans a pass opens.

The vector arithmetic primitives of `rootsys` are not wrapped: they are leaf
helpers called from every layer, and their cost is charged to the span that
calls them.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time

MODULES = (
    "rootsys",
    "lattice",
    "repdim",
    "nilorbit",
    "slices",
    "pipeline",
    "serialize",
    "syntax",
    "cli",
)
LEAF_HELPERS = frozenset(
    {"vec", "vadd", "vsub", "vscale", "vdot", "zero_vec", "coroot_pairing"}
)
# Lazily built root data; the first access on a new RootSystem is its construction.
CONSTRUCT_PROPERTIES = ("positive_roots", "simple_roots", "rho", "fundamental_weights")
CONSTRUCT = "rootsys.construct"
D_PSI = "repdim.d_psi"
NODE = "rootsys.from_fundamental"
MEMBER = "repdim.weyl_dim"
CLI_MAIN = "cli.main"


class Tracer:
    """Aggregated spans of one traced pass."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.in_d_psi: dict[str, int] = {}  # calls made while a d_psi span is open
        self._children: list[float] = []  # child time covered, per open span
        self._d_psi_open = 0

    def wrap(self, name: str, fn):
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        children, in_d_psi = self._children, self.in_d_psi
        clock = time.perf_counter
        is_d_psi = name == D_PSI

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._d_psi_open:
                in_d_psi[name] = in_d_psi.get(name, 0) + 1
            if is_d_psi:
                self._d_psi_open += 1
            children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                covered = children.pop()
                if children:
                    children[-1] += elapsed
                if is_d_psi:
                    self._d_psi_open -= 1
                calls[name] = calls.get(name, 0) + 1
                self_s[name] = self_s.get(name, 0.0) + elapsed - covered
                total_s[name] = total_s.get(name, 0.0) + elapsed

        return traced

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "in_d_psi": dict(self.in_d_psi),
        }


def install(tracer: Tracer) -> None:
    """Route every public goldiebound entry point through `tracer`."""
    package = importlib.import_module("goldiebound")
    modules = {name: importlib.import_module(f"goldiebound.{name}") for name in MODULES}
    wrapped = {}
    for short, module in modules.items():
        for attr, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not attr.startswith("_")
                and attr not in LEAF_HELPERS
            ):
                wrapped[obj] = tracer.wrap(f"{short}.{attr}", obj)
    for module in (package, *modules.values()):
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, attr, wrapped[obj])

    cls = modules["rootsys"].RootSystem
    for attr, obj in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        if inspect.isfunction(obj):
            setattr(cls, attr, tracer.wrap(f"rootsys.{attr}", obj))
        elif isinstance(obj, functools.cached_property) and attr in CONSTRUCT_PROPERTIES:
            prop = functools.cached_property(tracer.wrap(CONSTRUCT, obj.func))
            prop.__set_name__(cls, attr)
            setattr(cls, attr, prop)

    cli = modules["cli"]
    cli.main = tracer.wrap(CLI_MAIN, cli.main)


# (name, unit, better) of every per-layer metric, in report order.
_PER_FUNCTION = (
    "rootsys.construct",
    "rootsys.from_fundamental",
    "rootsys.canonical",
    "rootsys.fundamental_coefficients",
    "lattice.in_root_lattice",
    "lattice.schur_class_of",
    "lattice.integral_subsystem",
    "repdim.d_psi",
    "repdim.weyl_dim",
    "nilorbit.orbit_datum",
    "slices.slice_context",
    "slices.delta",
    "slices.restrict_to_tQ",
    "slices.even_identity_check",
    "slices.underline_character",
    "slices.principal_in_nu_centralizer",
)
_SELF_ONLY = ("pipeline.premet_example",)
_CALLS_ONLY = ("nilorbit.h_and_grading",)
_LAYERS = ("rootsys", "lattice", "repdim", "nilorbit", "slices", "syntax", "serialize", "cli")

PER_LAYER = (
    *(
        (f"{fn}.{kind}", unit, "lower")
        for fn in _PER_FUNCTION
        for kind, unit in (("calls_per_op", "calls/op"), ("self_ms_per_op", "ms/op"))
    ),
    *((f"{fn}.self_ms_per_op", "ms/op", "lower") for fn in _SELF_ONLY),
    *((f"{fn}.calls_per_op", "calls/op", "lower") for fn in _CALLS_ONLY),
    *((f"{layer}.self_ms_per_op", "ms/op", "lower") for layer in _LAYERS),
    ("repdim.d_psi.nodes_per_call", "nodes/call", "lower"),
    ("repdim.d_psi.member_ratio", "ratio", "higher"),
    ("repdim.d_psi.us_per_node", "us/node", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def merge(snapshots: list[dict]) -> dict:
    """Sum the aggregated spans of several passes."""
    total: dict = {"calls": {}, "self_s": {}, "total_s": {}, "in_d_psi": {}}
    for snap in snapshots:
        for key, table in total.items():
            for name, value in snap[key].items():
                table[name] = table.get(name, 0) + value
    return total


def per_layer_metrics(spans: dict, ops: int, overhead_ratio: float) -> dict[str, float]:
    """Every PER_LAYER metric from merged spans over `ops` traced ops."""
    calls, self_s = spans["calls"], spans["self_s"]
    d_psi_calls = calls.get(D_PSI, 0)
    nodes = spans["in_d_psi"].get(NODE, 0)
    members = spans["in_d_psi"].get(MEMBER, 0)
    layer_ms = {layer: 0.0 for layer in _LAYERS}
    for name, seconds in self_s.items():
        layer = name.split(".", 1)[0]
        if layer in layer_ms:
            layer_ms[layer] += seconds * 1000
    values = {}
    for name, _, _ in PER_LAYER:
        prefix, _, kind = name.rpartition(".")
        if kind == "calls_per_op":
            values[name] = calls.get(prefix, 0) / ops
        elif kind == "self_ms_per_op" and prefix in layer_ms:
            values[name] = layer_ms[prefix] / ops
        elif kind == "self_ms_per_op":
            values[name] = self_s.get(prefix, 0.0) * 1000 / ops
    values["repdim.d_psi.nodes_per_call"] = nodes / d_psi_calls if d_psi_calls else 0.0
    values["repdim.d_psi.member_ratio"] = members / nodes if nodes else 0.0
    values["repdim.d_psi.us_per_node"] = (
        spans["total_s"].get(D_PSI, 0.0) * 1e6 / nodes if nodes else 0.0
    )
    values["trace.overhead_ratio"] = overhead_ratio
    return values
