"""Spans around the calls into each package module, recorded from outside.

The tracer replaces public module attributes with wrappers that record a span
(name, start, end, parent, unit id) per call.  Spans stay in memory and are
written out once, at the end of the run.  A layer's self time is its span's
duration minus the part of that interval its child spans cover.

Wrapped attributes, by layer:

* ``kernels``: ``nonlocal_solver.nonlocal_term`` (the solver's kernel call)
  and ``diagnostics.nonlocal_exponential`` (the transport residual's);
* ``nonlocal_solver``: ``solve_nonlocal`` as the harness and the benchmark call it;
* ``local_reference``: ``solve_local`` likewise;
* ``diagnostics``: ``total_variation_of`` as both solvers import it, and
  ``sup_time_l1``, ``weak_residual``, ``entropy_residual``,
  ``transport_residual_w`` and ``wq_identity_gap`` as the harness and the
  benchmark call them;
* ``harness``: ``parse_config`` and ``run_sweep`` as the CLI calls them, and
  ``parse_config`` as the benchmark calls it;
* ``core``: ``sample_profile`` as the harness calls it, and a count of
  ``CellField`` constructions;
* ``cli``: ``main``.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from collections import defaultdict

# span kinds: the layer metric a span feeds
KERNEL = "kernels"
NONLOCAL = "nonlocal_solver"
LOCAL = "local_reference"
TV = "diagnostics.tv"
SUP_L1 = "diagnostics.sup_l1"
RESIDUAL = "diagnostics.residual"
OTHER_DIAGNOSTIC = "diagnostics.other"  # feeds no metric; kept out of harness self time
PARSE = "harness.parse_config"
SWEEP = "harness.run_sweep"
INPUTS = "core.inputs"
CLI = "cli.main"
UNIT = "unit"
SETUP = "setup"

FAMILY_KEYS = {("exponential", "downstream"): "exp_down",
               ("constant", "downstream"): "const_down",
               ("exponential", "upstream"): "exp_up",
               ("constant", "upstream"): "const_up"}


class Tracer:
    """In-memory span recorder.  One instance per traced run."""

    def __init__(self):
        self.spans = []      # [name, start_ns, end_ns, parent index, unit id, info]
        self.stack = []
        self.unit_id = -1
        self.cellfields = defaultdict(int)
        self.patched = []
        self.missing = set()  # attributes the package no longer has

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.unit_id, None])
        self.stack.append(index)
        return index

    def close(self, index: int):
        self.spans[index][2] = time.perf_counter_ns()
        popped = self.stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    @contextlib.contextmanager
    def root(self, name: str, unit_id: int):
        """Root span of a unit, or of the set-up (unit id -1)."""
        self.unit_id = unit_id
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)
            self.unit_id = -1

    def wrap(self, module, attribute: str, name: str, describe=None):
        """Replace ``module.attribute`` with a span-recording wrapper.

        ``describe(args, kwargs, result)`` returns the span's info dict.  An
        attribute the module lacks is skipped and listed in ``missing``; the
        layer figures it fed then read 0.
        """
        original = getattr(module, attribute, None)
        if original is None:
            self.missing.add(f"{module.__name__}.{attribute}")
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(index)
            if describe is not None:
                self.spans[index][5] = describe(args, kwargs, result)
            return result

        setattr(module, attribute, wrapper)
        self.patched.append((module, attribute, original))

    def count_cellfields(self, cell_field_class):
        original = cell_field_class.__post_init__
        counts = self.cellfields

        def counting_post_init(field_self):
            counts[self.unit_id] += 1
            original(field_self)

        cell_field_class.__post_init__ = counting_post_init
        self.patched.append((cell_field_class, "__post_init__", original))

    def uninstall(self):
        for owner, attribute, original in reversed(self.patched):
            setattr(owner, attribute, original)
        self.patched.clear()

    def write(self, path):
        """Write every span as one CSV line: index,name,start_ns,end_ns,parent,unit."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("index,name,start_ns,end_ns,parent,unit\n")
            for i, (name, start, end, parent, unit, _) in enumerate(self.spans):
                fh.write(f"{i},{name},{start},{end},{parent},{unit}\n")


def _kernel_info(args, kwargs, result):
    """``nonlocal_term(q, spec)`` or ``nonlocal_exponential(q, eta)``."""
    q, spec = args[0], args[1]
    family = (FAMILY_KEYS[(spec.family, spec.orientation)] if hasattr(spec, "family")
              else "exp_down")
    return {"family": family, "cells": q.grid.n_cells,
            "bytes": q.values.nbytes + result.values.nbytes}


def _solve_info(args, kwargs, result):
    return {"cell_steps": args[0].grid.n_cells * result.n_steps,
            "snapshots": len(result.snapshots)}


def install(nl, tracer: Tracer):
    """Wrap the module attributes listed in the module docstring."""
    tracer.wrap(nl.nonlocal_solver, "nonlocal_term", KERNEL, _kernel_info)
    tracer.wrap(nl.diagnostics, "nonlocal_exponential", KERNEL, _kernel_info)
    for module in (nl.nonlocal_solver, nl.local_reference):
        tracer.wrap(module, "total_variation_of", TV)
    for module in (nl.nonlocal_solver, nl.harness):
        tracer.wrap(module, "solve_nonlocal", NONLOCAL, _solve_info)
    for module in (nl.local_reference, nl.harness):
        tracer.wrap(module, "solve_local", LOCAL, _solve_info)
    for module in (nl.diagnostics, nl.harness):
        tracer.wrap(module, "sup_time_l1", SUP_L1)
        for attribute in ("weak_residual", "entropy_residual", "transport_residual_w"):
            tracer.wrap(module, attribute, RESIDUAL)
        tracer.wrap(module, "wq_identity_gap", OTHER_DIAGNOSTIC)
    for module in (nl.cli, nl.harness):
        tracer.wrap(module, "parse_config", PARSE)
    tracer.wrap(nl.cli, "run_sweep", SWEEP)
    tracer.wrap(nl.harness, "sample_profile", INPUTS)
    tracer.wrap(nl.cli, "main", CLI)
    if hasattr(nl.core, "CellField"):
        tracer.count_cellfields(nl.core.CellField)
    else:
        tracer.missing.add("core.CellField")


def self_times(spans) -> list[float]:
    """Self time in seconds of every span: duration minus the union of the
    intervals its children cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    result = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append((end - start - covered) * 1e-9)
    return result


def unit_layers(tracer: Tracer) -> dict[int, dict]:
    """Per-layer figures of every traced unit, keyed by unit id."""
    selfs = self_times(tracer.spans)
    units = {}
    for i, (name, start, end, _, unit_id, info) in enumerate(tracer.spans):
        if unit_id < 0:
            continue
        u = units.setdefault(unit_id, {
            "wall": 0.0, "root_self": 0.0, "self_total": 0.0,
            "busy": defaultdict(float), "self": defaultdict(float),
            "calls": defaultdict(int), "family_s": defaultdict(float),
            "family_cells": defaultdict(int), "kernel_bytes": 0, "kernel_cells": 0,
            "cell_steps": defaultdict(int), "snapshots": 0,
            "cellfields": tracer.cellfields.get(unit_id, 0),
        })
        duration = (end - start) * 1e-9
        u["calls"][name] += 1
        u["busy"][name] += duration
        u["self"][name] += selfs[i]
        u["self_total"] += selfs[i]
        if name == UNIT:
            u["wall"] += duration
            u["root_self"] += selfs[i]
        elif info is None:  # the call raised; its unit failed the gate
            continue
        elif name == KERNEL:
            u["family_s"][info["family"]] += duration
            u["family_cells"][info["family"]] += info["cells"]
            u["kernel_bytes"] += info["bytes"]
            u["kernel_cells"] += info["cells"]
        elif name in (NONLOCAL, LOCAL):
            u["cell_steps"][name] += info["cell_steps"]
            u["snapshots"] += info["snapshots"]
    return units


def accounting_error(layers: dict) -> float:
    """|sum of self times - unit wall| / unit wall; zero when the spans nest."""
    return abs(layers["self_total"] - layers["wall"]) / layers["wall"]


def per_layer_metrics(units: list[dict], csv_mb: float, parse_s: list[float],
                      setup_import_s: float, setup_inputs_s: float,
                      untraced_s: list[float]) -> dict[str, tuple[float, str]]:
    """Median over traced units of each per-layer figure, with its unit.

    ``units`` are in run order and ``untraced_s[i]`` is the untraced unit run
    just before ``units[i]``.
    """

    def med(get):
        return float(statistics.median(get(u) for u in units))

    def ns_per(numerator_s, denominator):
        return numerator_s * 1e9 / denominator if denominator else 0.0

    def family_ns(key):
        return med(lambda u: ns_per(u["family_s"][key], u["family_cells"][key]))

    harness_self = med(lambda u: u["self"][SWEEP])
    traced_unit = med(lambda u: u["wall"])
    return {
        "kernels.calls": (med(lambda u: u["calls"][KERNEL]), "count"),
        "kernels.busy_s": (med(lambda u: u["busy"][KERNEL]), "s"),
        "kernels.exp_down.ns_per_cell": (family_ns("exp_down"), "ns"),
        "kernels.const_down.ns_per_cell": (family_ns("const_down"), "ns"),
        "kernels.exp_up.ns_per_cell": (family_ns("exp_up"), "ns"),
        "kernels.computed_bytes_per_cell": (
            med(lambda u: u["kernel_bytes"] / u["kernel_cells"] if u["kernel_cells"] else 0.0),
            "B"),
        "nonlocal_solver.busy_s": (med(lambda u: u["busy"][NONLOCAL]), "s"),
        "nonlocal_solver.self_s": (med(lambda u: u["self"][NONLOCAL]), "s"),
        "nonlocal_solver.ns_per_cell_step": (
            med(lambda u: ns_per(u["self"][NONLOCAL], u["cell_steps"][NONLOCAL])), "ns"),
        "nonlocal_solver.cell_steps": (med(lambda u: u["cell_steps"][NONLOCAL]), "count"),
        "local_reference.busy_s": (med(lambda u: u["busy"][LOCAL]), "s"),
        "local_reference.self_s": (med(lambda u: u["self"][LOCAL]), "s"),
        "local_reference.ns_per_cell_step": (
            med(lambda u: ns_per(u["self"][LOCAL], u["cell_steps"][LOCAL])), "ns"),
        "local_reference.cell_steps": (med(lambda u: u["cell_steps"][LOCAL]), "count"),
        "diagnostics.tv_s": (med(lambda u: u["busy"][TV]), "s"),
        "diagnostics.tv_calls": (med(lambda u: u["calls"][TV]), "count"),
        "diagnostics.sup_l1_s": (med(lambda u: u["busy"][SUP_L1]), "s"),
        "diagnostics.residual_s": (med(lambda u: u["busy"][RESIDUAL]), "s"),
        "harness.parse_config_s": (float(statistics.median(parse_s)) if parse_s else 0.0, "s"),
        "harness.self_s": (harness_self, "s"),
        "harness.csv_mb": (csv_mb, "MB"),
        "harness.csv_mb_per_s": (csv_mb / harness_self if harness_self else 0.0, "MB/s"),
        "harness.snapshots_held": (med(lambda u: u["snapshots"]), "count"),
        "core.cellfield_count": (med(lambda u: u["cellfields"]), "count"),
        "core.inputs_s": (med(lambda u: u["busy"][INPUTS]), "s"),
        "cli.main_s": (med(lambda u: u["busy"][CLI]), "s"),
        "setup.import_s": (setup_import_s, "s"),
        "setup.inputs_s": (setup_inputs_s, "s"),
        "trace.unit_s": (traced_unit, "s"),
        "trace.layer_share": (med(lambda u: 1.0 - u["root_self"] / u["wall"]), "ratio"),
        # each traced unit runs right after an untraced one: compare within pairs
        "trace.overhead_ratio": (float(statistics.median(
            u["wall"] / plain for u, plain in zip(units, untraced_s))) - 1.0, "ratio"),
    }
