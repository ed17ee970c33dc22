"""Spans around the public functions of each repherd layer, installed from outside.

The tracer replaces a function with a timing wrapper in every ``repherd.*``
module that holds it, so names bound by ``from ... import`` and aliases such
as ``linalg.solve_linear`` are caught too.  Only the outermost call of a layer
opens a span: a call made while a span of the same layer is open (recursion,
or ``kernel_basis`` calling ``rref``) runs unwrapped.

Spans stay in memory as ``(layer, start_ns, end_ns, parent, request)`` tuples,
where ``parent`` is the index of the enclosing span or -1, and are written
out at the end of the run.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from fractions import Fraction

# layer -> (module, function names).  The names are the public entry points
# of each layer; the metric table in README.md says which benchmark number
# each layer should move.
LAYERS = {
    "cli": ("repherd.cli", ["main"]),
    "io.load_algebra": ("repherd.io", ["load_algebra"]),
    "linalg": ("repherd.linalg", ["rref", "rank", "kernel_basis", "solve", "inverse", "col_space", "extend_to_basis"]),
    "modules.hom_basis": ("repherd.modules", ["hom_basis"]),
    "modules.decompose": ("repherd.modules", ["indecomposable_summands", "decompose"]),
    "modules.iso": ("repherd.modules", ["indec_isomorphic", "is_isomorphic"]),
    "modules.proj_inj": ("repherd.modules", ["projective_at", "injective_at"]),
    "homological.tau": ("repherd.homological", ["ar_translate", "ar_translate_inv"]),
    "homological.ass": ("repherd.homological", ["almost_split_sequence"]),
    "homological.approx": ("repherd.homological", ["minimal_right_approx", "minimal_left_approx"]),
    "homological.resolutions": (
        "repherd.homological",
        ["projective_cover", "injective_envelope", "syzygy", "cosyzygy", "proj_dim", "inj_dim"],
    ),
    "endo.oracle": ("repherd.endo", ["gldim_end_gen_cogen"]),
    "endo.global_dimension": ("repherd.endo", ["global_dimension"]),
    "endo.radical": ("repherd.endo", ["algebra_radical"]),
    "endo.idempotents": ("repherd.endo", ["primitive_idempotents"]),
    "catalog.enumerate": ("repherd.catalog", ["enumerate_indecomposables"]),
    "checks.main": ("repherd.checks", ["check_representation_hereditary"]),
    "checks.suite": ("repherd.checks", ["run_all_checks"]),
    "checks.module": ("repherd.checks", ["check_module_conditions"]),
    "checks.tilted": ("repherd.checks", ["check_tilted_sufficient"]),
}

# Layers whose calls are split by the enclosing oracle or decomposition span.
SPLIT_BY_CAUSE = ("endo.radical", "endo.idempotents")


def span_self_times(spans):
    """Self time of each finished span ``(layer, start, end, parent, request)``.

    A span's self time is its duration minus the durations of its direct
    children, which nest inside it.
    """
    child = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[k] for k, (_, start, end, _, _) in enumerate(spans)]


class Tracer:
    """Installs the wrappers, records spans and counters, and removes them again."""

    def __init__(self):
        self.names = list(LAYERS)
        self.index = {name: k for k, name in enumerate(self.names)}
        self.spans = []
        self.open = []        # indices of open spans, innermost last
        self.open_layers = [0] * len(self.names)
        self.request = -1
        self.calls = [0] * len(self.names)
        self.counts = {
            "linalg.cells": 0,
            "linalg.q_entry_bits_max": 0,
            "modules.hom_basis.unknowns": 0,
            "modules.iso.hits": 0,
            "endo.oracle.dim_end": 0,
            "catalog.nodes": 0,
            "catalog.complete": 0,
        }
        self.proj_inj_seen = set()
        self._patched = []    # (module, attribute, original)

    # -- installation ------------------------------------------------------

    def originals(self):
        """(layer, original function) for every traced name."""
        out = []
        for layer, (modname, fnames) in LAYERS.items():
            mod = sys.modules[modname]
            for fname in fnames:
                out.append((layer, getattr(mod, fname)))
        return out

    def install(self):
        wrappers = {id(fn): (fn, self._wrap(layer, fn)) for layer, fn in self.originals()}
        for modname, mod in list(sys.modules.items()):
            if modname != "repherd" and not modname.startswith("repherd."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, layer_name, fn):
        layer = self.index[layer_name]
        on_call = getattr(self, "_on_" + layer_name.replace(".", "_"), None)
        on_return = getattr(self, "_ret_" + layer_name.replace(".", "_"), None)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.open_layers[layer]:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(fn, args)
            self.calls[layer] += 1
            parent = self.open[-1] if self.open else -1
            idx = len(self.spans)
            self.spans.append(None)
            self.open.append(idx)
            self.open_layers[layer] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self.open_layers[layer] -= 1
                self.open.pop()
                self.spans[idx] = (layer, start, end, parent, self.request)
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def _on_linalg(self, fn, args):
        mat = sys.modules["repherd.linalg"].Mat
        bits = self.counts["linalg.q_entry_bits_max"]
        for a in args:
            if isinstance(a, mat):
                self.counts["linalg.cells"] += a.rows * a.cols
                for x in a.entries:
                    if type(x) is Fraction:
                        b = max(x.numerator.bit_length(), x.denominator.bit_length())
                        if b > bits:
                            bits = b
        self.counts["linalg.q_entry_bits_max"] = bits

    def _on_modules_hom_basis(self, fn, args):
        m, n = args[0], args[1]
        self.counts["modules.hom_basis.unknowns"] += sum(a * b for a, b in zip(m.dims, n.dims))

    def _ret_modules_iso(self, result):
        if result:
            self.counts["modules.iso.hits"] += 1

    def _on_modules_proj_inj(self, fn, args):
        alg, v = args[0], args[1]
        vi = v if isinstance(v, int) else alg.quiver.vindex[str(v)]
        # an algebra object lives for one request, so its id is unique there
        self.proj_inj_seen.add((self.request, id(alg), fn.__name__, vi))

    def _on_endo_global_dimension(self, fn, args):
        if self.open_layers[self.index["endo.oracle"]]:
            self.counts["endo.oracle.dim_end"] += args[0].dim

    def _ret_catalog_enumerate(self, cat):
        self.counts["catalog.nodes"] += len(cat.nodes)
        self.counts["catalog.complete"] += int(bool(cat.complete))

    # -- results -----------------------------------------------------------

    def layer_metrics(self):
        """The per-layer metrics, by the names BENCHMARK.json lists."""
        selfs = span_self_times(self.spans)
        per_layer = [0] * len(self.names)
        for span, ns in zip(self.spans, selfs):
            per_layer[span[0]] += ns
        calls = dict(zip(self.names, self.calls))
        secs = {name: ns / 1e9 for name, ns in zip(self.names, per_layer)}
        totals = {name: 0 for name in self.names}
        for layer, start, end, _, _ in self.spans:
            totals[self.names[layer]] += (end - start) / 1e9
        c = self.counts
        out = {"io.load_algebra.s": secs["io.load_algebra"], "cli.self.s": secs["cli"]}
        for name in ("linalg", "modules.hom_basis", "modules.decompose", "modules.iso", "homological.tau",
                     "homological.ass", "homological.approx", "homological.resolutions", "endo.oracle"):
            out[name + ".calls"] = calls[name]
            out[name + ".s"] = secs[name]
        out["linalg.cells"] = c["linalg.cells"]
        out["linalg.q_entry_bits_max"] = c["linalg.q_entry_bits_max"]
        out["modules.hom_basis.unknowns"] = c["modules.hom_basis.unknowns"]
        out["modules.iso.hit_ratio"] = _ratio(c["modules.iso.hits"], calls["modules.iso"])
        out["modules.proj_inj.calls"] = calls["modules.proj_inj"]
        out["modules.proj_inj.distinct_ratio"] = _ratio(len(self.proj_inj_seen), calls["modules.proj_inj"])
        out["endo.oracle.dim_end"] = c["endo.oracle.dim_end"]
        out["endo.oracle.total_s"] = totals["endo.oracle"]
        out["endo.global_dimension.s"] = secs["endo.global_dimension"]
        out.update(self._split_by_cause(selfs))
        out["catalog.enumerate.calls"] = calls["catalog.enumerate"]
        out["catalog.enumerate.s"] = secs["catalog.enumerate"]
        out["catalog.enumerate.total_s"] = totals["catalog.enumerate"]
        out["catalog.nodes"] = c["catalog.nodes"]
        out["catalog.complete_ratio"] = _ratio(c["catalog.complete"], calls["catalog.enumerate"])
        for name in ("main", "suite", "module", "tilted"):
            out["checks.%s.s" % name] = secs["checks." + name]
        return out

    def _split_by_cause(self, selfs):
        """Calls and self time of the split layers, by the nearest cause span above them."""
        causes = {self.index["endo.oracle"]: "in_oracle", self.index["modules.decompose"]: "in_decompose"}
        split = {self.index[name]: name for name in SPLIT_BY_CAUSE}
        out = {}
        for name in SPLIT_BY_CAUSE:
            for tag in causes.values():
                out["%s.calls.%s" % (name, tag)] = 0
                out["%s.s.%s" % (name, tag)] = 0.0
        for k, span in enumerate(self.spans):
            name = split.get(span[0])
            if name is None:
                continue
            p = span[3]
            while p >= 0 and self.spans[p][0] not in causes:
                p = self.spans[p][3]
            if p >= 0:
                tag = causes[self.spans[p][0]]
                out["%s.calls.%s" % (name, tag)] += 1
                out["%s.s.%s" % (name, tag)] += selfs[k] / 1e9
        return out

    def dump(self, path):
        """Write the spans as JSON: layer names once, then one row per span."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"layers": self.names, "fields": ["layer", "start_ns", "end_ns", "parent", "request"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def _ratio(num, den):
    return num / den if den else 0.0
