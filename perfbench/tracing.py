"""Span tracer for the traced benchmark run.

The tracer wraps the public functions and methods of each package module
from outside the package.  Every call records a span (name, parent span,
operation id, start, end) in compact arrays that stay in memory until the
run ends.  A layer's self time is its span time minus the time of its
direct child spans; spans of one thread never overlap, so that is exactly
the part of the interval no child covers.

Generator functions get no span, because their body runs inside the
consumer's span; the tracer counts the items they yield instead.
"""

import inspect
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

LAYERS = ("cli", "invsys", "classify", "homalg", "fgab", "kernel", "prospace", "topgrp")

# Metric stems; a stem names the span it sums, with `init` for `__init__`.
CALLS_AND_SELF = (
    "kernel.smith_with_transforms",
    "kernel.hermite_column_basis",
    "kernel.kernel_columns",
    "kernel.solve",
    "kernel.charpoly",
    "kernel.mat_mul",
    "fgab.GroupHom.init",
    "fgab.GroupHom.compose",
    "fgab.FgAbGroup.reduce",
    "fgab.direct_sum",
    "fgab.Subgroup.coordinates_of",
    "fgab.Subgroup.intersection",
    "fgab.eventual_image_lattice",
    "invsys.InverseSystem.map_between",
    "invsys.InverseSystem.group_at",
    "invsys.surjectivize",
    "invsys.eventual_image",
    "topgrp.FiniteTopAbGroup.translate_mask",
    "topgrp.splitting_check",
)
CALLS_ONLY = ("kernel.det_via_smith", "prospace.extend")
SELF_ONLY = (
    "fgab.cokernel_presentation",
    "fgab.Subgroup.index_in",
    "fgab.preimage",
    "invsys.InverseSystem.from_json",
    "invsys.stable_images",
    "invsys.is_mittag_leffler",
    "invsys.kernel_sequence",
    "classify.classify_limit",
    "classify.classify_kk",
    "homalg.lim1_verdict",
    "prospace.enumerate_tuples",
    "prospace.dense_family",
    "topgrp.FiniteTopAbGroup.from_subgroup",
    "topgrp.SplittingContext.init",
    "topgrp.translated_basis_check",
    "cli.build_parser",
    "cli.load_document",
    "cli.canonical_json",
    "cli.main",
)
# stems that sum more than one span
MERGED = {"kernel.solve": ("kernel.solve", "kernel.solve_matrix")}


def spans_of(stem):
    if stem in MERGED:
        return MERGED[stem]
    return (stem[: -len(".init")] + ".__init__" if stem.endswith(".init") else stem,)


HOOK_SPAN = "trace.hook"


class Tracer:
    """Spans in parallel arrays; index i of each array describes span i."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.op_id = -1
        self.items = Counter()
        self.peaks = defaultdict(int)
        self.hits = Counter()

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid):
        i = len(self.name)
        stack = self.stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i):
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def totals(self):
        """{span name: (calls, self seconds)}."""
        calls = Counter()
        selfs = defaultdict(float)
        for nid, s in zip(self.name, self_times(self.parent, self.start, self.end)):
            calls[nid] += 1
            selfs[nid] += s
        return {self.names[nid]: (calls[nid], selfs[nid]) for nid in calls}

    def write(self, path):
        """Raw span arrays plus a JSON header naming them."""
        fields = ("name", "parent", "op", "start", "end")
        header = {
            "names": self.names,
            "count": len(self.name),
            "fields": [[f, getattr(self, f).typecode] for f in fields],
        }
        with open(path + ".json", "w") as fh:
            json.dump(header, fh)
        with open(path + ".bin", "wb") as fh:
            for f in fields:
                getattr(self, f).tofile(fh)


def self_times(parent, start, end):
    """Duration of each span minus the durations of its direct children."""
    out = array("d", (e - s for s, e in zip(start, end)))
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= end[i] - start[i]
    return out


def _peak_bits(rows):
    return max((abs(x).bit_length() for row in rows for x in row), default=0)


def _smith_pre(tracer, args):
    a = args[0]
    key = "kernel.smith_with_transforms.max_dim"
    tracer.peaks[key] = max(tracer.peaks[key], len(a), len(a[0]) if a else 0)


def _smith_post(tracer, out):
    key = "kernel.smith_with_transforms.peak_bits"
    tracer.peaks[key] = max(tracer.peaks[key], *(_peak_bits(m) for m in out))


def _hermite_post(tracer, out):
    key = "kernel.hermite_column_basis.peak_bits"
    tracer.peaks[key] = max(tracer.peaks[key], _peak_bits(out))


def _basis_pre(tracer, args):
    if args[0]._basis is not None:
        tracer.hits["fgab.Subgroup.lattice_basis"] += 1


HOOKS = {
    "kernel.smith_with_transforms": (_smith_pre, _smith_post),
    "kernel.hermite_column_basis": (None, _hermite_post),
    "fgab.Subgroup.lattice_basis": (_basis_pre, None),
}


def _wrap(tracer, fn, name):
    nid = tracer.name_id(name)
    if inspect.isgeneratorfunction(fn):
        items = tracer.items

        def counting(*args, **kwargs):
            for x in fn(*args, **kwargs):
                items[name] += 1
                yield x

        return counting
    pre, post = HOOKS.get(name, (None, None))
    if pre is None and post is None:

        def traced(*args, **kwargs):
            i = tracer.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(i)

        return traced
    hook = tracer.name_id(HOOK_SPAN)

    def hooked(*args, **kwargs):
        if pre is not None:
            h = tracer.open(hook)
            pre(tracer, args)
            tracer.close(h)
        i = tracer.open(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if post is not None:
            h = tracer.open(hook)
            post(tracer, out)
            tracer.close(h)
        return out

    return hooked


def install(tracer, layers):
    """Wrap the public callables of each layer module; returns an undo list.

    `layers` maps a layer name to its module.  Module functions are also
    replaced wherever another package module imported them by name.
    """
    package = [m for n, m in sys.modules.items() if n.split(".")[0] == "prolim" and m]
    undo = []

    def patch(owner, attr, value):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    for layer, mod in layers.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrapper = _wrap(tracer, obj, f"{layer}.{attr}")
                for other in package:
                    if vars(other).get(attr) is obj:
                        patch(other, attr, wrapper)
            elif inspect.isclass(obj):
                for meth, raw in list(vars(obj).items()):
                    if meth.startswith("_") and meth != "__init__":
                        continue
                    name = f"{layer}.{attr}.{meth}"
                    if inspect.isfunction(raw):
                        patch(obj, meth, _wrap(tracer, raw, name))
                    elif isinstance(raw, (classmethod, staticmethod)):
                        patch(obj, meth, type(raw)(_wrap(tracer, raw.__func__, name)))
    return undo


def uninstall(undo):
    for owner, attr, value in reversed(undo):
        setattr(owner, attr, value)


def layer_metrics(tracer, ops):
    """Per-layer metrics from one traced pass of `ops` operations."""
    totals = tracer.totals()

    def calls(*names):
        return sum(totals.get(n, (0, 0.0))[0] for n in names)

    def self_s(*names):
        return sum(totals.get(n, (0, 0.0))[1] for n in names)

    m = {}
    for stem in CALLS_AND_SELF + CALLS_ONLY:
        m[f"{stem}.calls"] = (calls(*spans_of(stem)), "count")
    for stem in CALLS_AND_SELF + SELF_ONLY:
        m[f"{stem}.self_s"] = (self_s(*spans_of(stem)), "s")
    for layer in LAYERS:
        m[f"{layer}.total_self_s"] = (
            sum(s for n, (_c, s) in totals.items() if n.split(".")[0] == layer),
            "s",
        )
    for key, unit in (
        ("kernel.smith_with_transforms.max_dim", "count"),
        ("kernel.smith_with_transforms.peak_bits", "bits"),
        ("kernel.hermite_column_basis.peak_bits", "bits"),
    ):
        m[key] = (tracer.peaks[key], unit)
    created = calls("fgab.Subgroup.__init__")
    lookups = calls("fgab.Subgroup.lattice_basis")
    m["fgab.Subgroup.created"] = (created, "count")
    m["fgab.Subgroup.lattice_basis.hit_ratio"] = (
        tracer.hits["fgab.Subgroup.lattice_basis"] / lookups if lookups else 0.0,
        "ratio",
    )
    m["fgab.smith_per_subgroup"] = (
        calls("kernel.smith_with_transforms") / created if created else 0.0,
        "ratio",
    )
    m["invsys.surjectivize.per_op"] = (calls("invsys.surjectivize") / ops, "calls/op")
    m["topgrp.sections.count"] = (tracer.items["topgrp.SplittingContext.sections"], "count")
    return m


def import_times(stderr):
    """(prolim ms, sympy ms) from `python -X importtime` output.

    prolim is the sum of the cumulative times of the top-level prolim
    imports; sympy is the cumulative time of its own entry, 0 if absent.
    """
    prolim_us = sympy_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _self, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = len(name) - len(name.lstrip(" ")) - 1
        name = name.strip()
        if depth == 0 and name.split(".")[0] == "prolim":
            prolim_us += int(cumulative)
        elif name == "sympy":
            sympy_us += int(cumulative)
    return prolim_us / 1000, sympy_us / 1000
