"""Span tracing for the benchmark's traced run, from outside the program.

``install`` replaces each entry point named in ``SPAN_TARGETS`` and
``COUNT_TARGETS`` by a wrapper, in every ``lmmt`` namespace that bound it
(``from .x import y`` copies a function into each importing module), and on
the class for methods.  A span is ``[label, group, start_ns, end_ns, parent,
outermost]``; spans stay in memory and ``Tracer.layer_metrics`` turns the
spans of one pass into the per-layer metrics.  Nothing under ``src/`` knows
about this module.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import sys
import time
from typing import Callable, Dict, List, Tuple

# Entry point -> layer group.  A group's "_s" metric is either its self time
# (span duration minus child spans) or its inclusive time, see PER_LAYER.
SPAN_TARGETS = {
    "linalg._rref": "linalg.elim",
    "linalg.Matrix.rref": "linalg.elim",
    "linalg.Matrix.rank": "linalg.elim",
    "linalg.Matrix.kernel_basis": "linalg.elim",
    "linalg.Matrix.solve": "linalg.elim",
    "linalg.Matrix.column_space_basis": "linalg.elim",
    "linalg.row_space_basis": "linalg.elim",
    "linalg.in_span": "linalg.elim",
    "linalg.extend_basis": "linalg.elim",
    "exterior.AltElement.wedge": "exterior.wedge",
    "exterior.contract": "exterior.contract",
    "liealg.LieAlgebra.lie_L": "liealg.lie_L",
    "liealg.LieAlgebra.from_json": "liealg.parse",
    "liealg.parse_salamon": "liealg.parse",
    "liealg.builtin": "liealg.parse",
    "liealg.structural_report": "liealg.structural_report",
    "cohomology.ce_differential": "cohomology.build",
    "cohomology.betti": "cohomology.betti",
    "spectral.IdealSplit.__post_init__": "spectral.split",
    "spectral.invariant_cohomology": "spectral.invariant_cohomology",
    "spectral.verify_34_structure": "spectral.verify34",
    "multimoment.solve_multimoment": "multimoment.solve",
    "forms.stabilizer_algebra": "forms.stabilizer",
    "cli.main": "cli",
}

# Entry points counted without a span: they run hundreds of thousands of
# times per pass, and a span each would swamp what is measured.
COUNT_TARGETS = {
    "scalars.Scalar.__init__": "scalars.new",
    "scalars.Scalar.inverse": "scalars.inverse",
}

COUNTERS = (
    "scalars.new",
    "scalars.inverse",
    "linalg.elim_nnz_in",
    "linalg.rank_sum",
    "linalg.max_bits",
    "cohomology.d_nnz",
)

CLAIM_IDS = tuple(f"c{i:02d}" for i in range(1, 13))

# (metric, unit, how): how is ("self", group), ("incl", group),
# ("calls", labels...), ("count", counter) or ("run", None) for the two
# ratios that the benchmark run computes itself.
PER_LAYER: List[Tuple[str, str, tuple]] = [
    ("scalars.new", "count", ("count", "scalars.new")),
    ("scalars.inverse", "count", ("count", "scalars.inverse")),
    ("linalg.elim_s", "s", ("self", "linalg.elim")),
    ("linalg.elim_calls", "count", ("calls", "linalg._rref")),
    ("linalg.elim_nnz_in", "count", ("count", "linalg.elim_nnz_in")),
    ("linalg.rank_sum", "count", ("count", "linalg.rank_sum")),
    ("linalg.max_bits", "bits", ("count", "linalg.max_bits")),
    ("linalg.span_calls", "count", ("calls", "linalg.in_span", "linalg.extend_basis")),
    ("cohomology.build_s", "s", ("self", "cohomology.build")),
    ("cohomology.build_calls", "count", ("calls", "cohomology.ce_differential")),
    ("cohomology.d_nnz", "count", ("count", "cohomology.d_nnz")),
    ("cohomology.betti_s", "s", ("incl", "cohomology.betti")),
    ("liealg.lie_L_s", "s", ("self", "liealg.lie_L")),
    ("liealg.lie_L_calls", "count", ("calls", "liealg.LieAlgebra.lie_L")),
    ("liealg.structural_report_s", "s", ("incl", "liealg.structural_report")),
    ("liealg.structural_report_calls", "count", ("calls", "liealg.structural_report")),
    ("liealg.parse_s", "s", ("self", "liealg.parse")),
    ("exterior.wedge_s", "s", ("self", "exterior.wedge")),
    ("exterior.wedge_calls", "count", ("calls", "exterior.AltElement.wedge")),
    ("exterior.contract_s", "s", ("self", "exterior.contract")),
    ("exterior.contract_calls", "count", ("calls", "exterior.contract")),
    ("spectral.invariant_cohomology_s", "s", ("incl", "spectral.invariant_cohomology")),
    ("spectral.invariant_cohomology_calls", "count", ("calls", "spectral.invariant_cohomology")),
    ("spectral.split_s", "s", ("incl", "spectral.split")),
    ("spectral.verify34_s", "s", ("incl", "spectral.verify34")),
    ("multimoment.solve_s", "s", ("incl", "multimoment.solve")),
    ("forms.stabilizer_s", "s", ("incl", "forms.stabilizer")),
    *((f"claims.{c}_s", "s", ("incl", f"claims.{c}")) for c in CLAIM_IDS),
    ("cli.self_s", "s", ("self", "cli")),
    ("trace.overhead_frac", "ratio", ("run", None)),
    ("trace.uncovered_frac", "ratio", ("run", None)),
]


class TraceError(RuntimeError):
    """A traced entry point is missing or still bound unwrapped somewhere."""


def _bits(x) -> int:
    """Largest numerator/denominator bit-length of an exact scalar."""
    if hasattr(x, "numerator"):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    return max(_bits(x.a), _bits(x.b))


class Tracer:
    """Spans and counters of one pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.open_groups: Dict[str, int] = {}
        self.counts: Dict[str, int] = dict.fromkeys(COUNTERS, 0)

    def reset(self) -> None:
        # in place: the wrappers hold these containers
        self.spans.clear()
        self.stack.clear()
        self.open_groups.clear()
        for key in self.counts:
            self.counts[key] = 0

    def open(self, label: str, group: str) -> int:
        depth = self.open_groups.get(group, 0)
        self.open_groups[group] = depth + 1
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([label, group, time.perf_counter_ns(), 0, parent, depth == 0])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span[3] = time.perf_counter_ns()
        self.stack.pop()
        self.open_groups[span[1]] -= 1

    # -- bookkeeping hooks; they run inside a "trace" child span, so their
    # cost is not charged to any layer ------------------------------------

    def _before_rref(self, args) -> None:
        self.counts["linalg.elim_nnz_in"] += sum(len(r) for r in args[0])

    def _after_rref(self, result) -> None:
        rows, pivots = result
        self.counts["linalg.rank_sum"] += len(pivots)
        bits = max((_bits(v) for r in rows for v in r.values()), default=0)
        if bits > self.counts["linalg.max_bits"]:
            self.counts["linalg.max_bits"] = bits

    def _after_build(self, result) -> None:
        self.counts["cohomology.d_nnz"] += len(result.entries)

    def _bookkeep(self, hook: Callable, arg) -> None:
        idx = self.open("trace", "trace")
        try:
            hook(arg)
        finally:
            self.close(idx)

    def wrap(self, label: str, group: str, fn: Callable) -> Callable:
        """Span around fn; open/close are inlined because some entry points
        run tens of thousands of times per pass."""
        before = self._before_rref if label == "linalg._rref" else None
        after = {"linalg._rref": self._after_rref,
                 "cohomology.ce_differential": self._after_build}.get(label)
        spans, stack, open_groups = self.spans, self.stack, self.open_groups
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth = open_groups.get(group, 0)
            open_groups[group] = depth + 1
            span = [label, group, 0, 0, stack[-1] if stack else -1, depth == 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                if before is not None:
                    self._bookkeep(before, args)
                result = fn(*args, **kwargs)
                if after is not None:
                    self._bookkeep(after, result)
                return result
            finally:
                span[3] = clock()
                stack.pop()
                open_groups[group] -= 1

        return wrapper

    def count(self, counter: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- aggregation --------------------------------------------------------

    def layer_metrics(self, wall_ns: int) -> Dict[str, float]:
        """Per-layer metrics of the current pass; wall_ns is the pass's job
        time measured by the caller around ``cli.main``.  Time in "trace"
        spans (the bookkeeping hooks) is left out of every layer's time and
        of wall_ns."""
        spans = self.spans
        child = [0] * len(spans)
        traced = [0] * len(spans)  # "trace" span time inside each span
        # children come after their parent, so one backward sweep sums both
        for i in range(len(spans) - 1, -1, -1):
            label, group, start, end, parent, _ = spans[i]
            if parent >= 0:
                child[parent] += end - start
                traced[parent] += end - start if group == "trace" else traced[i]
        self_ns: Dict[str, int] = {}
        incl_ns: Dict[str, int] = {}
        calls: Dict[str, int] = {}
        covered = bookkeeping = 0
        for i, (label, group, start, end, parent, outermost) in enumerate(spans):
            dur = end - start
            self_ns[group] = self_ns.get(group, 0) + dur - child[i]
            if outermost:
                incl_ns[group] = incl_ns.get(group, 0) + dur - traced[i]
            calls[label] = calls.get(label, 0) + 1
            if parent < 0:
                bookkeeping += dur if group == "trace" else traced[i]
            if group not in ("cli", "trace") and (parent < 0 or spans[parent][1] == "cli"):
                covered += dur - traced[i]
        out: Dict[str, float] = {}
        for name, _unit, how in PER_LAYER:
            kind, key = how[0], how[1]
            if kind == "self":
                out[name] = self_ns.get(key, 0) / 1e9
            elif kind == "incl":
                out[name] = incl_ns.get(key, 0) / 1e9
            elif kind == "calls":
                out[name] = sum(calls.get(label, 0) for label in how[1:])
            elif kind == "count":
                out[name] = self.counts[key]
        own_ns = wall_ns - bookkeeping
        out["trace.uncovered_frac"] = (own_ns - covered) / own_ns
        return out

    def write(self, path) -> None:
        """Write the current pass's spans as gzipped JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for i, (label, group, start, end, parent, _) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": label, "group": group,
                                     "start_ns": start, "end_ns": end,
                                     "parent": parent}) + "\n")


# -- installation -----------------------------------------------------------


def lmmt_modules() -> Dict[str, object]:
    return {name: mod for name, mod in sys.modules.items()
            if name == "lmmt" or name.startswith("lmmt.")}


def _resolve(modules, target: str):
    """(owner, attr, raw attribute, plain function) for a target name."""
    mod_name, *path = target.split(".")
    owner = modules.get(f"lmmt.{mod_name}")
    if owner is None:
        raise TraceError(f"traced module lmmt.{mod_name} is not imported")
    for part in path[:-1]:
        owner = vars(owner).get(part)
        if not isinstance(owner, type):
            raise TraceError(f"traced class lmmt.{mod_name}.{part} not found")
    attr = path[-1]
    raw = vars(owner).get(attr)
    fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
    if not callable(fn):
        raise TraceError(f"traced entry point lmmt.{target} not found")
    return owner, attr, raw, fn


def install(tracer: Tracer) -> Dict[int, Callable]:
    """Wrap every target; return {id(original): original} for the binding check."""
    modules = lmmt_modules()
    replace: Dict[int, Tuple[Callable, Callable]] = {}
    targets = [(t, g, False) for t, g in SPAN_TARGETS.items()]
    targets += [(t, c, True) for t, c in COUNT_TARGETS.items()]
    for target, name, counted in targets:
        owner, attr, raw, fn = _resolve(modules, target)
        wrapper = tracer.count(name, fn) if counted else tracer.wrap(target, name, fn)
        if isinstance(owner, type):
            setattr(owner, attr, type(raw)(wrapper) if raw is not fn else wrapper)
        replace[id(fn)] = (fn, wrapper)
    claims = modules["lmmt.claims"]
    for claim in claims.CLAIMS:
        fn = claim.run
        wrapper = tracer.wrap(f"claims.{claim.id}", f"claims.{claim.id[:3]}", fn)
        replace[id(fn)] = (fn, wrapper)
        claim.run = wrapper
    for mod in modules.values():
        for name, value in list(vars(mod).items()):
            hit = replace.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, name, hit[1])
    originals = {key: fn for key, (fn, _) in replace.items()}
    check_bindings(originals)
    return originals


def check_bindings(originals: Dict[int, Callable]) -> None:
    """Fail if an original is still reachable from an lmmt namespace, a class
    of lmmt, or the claim registry, or if a subclass overrides a traced
    method (its calls would bypass the wrapper)."""
    modules = lmmt_modules()
    stale = []

    def is_original(value) -> bool:
        value = getattr(value, "__func__", value)
        return id(value) in originals and originals[id(value)] is value

    classes = [v for mod in modules.values() for v in vars(mod).values()
               if isinstance(v, type) and v.__module__.startswith("lmmt")]
    for mod_name, mod in modules.items():
        for name, value in vars(mod).items():
            if is_original(value):
                stale.append(f"{mod_name}.{name}")
    for cls in classes:
        for name, value in vars(cls).items():
            if is_original(value):
                stale.append(f"{cls.__module__}.{cls.__qualname__}.{name}")
    for target in list(SPAN_TARGETS) + list(COUNT_TARGETS):
        mod_name, *path = target.split(".")
        if len(path) != 2:
            continue
        owner = vars(modules[f"lmmt.{mod_name}"])[path[0]]
        for cls in classes:
            if cls is not owner and issubclass(cls, owner) and path[1] in vars(cls):
                stale.append(f"{cls.__module__}.{cls.__qualname__}.{path[1]} (override)")
    for claim in modules["lmmt.claims"].CLAIMS:
        if is_original(claim.run):
            stale.append(f"lmmt.claims.CLAIMS[{claim.id}].run")
    if stale:
        raise TraceError("unwrapped entry points still bound: " + ", ".join(sorted(set(stale))))


def median_metrics(per_pass: List[Dict[str, float]]) -> Dict[str, float]:
    return {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}

