"""Spans around the calls that mspsolve's layers make into each other.

The tracer rebinds module-level names (``mspsolve.psd.solve_m1_psd``,
``mspsolve.general.preconditioned_lanczos``, ...) to wrappers that record a
span per call, and restores the originals on exit.  Nothing inside the
program changes; a layer is seen only where another layer calls it through a
module-level name.  Spans stay in memory until the run writes them out.

Per-layer metrics are normalised per call of each timed entry point: every
root span has a kind (``setup``, ``solve`` or ``baseline``), a quantity is
averaged over the roots of one kind, and the averages of the kinds are added.
So a layer metric reads as "cost inside one setup plus one solve plus one
baseline call", directly comparable with ``setup_s``, ``solve_s`` and
``baseline_s``.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import mspsolve.apps
import mspsolve.bench
import mspsolve.general
import mspsolve.nystrom
import mspsolve.psd
import mspsolve.sketch

# Level of a Lanczos run, from the span that called it.
_LANCZOS_LEVEL = {
    "psd.level2_apply": "level2",
    "general.level2_apply": "level2",
    "general.level3_apply": "level3",
    "bench.baseline": "baseline",
}


@dataclass(slots=True)
class Span:
    name: str
    parent: Optional[int]  # index into Tracer.spans, None for a root
    solve_id: int  # index of the root call this span belongs to
    kind: str  # kind of that root call
    start: float
    end: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"name": self.name, "parent": self.parent, "solve_id": self.solve_id,
                "kind": self.kind, "start": self.start, "end": self.end,
                "counts": self.counts}


def _psd_counts(rep) -> dict:
    it = rep.iterations
    return {"level1": it["level1"] + it["warmup"],
            "level2": it.get("level2_total", 0),
            "level2_runs": it.get("level2_runs", 0)}


def _general_counts(rep) -> dict:
    it = rep.iterations
    return {"level2": it["level2_total"], "level3a": it["level3a_total"],
            "level3b": it["level3b_total"], "a_applies": rep.matvecs,
            "level2_exhausted": rep.diagnostics.get("inner_budget_exhausted", 0)}


def _targets():
    """(owner, attribute, span name, count extractor) for every traced call.

    The span name is a string, or a function of the parent span's name.
    """
    sk, ny, ps, ge, ap, be = (mspsolve.sketch, mspsolve.nystrom, mspsolve.psd,
                              mspsolve.general, mspsolve.apps, mspsolve.bench)

    def cols(emb):
        return {"cols": emb.n}

    def build_s(pre):
        return {"s": pre.s}

    def krr_counts(rep):
        return {"l_choice": rep.diagnostics.get("l_choice", 0)}

    def baseline_counts(rep):
        return {"iters": rep.iterations["level1"]}

    def lanczos(parent):
        return "lanczos." + _LANCZOS_LEVEL.get(parent, "level1")

    return [
        # make_ose calls sketch.make_sparse_embedding, so both are spans.
        (sk, "make_sparse_embedding", "sketch.embed", cols),
        (ny, "make_sparse_embedding", "sketch.embed", cols),
        (ge, "make_sparse_embedding", "sketch.embed", cols),
        (ny, "make_ose", "sketch.embed", None),
        (ge, "make_ose", "sketch.embed", None),
        (ny, "sketch_apply_right", "sketch.apply", None),
        (ny, "sketch_apply_left", "sketch.apply", None),
        (ge, "sketch_apply_right", "sketch.apply", None),
        (sk.OseSketch, "apply", "sketch.apply", None),
        (ny, "build_nystrom_psd", "nystrom.build", build_s),
        (ps, "build_nystrom_psd", "nystrom.build", build_s),
        (ny, "tail_probe_factor", "nystrom.lambda0", None),
        (ny, "estimate_lambda0", "nystrom.lambda0", None),
        (ps, "solve_psd", "psd.solve", _psd_counts),
        (ap, "solve_psd", "psd.solve", _psd_counts),
        (ps, "solve_m1_psd", "psd.level2_apply", None),
        (ge, "build_general", "general.build", None),
        (ge, "solve_normal", "general.solve", _general_counts),
        (ge, "solve_m1_general", "general.level2_apply", None),
        (ge, "solve_m2", "general.level3_apply", None),
        (ps, "preconditioned_lanczos", lanczos, None),
        (ge, "preconditioned_lanczos", lanczos, None),
        (be, "preconditioned_lanczos", lanczos, None),
        (ap, "kernel_matrix", "apps.kernel", None),
        (ap, "solve_krr", "apps.solve_krr", krr_counts),
        (ps, "power_method_norm", "core.power", None),
        (ge, "power_method_norm", "core.power", None),
        (be, "solve_plain_lanczos", "bench.baseline", baseline_counts),
    ]


class Tracer:
    """Records spans while installed; `kind` labels the next root call."""

    def __init__(self):
        self.spans: List[Span] = []
        self.kind = "solve"
        self._stack: List[int] = []
        self._roots = 0

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            if parent is None:
                solve_id, kind, parent_name = self._roots, self.kind, None
                self._roots += 1
            else:
                up = self.spans[parent]
                solve_id, kind, parent_name = up.solve_id, up.kind, up.name
            label = name(parent_name) if callable(name) else name
            span = Span(label, parent, solve_id, kind, time.perf_counter())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, kind: str):
        """Rebind every traced name for the duration of one root call."""
        self.kind = kind
        saved = []
        try:
            for owner, attr, name, counter in _targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics from spans.

def _self_times(spans: List[Span]) -> List[float]:
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def _outermost(spans: List[Span], i: int, names) -> bool:
    p = spans[i].parent
    while p is not None:
        if spans[p].name in names:
            return False
        p = spans[p].parent
    return True


# Each entry: name, unit, better, per-root quantity.  A quantity takes
# (spans, self times, indices of one root's spans) and returns a number.
def _incl(*names):
    names = frozenset(names)
    return lambda sp, own, idx: sum(sp[i].duration for i in idx
                                    if sp[i].name in names and _outermost(sp, i, names))


def _self(name):
    return lambda sp, own, idx: sum(own[i] for i in idx if sp[i].name == name)


def _calls(name):
    return lambda sp, own, idx: sum(1 for i in idx if sp[i].name == name)


def _count(name, key):
    return lambda sp, own, idx: sum(sp[i].counts.get(key, 0) for i in idx
                                    if sp[i].name == name)


def _d_lambda(sp, own, idx, what):
    """Time in / solves of solve_krr before its final solve_psd."""
    total = 0.0
    for r in idx:
        if sp[r].name != "apps.solve_krr":
            continue
        kids = [i for i in idx if sp[i].parent == r and sp[i].name == "psd.solve"]
        if kids:
            total += (sp[kids[-1]].start - sp[r].start) if what == "s" else len(kids) - 1
    return total


PER_ROOT = [
    ("sketch.embed_s", "s", _incl("sketch.embed")),
    ("sketch.embed_cols", "count", _count("sketch.embed", "cols")),
    ("sketch.apply_s", "s", _incl("sketch.apply")),
    ("nystrom.build_s", "s", _incl("nystrom.build")),
    ("nystrom.lambda0_s", "s", _incl("nystrom.lambda0")),
    ("psd.level2_apply_s", "s", _incl("psd.level2_apply")),
    ("psd.level2_applies", "count", _calls("psd.level2_apply")),
    ("psd.level2_iters", "count", _count("psd.solve", "level2")),
    ("psd.level1_iters", "count", _count("psd.solve", "level1")),
    ("general.build_s", "s", _incl("general.build")),
    ("general.level2_apply_s", "s", _incl("general.level2_apply")),
    ("general.level3_apply_s", "s", _incl("general.level3_apply")),
    ("general.level2_iters", "count", _count("general.solve", "level2")),
    ("general.level3a_iters", "count", _count("general.solve", "level3a")),
    ("general.level3b_iters", "count", _count("general.solve", "level3b")),
    ("general.a_applies", "count", _count("general.solve", "a_applies")),
    *[(f"lanczos.{lv}_{what}", unit, fn(f"lanczos.{lv}"))
      for lv in ("level1", "level2", "level3", "baseline")
      for what, unit, fn in (("self_s", "s", _self), ("calls", "count", _calls))],
    ("apps.kernel_s", "s", _incl("apps.kernel")),
    ("apps.d_lambda_s", "s", lambda sp, own, idx: _d_lambda(sp, own, idx, "s")),
    ("apps.d_lambda_solves", "count", lambda sp, own, idx: _d_lambda(sp, own, idx, "n")),
    ("core.power_s", "s", _incl("core.power")),
    ("core.power_calls", "count", _calls("core.power")),
    ("bench.baseline_s", "s", _incl("bench.baseline")),
    ("bench.baseline_iters", "count", _count("bench.baseline", "iters")),
]

# Metrics that are not sums per root call: ratios and means over all spans.
DERIVED = [
    ("psd.level2_iters_per_apply", "count"),
    ("general.level2_exhausted_frac", "ratio"),
    ("nystrom.s", "count"),
    ("apps.l_choice", "count"),
]

OVERHEAD = [("trace.solve_s", "s"), ("trace.overhead_s", "s")]

LAYER_METRICS = [(n, u) for n, u, _ in PER_ROOT] + DERIVED + OVERHEAD


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Every per-layer metric except the tracing overhead, from one run's spans."""
    own = _self_times(spans)
    roots: Dict[int, List[int]] = {}
    for i, s in enumerate(spans):
        roots.setdefault(s.solve_id, []).append(i)
    by_kind: Dict[str, List[List[int]]] = {}
    for idx in roots.values():
        by_kind.setdefault(spans[idx[0]].kind, []).append(idx)

    out = {}
    for name, _unit, quantity in PER_ROOT:
        out[name] = sum(_mean(quantity(spans, own, idx) for idx in group)
                        for group in by_kind.values())

    applies = out["psd.level2_applies"]
    out["psd.level2_iters_per_apply"] = out["psd.level2_iters"] / applies if applies else 0.0
    runs = sum(1 for s in spans if s.name == "general.level2_apply")
    exhausted = sum(s.counts.get("level2_exhausted", 0) for s in spans
                    if s.name == "general.solve")
    out["general.level2_exhausted_frac"] = exhausted / runs if runs else 0.0
    out["nystrom.s"] = _mean(s.counts["s"] for s in spans if s.name == "nystrom.build")
    out["apps.l_choice"] = _mean(s.counts["l_choice"] for s in spans
                                 if s.name == "apps.solve_krr")
    return out
