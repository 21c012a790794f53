"""Spans around the layer boundaries of gbl, recorded from outside the package.

`Tracer.install` replaces module attributes with timing wrappers: the public
gbl functions of each layer, and the numpy/scipy entry points the layers
call through (`np.linalg.eigvalsh`, the `minimize` of
certifier, the `brentq` of grassmann).  gbl looks these names
up on its modules at call time, so the wrappers see every call, from the
benchmark and from inside the package.  Nothing in `src/gbl` changes.

A span is (name, parent, start, end); spans stay in memory until the run
ends.  A span's self time is its duration minus the durations of its direct
children, which nest inside it because the workload runs on one thread.
Counts come from the arguments and results seen at the same boundaries;
"computed" counts follow from array shapes, not from hardware counters.
"""
from __future__ import annotations

import functools
import json
import time
from collections import Counter

import numpy as np

from gbl import certifier, cli, graphs, grassmann, shrinking

_MODULES = {
    "certifier": certifier,
    "cli": cli,
    "graphs": graphs,
    "grassmann": grassmann,
    "shrinking": shrinking,
    "np.linalg": np.linalg,
}


def _batch(a) -> int:
    return int(np.prod(np.shape(a)[:-2]))


# Counters run at span boundaries and add to Tracer.counts, keyed by metric
# name.  Those on arguments run before the call, so work handed to a call
# that raises counts.

def _eigvalsh_in(c, args):
    # eigenvalues only: the tridiagonal reduction dominates at 4/3 d^3 flops
    d = np.shape(args[0])[-1]
    c["certifier.eigvalsh.matrices"] += _batch(args[0])
    c["certifier.eigvalsh.flops_computed"] += _batch(args[0]) * 4.0 * d**3 / 3.0


def _profiles_in(c, args):
    lams = np.asarray(args[2])
    c["certifier.eigensolve.profiles"] += lams.shape[0]
    c["certifier.eigensolve.distinct"] += np.unique(lams, axis=0).shape[0]


def _sample_out(c, lams):
    c["certifier.sample.rows"] += lams.shape[0]


def _dense_out(c, forms):
    c["certifier.assemble_dense.matrices"] += forms.shape[0]
    c["certifier.assemble_dense.bytes_computed"] += forms.nbytes


def _polish_out(c, res):
    c["certifier.polish.evals"] += res.nfev


def _iterate_out(c, trace):
    c["shrinking.iterate.steps"] += trace.k_actual


def _chart_sample_out(c, Zs):
    c["grassmann.sample_chart_sublevel.rows"] += Zs.shape[0]


# span name -> per-layer group whose self_s gets the span's self time
SPANS = {
    "certifier.sample_admissible_lambdas": "certifier.sample",
    "certifier.quadratic_form_batch": "certifier.assemble_dense",
    "np.linalg.eigvalsh": "certifier.eigvalsh",
    "certifier.minimize": "certifier.polish",
    "certifier.compute_K0": "certifier.search",
    "certifier.min_form_eigenvalue": "certifier.search",
    "shrinking.iterate": "shrinking.iterate",
    "grassmann.sample_chart_sublevel": "grassmann.sample_chart_sublevel",
    "grassmann.to_chart": "grassmann.chart",
    "grassmann.from_chart": "grassmann.chart",
    "grassmann.t_embedding": "grassmann.chart",
    "grassmann.t_embedding_inverse": "grassmann.t_embedding_inverse",
    "grassmann.brentq": "grassmann.t_embedding_inverse",
    "grassmann.jordan_decompose": "grassmann.jordan_decompose",
    "graphs.point_geometry": "graphs.point_geometry",
    "graphs.laplacian_v_closed_form": "graphs.point_geometry",
    "graphs.laplacian_v_finite_difference": "graphs.fd_laplacian",
    "graphs.graph_v": "graphs.fd_laplacian",
    "graphs.mean_gauss_image": "graphs.mean_gauss_image",
    "graphs.builtin": "graphs.builtin",
    "cli.main": "cli.main",
}
_COUNT_ARGS = {
    "np.linalg.eigvalsh": _eigvalsh_in,
    "certifier.min_form_eigenvalue": _profiles_in,
}
_COUNT_RESULT = {
    "certifier.sample_admissible_lambdas": _sample_out,
    "certifier.quadratic_form_batch": _dense_out,
    "certifier.minimize": _polish_out,
    "shrinking.iterate": _iterate_out,
    "grassmann.sample_chart_sublevel": _chart_sample_out,
}

_SELF_GROUPS = sorted(set(SPANS.values()))

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    [(f"{group}.self_s", "s", "lower") for group in _SELF_GROUPS]
    + [
        ("certifier.sample.rows", "count", "lower"),
        ("certifier.assemble_dense.matrices", "count", "lower"),
        ("certifier.assemble_dense.bytes_computed", "B", "lower"),
        ("certifier.eigvalsh.matrices", "count", "lower"),
        ("certifier.eigvalsh.flops_computed", "flop", "lower"),
        ("certifier.eigensolve.profiles", "count", "lower"),
        ("certifier.eigensolve.unique_ratio", "ratio", "higher"),
        ("certifier.polish.evals", "count", "lower"),
        ("shrinking.iterate.steps", "count", "lower"),
        ("grassmann.sample_chart_sublevel.rows", "count", "lower"),
        ("grassmann.chart.calls", "count", "lower"),
        ("grassmann.t_embedding_inverse.root_evals", "count", "lower"),
        ("grassmann.jordan_decompose.calls", "count", "lower"),
        ("graphs.point_geometry.calls", "count", "lower"),
        ("graphs.graph_v.calls", "count", "lower"),
        ("trace.campaign_s", "s", "lower"),
        ("trace.coverage", "ratio", "higher"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
)

# count metric -> (span names whose calls it counts) for the call counts
_CALL_COUNTS = {
    "grassmann.chart.calls": ("grassmann.to_chart", "grassmann.from_chart", "grassmann.t_embedding"),
    "grassmann.jordan_decompose.calls": ("grassmann.jordan_decompose",),
    "graphs.point_geometry.calls": ("graphs.point_geometry",),
    "graphs.graph_v.calls": ("graphs.graph_v",),
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list = []          # [name, parent index or -1, start, end]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def install(self) -> None:
        """Wrap every name in SPANS on its module."""
        for span_name in SPANS:
            module_name, attr = span_name.rsplit(".", 1)
            module = _MODULES[module_name]
            fn = getattr(module, attr)
            if span_name == "grassmann.brentq":
                fn = self._counting_root_finder(fn)
            setattr(module, attr, self._wrap(fn, span_name))

    def _counting_root_finder(self, brentq):
        counts = self.counts

        @functools.wraps(brentq)
        def counted_brentq(f, *args, **kwargs):
            def g(*a):
                counts["grassmann.t_embedding_inverse.root_evals"] += 1
                return f(*a)

            return brentq(g, *args, **kwargs)

        return counted_brentq

    def _owner(self, index: int) -> str | None:
        """Group a span's time and counts belong to.

        numpy's entry points count as certifier work only when a certifier
        span calls them; elsewhere (numpy's own Gauss-Legendre nodes inside
        mean_gauss_image, say) they are charged to the calling layer.
        """
        name, parent = self.spans[index][:2]
        if not name.startswith("np.") or (parent >= 0 and self.spans[parent][0].startswith("certifier.")):
            return SPANS[name]
        return self._owner(parent) if parent >= 0 else None

    def _wrap(self, fn, name):
        group = SPANS[name]
        count_args, count_result = _COUNT_ARGS.get(name), _COUNT_RESULT.get(name)
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(span)
            counted = self._owner(index) == group
            if count_args is not None and counted:
                count_args(counts, args)
            stack.append(index)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if count_result is not None and counted:
                count_result(counts, result)
            return result

        return traced

    def self_times(self) -> list[float]:
        out = [end - start for (_, _, start, end) in self.spans]
        for name, parent, start, end in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def per_layer(self, campaign_start: float, campaign_s: float) -> dict:
        """Every per-layer metric but trace.overhead_ratio, as name -> {value, unit}."""
        selfs = self.self_times()
        values = {f"{group}.self_s": 0.0 for group in _SELF_GROUPS}
        calls = Counter()
        covered = 0.0
        for index, ((name, parent, start, end), own) in enumerate(zip(self.spans, selfs)):
            owner = self._owner(index)
            if owner is not None:
                values[f"{owner}.self_s"] += own
            calls[name] += 1
            if parent < 0 and start >= campaign_start:
                covered += end - start
        values.update((key, float(count)) for key, count in self.counts.items())
        profiles = self.counts["certifier.eigensolve.profiles"]
        values["certifier.eigensolve.unique_ratio"] = (
            self.counts["certifier.eigensolve.distinct"] / profiles if profiles else 0.0
        )
        for metric, names in _CALL_COUNTS.items():
            values[metric] = float(sum(calls[n] for n in names))
        values["trace.campaign_s"] = campaign_s
        values["trace.coverage"] = covered / campaign_s
        return {
            name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit, _ in PER_LAYER
            if name != "trace.overhead_ratio"
        }

    def write(self, path) -> None:
        """One JSON line [name, parent index, start, end] per span (perf_counter seconds)."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
