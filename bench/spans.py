"""Spans around the public functions of each graphheat layer, recorded in memory.

``Tracer.install`` wraps each function named in ``LAYERS`` and puts the
wrapper in place of the original in every graphheat module that binds it
(``graphheat.asymptotics.heat_element`` and ``graphheat.cli.decompose`` as
well as the defining module), and wraps ``LaplacianOperator.apply`` on the
class.  Each call then records a span: layer, parent span, start, end, and
for ``apply`` the number of output entries.  Self time is a span's duration
minus the durations of its child spans; ``.s`` totals count only the
outermost span of a layer, so ``from_spec`` calling ``cycle_graph`` is
counted once.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

LAYERS = {
    "operators.apply": ("graphheat.operators", ["LaplacianOperator.apply"]),
    "operators.inner": ("graphheat.operators", ["inner"]),
    "moments": ("graphheat.moments", ["moment", "moment_table", "leading_moment_order",
                                      "first_nonzero_moments", "path_sum_moment"]),
    "graphs.bfs": ("graphheat.graphs", ["combinatorial_distance", "distances_from"]),
    "spectral.decompose": ("graphheat.spectral", ["decompose"]),
    "spectral.element": ("graphheat.spectral", ["heat_element", "wave_element"]),
    "asymptotics.reports": ("graphheat.asymptotics", ["pair_verification_reports"]),
    "asymptotics.fit": ("graphheat.asymptotics", ["leading_exponent_fit"]),
    "generators.build": ("graphheat.generators", ["path_graph", "cycle_graph", "complete_graph",
                                                  "star_graph", "random_graph",
                                                  "random_connected_graph", "integer_line",
                                                  "from_spec"]),
    "graphio.load": ("graphheat.graphio", ["load_graph", "parse_graph"]),
    "cli": ("graphheat.cli", ["main"]),
}

# span record fields
LAYER, PARENT, START, END, OUTER, ENTRIES = range(6)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self._depth = dict.fromkeys(LAYERS, 0)

    def _wrap(self, layer, fn):
        spans, stack, depth, clock = self.spans, self._stack, self._depth, self.clock
        counts_entries = layer == "operators.apply"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [layer, stack[-1] if stack else -1, 0.0, 0.0, depth[layer] == 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            depth[layer] += 1
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                depth[layer] -= 1
                stack.pop()
            if counts_entries:
                rec[ENTRIES] = len(out)
            return out

        return traced

    def install(self):
        """Wrap every function in LAYERS wherever graphheat binds it."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "graphheat" or name.startswith("graphheat."))]
        for layer, (home, names) in LAYERS.items():
            for name in names:
                owner = sys.modules[home]
                attr = name
                if "." in name:
                    cls_name, attr = name.split(".")
                    owner = getattr(owner, cls_name)
                original = getattr(owner, attr)
                wrapper = self._wrap(layer, original)
                setattr(owner, attr, wrapper)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)

    def dump(self, path):
        """Write the spans as tab-separated lines: index, parent, layer, start, end, entries."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\tlayer\tstart\tend\tentries\n")
            for i, rec in enumerate(self.spans):
                fh.write(f"{i}\t{rec[PARENT]}\t{rec[LAYER]}\t{rec[START]!r}\t{rec[END]!r}"
                         f"\t{rec[ENTRIES]}\n")

    def metrics(self):
        """Per-layer counts and times of the recorded spans."""
        spans = self.spans
        children = [0.0] * len(spans)
        applies_in = [0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                children[rec[PARENT]] += rec[END] - rec[START]
        for rec in spans:
            if rec[LAYER] == "operators.apply":
                p = rec[PARENT]
                while p >= 0 and spans[p][LAYER] != "spectral.element":
                    p = spans[p][PARENT]
                if p >= 0:
                    applies_in[p] += 1
        calls = dict.fromkeys(LAYERS, 0)
        total = dict.fromkeys(LAYERS, 0.0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        entries = eigen_s = series_s = 0.0
        element_applies = 0
        for i, rec in enumerate(spans):
            layer, dur = rec[LAYER], rec[END] - rec[START]
            calls[layer] += 1
            self_s[layer] += dur - children[i]
            if rec[OUTER]:
                total[layer] += dur
            entries += rec[ENTRIES]
            if layer == "spectral.element":
                element_applies += applies_in[i]
                if applies_in[i]:
                    series_s += dur
                else:
                    eigen_s += dur
        applies = calls["operators.apply"]
        elements = calls["spectral.element"]
        apply_s = total["operators.apply"]
        return {
            "operators.apply.calls": applies,
            "operators.apply.s": apply_s,
            "operators.apply.us_per_call": 1e6 * apply_s / applies if applies else 0.0,
            "operators.apply.entries": int(entries),
            "operators.inner.calls": calls["operators.inner"],
            "operators.inner.s": total["operators.inner"],
            "moments.calls": calls["moments"],
            "moments.self_s": self_s["moments"],
            "graphs.bfs.calls": calls["graphs.bfs"],
            "graphs.bfs.s": total["graphs.bfs"],
            "spectral.decompose.calls": calls["spectral.decompose"],
            "spectral.decompose.s": total["spectral.decompose"],
            "spectral.element.calls": elements,
            "spectral.element.s": total["spectral.element"],
            "spectral.element.self_s": self_s["spectral.element"],
            "spectral.element.applies_per_call": element_applies / elements if elements else 0.0,
            "spectral.element.eigen_s": eigen_s,
            "spectral.element.series_s": series_s,
            "asymptotics.reports.calls": calls["asymptotics.reports"],
            "asymptotics.reports.self_s": self_s["asymptotics.reports"],
            "asymptotics.fit.calls": calls["asymptotics.fit"],
            "asymptotics.fit.self_s": self_s["asymptotics.fit"],
            "generators.build.s": total["generators.build"],
            "graphio.load.s": total["graphio.load"],
            "cli.self_s": self_s["cli"],
        }


def median_metrics(samples):
    """Median of each metric over the traced rounds."""
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}
