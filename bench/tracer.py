"""Span tracer that wraps majdet's public functions from the outside.

`Tracer.install()` replaces each listed function with a timing wrapper in
every loaded ``majdet`` module that binds it (``catalog`` imports its
kernels by name, so patching ``linalg`` alone would miss those calls) and
`uninstall()` puts the originals back. A function missing from the program
is skipped and reports zero calls.

Spans carry name, start, end, parent and the op that caused them; they are
kept in memory and written out by `write_spans`. Per-name call counts,
total and self time are folded online, so the totals stay exact even when
the span log hits its cap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# Layer -> public functions wrapped. catalog._fingerprint is private but is
# the fingerprint step of every check, which the catalog layer is judged on.
LAYERS = {
    "fuzzing": ("fuzz", "run_trial", "build_instance", "sample_pd"),
    "catalog": ("run_check", "product_spectra", "_fingerprint", "matic_exact",
                "inv_square_sum_exact"),
    "linalg": ("cholesky", "jacobi_eigen", "eigvals_sym", "eig_pd_product", "pd_inverse",
               "logdet_pd", "singular_values", "sym_power", "require_symmetric"),
    "orders": ("check_order", "sort_desc"),
    "blocks": ("diag_blocks", "direct_sum", "principal_submatrix"),
    "exact": ("det_exact", "inverse_exact", "mat_mul"),
    "matio": ("read_matrix",),
    "scenarios": ("run_all",),
    "cli": ("main",),
}

QUALNAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)
OP_SPAN = "bench.op"
MAX_SPANS = 500_000


class Tracer:
    def __init__(self):
        self.names = [OP_SPAN, *QUALNAMES]
        self._index = {name: i for i, name in enumerate(self.names)}
        count = len(self.names)
        self.calls = [0] * count
        self.total_ns = [0] * count
        self.self_ns = [0] * count
        # (parent name, child name) -> [child calls, parent spans with >= 1 such child]
        self.edges: dict[tuple[int, int], list[int]] = {}
        self.dropped = 0
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self._stack: list[list] = []  # [span index, name index, child ns, child names seen]
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _enter(self, name_idx: int) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        span = -1
        if len(self.span_start) < MAX_SPANS:
            span = len(self.span_start)
            self.span_name.append(name_idx)
            self.span_start.append(0)
            self.span_end.append(0)
            self.span_parent.append(parent)
            self.span_op.append(self._op)
        else:
            self.dropped += 1
        frame = [span, name_idx, 0, None]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, t0: int, t1: int) -> None:
        self._stack.pop()
        span, name_idx, child_ns, _ = frame
        dur = t1 - t0
        self.calls[name_idx] += 1
        self.total_ns[name_idx] += dur
        self.self_ns[name_idx] += dur - child_ns
        if span >= 0:
            self.span_start[span] = t0
            self.span_end[span] = t1
        if self._stack:
            parent = self._stack[-1]
            parent[2] += dur
            edge = self.edges.setdefault((parent[1], name_idx), [0, 0])
            edge[0] += 1
            if parent[3] is None:
                parent[3] = set()
            if name_idx not in parent[3]:
                parent[3].add(name_idx)
                edge[1] += 1

    def _wrap(self, name_idx: int, fn):
        enter, leave, clock = self._enter, self._exit, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(name_idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame, t0, clock())

        return traced

    def op(self, fn, *args, **kwargs):
        """Run one benchmark op under a root span that its spans descend from."""
        self._op += 1
        frame = self._enter(0)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(frame, t0, time.perf_counter_ns())

    # -- patching ----------------------------------------------------------
    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "majdet" or name.startswith("majdet."))]
        for qual in QUALNAMES:
            mod_name, fn_name = qual.split(".")
            home = sys.modules.get(f"majdet.{mod_name}")
            original = getattr(home, fn_name, None) if home is not None else None
            if original is None:
                continue
            wrapped = self._wrap(self._index[qual], original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------
    def calls_of(self, qual: str) -> int:
        return self.calls[self._index[qual]]

    def edge(self, parent: str, child: str) -> tuple[int, int]:
        """(child calls under parent, parent spans that made >= 1 such call)."""
        calls, parents = self.edges.get((self._index[parent], self._index[child]), (0, 0))
        return calls, parents

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per wrapped function: calls, self and total time, each per op."""
        out = {}
        per = max(ops, 1)
        for qual in QUALNAMES:
            i = self._index[qual]
            out[f"{qual}.calls"] = (self.calls[i] / per, "calls/op")
            out[f"{qual}.self_ms"] = (self.self_ns[i] / 1e6 / per, "ms/op")
            out[f"{qual}.total_ms"] = (self.total_ns[i] / 1e6 / per, "ms/op")
        return out

    def write_spans(self, path) -> None:
        """JSON lines: a header naming the columns, then one span per line."""
        base = min(self.span_start) if self.span_start else 0
        header = {"names": self.names, "dropped": self.dropped,
                  "columns": ["name", "start_ns", "end_ns", "parent", "op"]}
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            fh.writelines(
                f"[{self.span_name[i]},{self.span_start[i] - base},{self.span_end[i] - base},"
                f"{self.span_parent[i]},{self.span_op[i]}]\n"
                for i in range(len(self.span_start)))
