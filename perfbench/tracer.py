"""Span tracer that wraps the program's module-level functions from outside.

Each wrapped call records one span (name, start, end, parent span, op id)
into flat in-memory arrays; nothing is written until the run has ended.
The program itself is not modified: wrappers replace the function object
under every name that refers to it in the package's module globals, so
calls made through `from .region import solve_rho_star` style imports are
seen too.  A target that no longer exists is reported as absent.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

PACKAGE = "gmac_seit"

# module.function for every layer boundary the benchmark traces
TARGETS = (
    "cli.main",
    "mc.run",
    "mc.run_trial",
    "coder.simulate_block",
    "coder.init_phase",
    "coder.encode_step",
    "coder.receiver_update",
    "coder.decode",
    "channel.step",
    "region.solve_rho_star",
    "region.sample_boundary_records",
    "region._grid_boxes",
    "region._pareto_filter",
    "region.records_to_csv",
    "region.contains",
    "region.region_box_fb",
)


class Tracer:
    def __init__(self):
        self.names = list(TARGETS)
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op_id = -1
        self.rows_in = 0  # _pareto_filter input rows
        self.rows_out = 0  # _pareto_filter records kept
        self.contains_result: dict[int, bool] = {}  # span index -> result
        self.absent: list[str] = []
        self._restore: list[tuple[object, str, object]] = []
        self._cache_fn = None
        self._cache_before = None
        self._cache_after = None

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == PACKAGE
                                         or k.startswith(PACKAGE + "."))]
        for nid, qual in enumerate(self.names):
            mod_name, fn_name = qual.split(".")
            mod = sys.modules.get(f"{PACKAGE}.{mod_name}")
            orig = getattr(mod, fn_name, None) if mod is not None else None
            if not callable(orig):
                self.absent.append(qual)
                continue
            if qual == "region._grid_boxes" and hasattr(orig, "cache_info"):
                self._cache_fn = orig
                self._cache_before = orig.cache_info()
            wrapper = self._wrap(nid, qual, orig)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapper)
                        self._restore.append((m, key, orig))

    def uninstall(self) -> None:
        for m, key, orig in reversed(self._restore):
            setattr(m, key, orig)
        self._restore.clear()
        if self._cache_fn is not None:
            self._cache_after = self._cache_fn.cache_info()

    def _wrap(self, nid: int, qual: str, fn):
        name, parent, op = self.name, self.parent, self.op
        start, end, stack = self.start, self.end, self.stack
        clock = time.perf_counter
        tracer = self
        on_return = None
        if qual == "region._pareto_filter":
            def on_return(idx, args, result):
                tracer.rows_in += len(args[0])
                tracer.rows_out += len(result)
        elif qual == "region.contains":
            def on_return(idx, args, result):
                tracer.contains_result[idx] = bool(result)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.op_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if on_return is not None:
                on_return(idx, args, result)
            return result

        return wrapper

    # -- analysis -----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self, uses_per_block: int) -> tuple[dict, list[str]]:
        """Per-layer metrics by name, and the names that could not be measured.

        uses_per_block is the channel uses of one simulated block (n + 3),
        or 0 for workloads that simulate nothing.
        """
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child_s = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        self_s = dur - child_s
        calls = np.bincount(name, minlength=len(self.names))
        total = np.bincount(name, weights=dur, minlength=len(self.names))
        selft = np.bincount(name, weights=self_s, minlength=len(self.names))

        m: dict[str, float] = {}
        absent = set(self.absent)
        for nid, qual in enumerate(self.names):
            m[f"{qual}.calls"] = int(calls[nid])
            m[f"{qual}.total_s"] = float(total[nid])
            m[f"{qual}.self_s"] = float(selft[nid])

        def derived(key, needs, value):
            m[key] = value
            if absent.intersection(needs):
                absent.add(key)

        blocks = m["coder.simulate_block.calls"]
        uses = blocks * uses_per_block
        derived("coder.simulate_block.us_per_use", ["coder.simulate_block"],
                1e6 * m["coder.simulate_block.total_s"] / uses if uses else 0.0)
        derived("coder.decode_exact.calls",
                ["coder.simulate_block", "coder.decode"],
                blocks - m["coder.decode.calls"])
        trials = m["mc.run_trial.calls"]
        derived("mc.run_trial.us_per_trial", ["mc.run_trial"],
                1e6 * m["mc.run_trial.self_s"] / trials if trials else 0.0)
        derived("region._pareto_filter.rows_in", ["region._pareto_filter"],
                self.rows_in)
        derived("region._pareto_filter.rows_out", ["region._pareto_filter"],
                self.rows_out)
        hits = misses = 0
        if self._cache_before is not None and self._cache_after is not None:
            hits = self._cache_after.hits - self._cache_before.hits
            misses = self._cache_after.misses - self._cache_before.misses
        else:
            absent.update(["region._grid_boxes.cache_hits",
                           "region._grid_boxes.cache_misses"])
        m["region._grid_boxes.cache_hits"] = hits
        m["region._grid_boxes.cache_misses"] = misses

        # classify contains calls by whether any region_box_fb call ran
        # beneath them (the refinement) and by their result
        contains_id = self.names.index("region.contains")
        box_id = self.names.index("region.region_box_fb")
        box_calls = self._descendant_counts(name, parent, contains_id, box_id)
        hit = accept = reject = 0
        refine_s = 0.0
        for idx, ok in self.contains_result.items():
            refined = box_calls.get(idx, 0) > 0
            if not ok:
                reject += 1
            elif refined:
                accept += 1
            else:
                hit += 1
            if refined:
                refine_s += float(dur[idx])
        needs = ["region.contains", "region.region_box_fb"]
        derived("region.contains.grid_hits", needs, hit)
        derived("region.contains.refined_accepts", needs, accept)
        derived("region.contains.rejects", ["region.contains"], reject)
        derived("region.contains.refine_s", needs, refine_s)
        return m, sorted(absent)

    @staticmethod
    def _descendant_counts(name, parent, anc_id: int, leaf_id: int) -> dict:
        """For each span named anc_id: how many leaf_id spans lie beneath it."""
        # parents are recorded before their children, so one forward pass
        # resolves every span's nearest anc_id ancestor
        anc = [-1] * len(name)
        counts: dict[int, int] = {}
        for i, (nid, p) in enumerate(zip(name.tolist(), parent.tolist())):
            if nid == anc_id:
                anc[i] = i
            elif p >= 0:
                a = anc[i] = anc[p]
                if nid == leaf_id and a >= 0:
                    counts[a] = counts.get(a, 0) + 1
        return counts
