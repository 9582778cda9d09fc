"""Per-layer tracing for the traced run, kept entirely in the benchmark.

``Tracer.install`` replaces the public names that caller modules look up
(for example ``qdigamma.inequalities.psi_qk``, ``qdigamma.qcore.sum_terms``
and ``qdigamma.cli.verify_bounds``) with timing wrappers; ``uninstall`` puts
the originals back.  Every wrapped call records a span (name, parent, start,
end) in memory; self time is a span's duration minus its child spans'.
Counts are taken at the same boundaries.  The runner keeps the spans of the
first traced repeat only (``record``), so memory stays bounded; counts and
self times cover every traced repeat.  ``save`` writes the spans out once the
run is over.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

KERNELS = ("psi_qk", "psi_qk_prime", "ln_gamma_qk", "psi_pq", "psi_pq_prime", "ln_gamma_pq")
SCANS = ("limit_k_to_1", "limit_q_to_1_qk", "limit_q_to_1_pq", "limit_p_to_inf", "limit_combined_pq")
ORACLES = ("brute_force_series", "classical_digamma", "k_digamma_ref", "p_digamma_ref")
ENGINE = ("verify_bounds", "validate_spec", "ratio_G", "ratio_H", "check_lemma_cross")

LAYER = {
    **{n: "qcore" for n in KERNELS},
    "sum_terms": "series.sum", "geometric_terms_needed": "series.search",
    "find_positive_threshold": "threshold", "make_verification_grid": "grid",
    **{n: "engine" for n in ENGINE},
    **{n: "scan" for n in SCANS},
    **{n: "oracle" for n in ORACLES},
    "dumps": "render", "format_float": "render", "main": "cli",
}

# caller module -> the names it looks up at call time
PATCHES = {
    "qcore": KERNELS + ("sum_terms", "geometric_terms_needed"),
    "inequalities": ("psi_qk", "psi_qk_prime", "psi_pq", "psi_pq_prime",
                     "find_positive_threshold", "make_verification_grid") + ENGINE,
    "limits": ("psi_qk", "psi_pq") + ORACLES,
    "reference": ("classical_digamma",),
    "cli": ("main", "find_positive_threshold", "make_verification_grid",
            "verify_bounds", "validate_spec", "ratio_G", "ratio_H") + KERNELS + SCANS,
    "_jsonfmt": ("dumps", "format_float"),
}

# (metric, unit, better); counts and times are per traced round
PER_LAYER = (
    ("qcore.calls", "count/round", "lower"),
    ("qcore.self_s", "s/round", "lower"),
    ("qcore.us_per_call", "us", "lower"),
    ("qcore.terms", "count/round", "lower"),
    ("qcore.not_converged", "count/round", "lower"),
    ("series.sum_calls", "count/round", "lower"),
    ("series.terms_summed", "count/round", "lower"),
    ("series.sum_s", "s/round", "lower"),
    ("series.ns_per_term", "ns", "lower"),
    ("series.nonzero_ratio", "ratio", "higher"),
    ("series.search_calls", "count/round", "lower"),
    ("series.search_s", "s/round", "lower"),
    ("threshold.calls", "count/round", "lower"),
    ("threshold.psi_evals", "count/round", "lower"),
    ("threshold.self_s", "s/round", "lower"),
    ("grid.self_s", "s/round", "lower"),
    ("grid.pairs", "count/round", "higher"),
    ("engine.self_s", "s/round", "lower"),
    ("engine.checks", "count/round", "higher"),
    ("engine.evals_per_check", "ratio", "lower"),
    ("scan.self_s", "s/round", "lower"),
    ("scan.evals", "count/round", "lower"),
    ("oracle.self_s", "s/round", "lower"),
    ("oracle.terms", "count/round", "lower"),
    ("cli.self_s", "s/round", "lower"),
    ("render.self_s", "s/round", "lower"),
    ("render.bytes", "bytes/round", "lower"),
    ("trace.overhead_s", "s/round", "lower"),
)


def _oracle_terms(name: str, args: tuple) -> int:
    """Terms an oracle adds up, from its arguments."""
    if name == "brute_force_series":
        return int(args[3])
    if name == "p_digamma_ref":
        return int(args[1]) + 1
    if name == "classical_digamma":
        return max(0, int(np.ceil(10.0 - float(args[0])))) + 6
    return 0


class Tracer:
    def __init__(self, qd):
        self.qd = qd
        self.name_ids: dict = {}
        self.parents = array("q")
        self.names = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.record = True  # keep spans; counts and self times are always kept
        self.stack: list = []  # [span index or -1, start, child time, layer, scope]
        self.self_s = Counter()  # layer -> self seconds
        self.incl_s = Counter()  # layer -> inclusive seconds
        self.count = Counter()
        self.depth = Counter()  # open spans per scope: threshold, verify, scan
        self._wrappers: dict = {}
        self._saved: list = []

    # -- spans ---------------------------------------------------------------
    def _enter(self, name: str, layer: str, scope) -> None:
        idx = -1
        if self.record:
            idx = len(self.starts)
            self.parents.append(self.stack[-1][0] if self.stack else -1)
            self.names.append(self.name_ids.setdefault(name, len(self.name_ids)))
            self.starts.append(0.0)
            self.ends.append(0.0)
        now = time.perf_counter()
        if idx >= 0:
            self.starts[idx] = now
        self.stack.append([idx, now, 0.0, layer, scope])
        if scope:
            self.depth[scope] += 1

    def _leave(self) -> None:
        now = time.perf_counter()
        idx, start, child, layer, scope = self.stack.pop()
        if idx >= 0:
            self.ends[idx] = now
        dur = now - start
        self.self_s[layer] += dur - child
        self.incl_s[layer] += dur
        if self.stack:
            self.stack[-1][2] += dur
        if scope:
            self.depth[scope] -= 1

    def _wrap(self, name: str, fn):
        layer = LAYER[name]
        scope = {"threshold": "threshold", "scan": "scan"}.get(layer)
        if name == "verify_bounds":
            scope = "verify"
        count = self.count
        depth = self.depth
        tracer = self

        def wrapper(*args, **kwargs):
            if layer == "qcore":
                count["qcore.calls"] += 1
                for s in ("threshold", "verify", "scan"):
                    if depth[s]:
                        count[f"{s}.kernel_calls"] += 1
            elif layer == "series.sum":
                count["series.sum_calls"] += 1
                count["series.terms_summed"] += max(0, int(args[2]) - int(args[1]) + 1)
                term_fn = args[0]

                def counted(n):
                    v = term_fn(n)
                    count["series.nonzero"] += int(np.count_nonzero(v))
                    return v
                args = (counted,) + args[1:]
            elif layer == "series.search":
                count["series.search_calls"] += 1
            elif layer == "threshold":
                count["threshold.calls"] += 1
            elif layer == "oracle":
                count["oracle.terms"] += _oracle_terms(name, args)
            tracer._enter(name, layer, scope)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == "TruncationNotConverged" and layer == "qcore":
                    count["qcore.not_converged"] += 1
                raise
            finally:
                tracer._leave()
            if layer == "qcore":
                count["qcore.terms"] += result.terms_used
            elif layer == "grid":
                count["grid.pairs"] += len(result.pairs)
            elif name == "verify_bounds":
                count["engine.checks"] += result.checks_run
            return result
        return wrapper

    # -- patching ------------------------------------------------------------
    def install(self) -> None:
        for module_name, names in PATCHES.items():
            module = getattr(self.qd, module_name)
            for name in names:
                original = getattr(module, name)
                key = id(original)
                if key not in self._wrappers:
                    self._wrappers[key] = self._wrap(name, original)
                self._saved.append((module, name, original))
                setattr(module, name, self._wrappers[key])

    def uninstall(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    # -- results -------------------------------------------------------------
    def metrics(self, rounds: int, render_bytes: int, overhead_s: float) -> dict:
        c, s, n = self.count, self.self_s, max(rounds, 1)
        calls, terms = c["qcore.calls"], c["series.terms_summed"]
        values = {
            "qcore.calls": calls / n,
            "qcore.self_s": s["qcore"] / n,
            "qcore.us_per_call": 1e6 * self.incl_s["qcore"] / calls if calls else 0.0,
            "qcore.terms": c["qcore.terms"] / n,
            "qcore.not_converged": c["qcore.not_converged"] / n,
            "series.sum_calls": c["series.sum_calls"] / n,
            "series.terms_summed": terms / n,
            "series.sum_s": s["series.sum"] / n,
            "series.ns_per_term": 1e9 * s["series.sum"] / terms if terms else 0.0,
            "series.nonzero_ratio": c["series.nonzero"] / terms if terms else 0.0,
            "series.search_calls": c["series.search_calls"] / n,
            "series.search_s": s["series.search"] / n,
            "threshold.calls": c["threshold.calls"] / n,
            "threshold.psi_evals": c["threshold.kernel_calls"] / n,
            "threshold.self_s": s["threshold"] / n,
            "grid.self_s": s["grid"] / n,
            "grid.pairs": c["grid.pairs"] / n,
            "engine.self_s": s["engine"] / n,
            "engine.checks": c["engine.checks"] / n,
            "engine.evals_per_check": (c["verify.kernel_calls"] / c["engine.checks"]
                                       if c["engine.checks"] else 0.0),
            "scan.self_s": s["scan"] / n,
            "scan.evals": c["scan.kernel_calls"] / n,
            "oracle.self_s": s["oracle"] / n,
            "oracle.terms": c["oracle.terms"] / n,
            "cli.self_s": s["cli"] / n,
            "render.self_s": s["render"] / n,
            "render.bytes": render_bytes / n,
            "trace.overhead_s": overhead_s,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}

    def save(self, path: Path, metrics: dict) -> None:
        """Write the spans (.npy) and the name table with the metrics (.json)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = np.zeros(len(self.starts), dtype=[("parent", "i8"), ("name", "u2"),
                                                   ("start", "f8"), ("end", "f8")])
        spans["parent"] = np.frombuffer(self.parents, dtype=np.int64)
        spans["name"] = np.frombuffer(self.names, dtype=np.uint16)
        spans["start"] = np.frombuffer(self.starts, dtype=np.float64)
        spans["end"] = np.frombuffer(self.ends, dtype=np.float64)
        np.save(path.with_suffix(".npy"), spans)
        names = sorted(self.name_ids, key=self.name_ids.get)
        path.with_suffix(".json").write_text(json.dumps(
            {"names": names, "layers": {n: LAYER[n] for n in names}, "metrics": metrics}, indent=1))
