"""Per-module spans, recorded from outside the library.

The tracer replaces a public function on the module where its caller looks
it up (``detksat.branching3.up_restrict``, not ``detksat.formula.up_restrict``)
with a wrapper that records a span: name, start, end and the enclosing span.
Spans are kept in memory and turned into per-layer metrics when the pass
ends. A layer is a module of ``src/detksat``; a span's self time is its
duration minus the time its child spans cover. The program is
single-threaded, so no layer waits on another and no waiting time is kept.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import Counter

from detksat import characteristic

# (module the caller looks the name up in, attribute, span name)
SITES = (
    ("detksat.formula", "parse_dimacs", "formula.parse_dimacs"),
    ("detksat.branching3", "restrict", "formula.restrict"),
    ("detksat.branching_k", "restrict", "formula.restrict"),
    ("detksat.branching3", "up_restrict", "formula.up_restrict"),
    ("detksat.branching3", "unit_propagate_tracked", "formula.unit_propagate_tracked"),
    ("detksat.branching3", "solve_2sat", "formula.solve_2sat"),
    ("detksat.branching_k", "solve_2sat", "formula.solve_2sat"),
    ("detksat.branching_k", "br_3", "branching3.br_3"),
    ("detksat.branching3", "procedure_p_tracked", "branching3.procedure_p_tracked"),
    ("detksat.branching3", "tb_set", "branching3.tb_set"),
    ("detksat.branching_k", "solve_ksat", "branching_k.solve_ksat"),
    ("detksat.branching_k", "br_k", "branching_k.br_k"),
    ("detksat.branching_k", "greedy_maximal_1chains", "branching_k.greedy_maximal_1chains"),
    ("detksat.branching_k", "dls", "local_search.dls"),
    ("detksat.local_search", "searchball", "local_search.searchball"),
    ("detksat.local_search", "structured_space_for", "local_search.structured_space_for"),
    ("detksat.local_search", "build_generalized_code", "covering.build_generalized_code"),
    ("detksat.covering", "cover_cube", "covering.cover_cube"),
    ("detksat.covering", "ell_cover_spaces", "covering.ell_cover_spaces"),
    ("detksat.characteristic", "solve_characteristic", "characteristic.solve_characteristic"),
    ("detksat.branching3", "lambda_for_zeta", "characteristic.lambda_for_zeta"),
    ("detksat.local_search", "lambda_for_zeta", "characteristic.lambda_for_zeta"),
    ("detksat.local_search", "characteristic_for_chain", "characteristic.characteristic_for_chain"),
    ("detksat.chains", "solution_space", "chains.solution_space"),
    ("detksat.characteristic", "solution_space", "chains.solution_space"),
    ("detksat.local_search", "solution_space", "chains.solution_space"),
    ("detksat.generator", "gen_random_kcnf", "generator.gen_random_kcnf"),
)


def _code_key(name: str, args: tuple):
    """Arguments that determine a covering code, without variable names."""
    if name == "covering.cover_cube":
        return (name, args[0], args[1])
    spaces, k, lam = args
    return (name, tuple((s.words, s.width) for s in spaces), k, lam)


class Tracer:
    def __init__(self) -> None:
        # each span: [name, start, end, parent index, nested in same name]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._saved: list[tuple] = []
        self._codes: set = set()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for modname, attr, name in SITES:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr, None)
            if fn is None:
                # a later refactor removed the function; its metrics read 0
                self.missing.append("%s.%s" % (modname, attr))
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        spans, stack, active = self.spans, self._stack, self._active
        observe = self._observe
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, active[name] > 0])
            stack.append(idx)
            active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                active[name] -= 1
                stack.pop()
                spans[idx][2] = clock()
            observe(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe(self, name: str, args: tuple, result) -> None:
        """Counts taken at the boundary, from arguments and results."""
        if name == "characteristic.solve_characteristic":
            if len(args[0].words) > characteristic.DENSE_LIMIT:
                self.counts["modular_calls"] += 1
        elif name == "covering.build_generalized_code":
            self.counts["code_centers"] += result.size()
        elif name in ("covering.cover_cube", "covering.ell_cover_spaces"):
            key = _code_key(name, args)
            if key in self._codes:
                self.counts["repeat_builds"] += 1
            self._codes.add(key)

    def write(self, path) -> None:
        """One JSON line per span: name, start, end, index of the parent."""
        with open(path, "w") as fh:
            for name, start, end, parent, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")

    # -- reduction ---------------------------------------------------------

    def layer_metrics(self, counters: dict) -> dict:
        """Per-layer metrics of everything traced so far. ``counters`` sums
        the solver's own statistics over the pass."""
        calls: Counter = Counter()
        total: Counter = Counter()  # outermost spans only, so recursion counts once
        child: list[float] = [0.0] * len(self.spans)
        for name, start, end, parent, nested in self.spans:
            calls[name] += 1
            if not nested:
                total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_time: Counter = Counter()
        for (name, start, end, _, _), inner in zip(self.spans, child):
            self_time[name] += end - start - inner

        def layer_self(layer: str) -> float:
            return sum(v for k, v in self_time.items() if k.startswith(layer + "."))

        def rate(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        up = ("formula.up_restrict", "formula.unit_propagate_tracked")
        br3_s = total["branching3.br_3"]
        balls = calls["local_search.searchball"]
        centers = self.counts["code_centers"]
        return {
            "formula.parse_s": total["formula.parse_dimacs"],
            "formula.restrict_calls": calls["formula.restrict"],
            "formula.restrict_s": total["formula.restrict"],
            "formula.up_calls": sum(calls[n] for n in up),
            "formula.up_s": sum(total[n] for n in up),
            "formula.2sat_calls": calls["formula.solve_2sat"],
            "formula.2sat_s": total["formula.solve_2sat"],
            "branching3.nodes": counters.get("nodes", 0),
            "branching3.leaves": counters.get("leaves", 0),
            "branching3.splits": counters.get("splits", 0),
            "branching3.max_depth": counters.get("max_depth", 0),
            "branching3.phi_fires": counters.get("phi_fires", 0),
            "branching3.br3_s": br3_s,
            "branching3.self_s": layer_self("branching3"),
            "branching3.procedure_p_calls": calls["branching3.procedure_p_tracked"],
            "branching3.procedure_p_s": total["branching3.procedure_p_tracked"],
            "branching3.procedure_p_self_s": self_time["branching3.procedure_p_tracked"],
            "branching3.tb_set_calls": calls["branching3.tb_set"],
            "branching3.tb_set_s": total["branching3.tb_set"],
            "branching3.node_rate": rate(counters.get("nodes", 0), br3_s),
            "branching_k.branch_nodes": counters.get("branch_nodes", 0),
            "branching_k.greedy_s": total["branching_k.greedy_maximal_1chains"],
            "branching_k.self_s": layer_self("branching_k"),
            "branching_k.dls_handoffs": calls["local_search.dls"],
            "local_search.dls_s": total["local_search.dls"],
            "local_search.self_s": self_time["local_search.dls"],
            "local_search.balls": balls,
            "local_search.searchball_s": total["local_search.searchball"],
            "local_search.ball_rate": rate(balls, total["local_search.searchball"]),
            "local_search.balls_per_center": balls / centers if centers else 0.0,
            "covering.build_code_s": total["covering.build_generalized_code"],
            "covering.cover_cube_calls": calls["covering.cover_cube"],
            "covering.cover_cube_s": total["covering.cover_cube"],
            "covering.ell_cover_calls": calls["covering.ell_cover_spaces"],
            "covering.ell_cover_s": total["covering.ell_cover_spaces"],
            "covering.code_centers": centers,
            "covering.repeat_builds": self.counts["repeat_builds"],
            "characteristic.solve_calls": calls["characteristic.solve_characteristic"],
            "characteristic.modular_calls": self.counts["modular_calls"],
            "characteristic.solve_s": total["characteristic.solve_characteristic"],
            "characteristic.lambda_calls": calls["characteristic.lambda_for_zeta"],
            "chains.solution_space_calls": calls["chains.solution_space"],
            "chains.solution_space_s": total["chains.solution_space"],
            "generator.gen_s": total["generator.gen_random_kcnf"],
        }


def median_metrics(rows: list[dict]) -> dict:
    """Per-metric median over passes; counts repeat exactly between passes."""
    out = {}
    for k in rows[0]:
        values = [r[k] for r in rows]
        out[k] = values[0] if len(set(values)) == 1 else statistics.median(values)
    return out
