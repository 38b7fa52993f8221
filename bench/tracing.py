"""In-memory span tracer for the traced benchmark run.

``Tracer.install`` replaces each public function at the binding its callers
look up (a module global, or a method on its class) with a wrapper that
records a span: name, start_ns, end_ns, parent span and operation id.  The
program's own files are not touched; the wrappers live only in the process
that runs the traced leg.  Spans stay in memory and are written once, at
the end.  ``layer_metrics`` turns them into the per-layer numbers.
"""

from __future__ import annotations

from array import array
from time import perf_counter_ns

import tevdeg.cli as cli
import tevdeg.closed_forms as closed_forms
import tevdeg.engine as engine
import tevdeg.quantum as quantum
import tevdeg.schubert as schubert
from tevdeg.truncpoly import TruncPoly, UniPoly

CLOSED_FORMS_PUBLIC = (
    "tev_p1_cps", "vtev_projective_closed", "vtev_hypersurface_closed",
    "alpha_coefficients", "deg_T_insertions_closed",
    "compute_cps_schubert_discrepancies",
)


class Tracer:
    def __init__(self):
        # Span i is (names[name_id[i]], start[i], end[i], parent[i], op[i]);
        # parent is a span index or -1.  Flat arrays keep a million spans
        # in about 40 MB.
        self.names: list[str] = []
        self.name_id = bytearray()
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self._stack: list[int] = []
        self.op_id = -1
        self.counts = {
            "truncpoly.mul.term_pairs": 0, "truncpoly.mul.terms_kept": 0,
            "enumerativity.strata_checked": 0, "schubert.pieri_terms_out": 0,
            "quantum.qmul.term_pairs": 0, "engine.result_bits_max": 0,
            "cli.sweep.attempted": 0, "cli.sweep.valid": 0,
        }
        self.point_factor_keys: set = set()

    def wrap(self, name, fn, after=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_id, start, end, parent, op = (
            self.name_id, self.start, self.end, self.parent, self.op)
        stack = self._stack

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            end.append(0)
            stack.append(i)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter_ns()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced entry point.  Meant for a process of its own."""
        c = self.counts

        def mul_after(args, result):
            a, b = args
            c["truncpoly.mul.term_pairs"] += len(a.terms) * (
                len(b.terms) if isinstance(b, TruncPoly) else 1)
            c["truncpoly.mul.terms_kept"] += len(result.terms)

        def deg_T_after(args, result):
            c["engine.result_bits_max"] = max(
                c["engine.result_bits_max"], result.bit_length())

        def certify_after(args, result):
            c["enumerativity.strata_checked"] += result.strata_checked

        def pieri_after(args, result):
            c["schubert.pieri_terms_out"] += len(result)

        def qmul_after(args, result):
            c["quantum.qmul.term_pairs"] += len(args[0].terms) * len(args[1].terms)

        def sweep_record_after(args, result):
            c["cli.sweep.attempted"] += 1
            c["cli.sweep.valid"] += result is not None

        def point_factor_after(args, result):
            self.point_factor_keys.add(args)

        for attr in ("__mul__", "__rmul__"):
            setattr(TruncPoly, attr,
                    self.wrap("truncpoly.mul", getattr(TruncPoly, attr), mul_after))
        UniPoly.__mul__ = self.wrap("truncpoly.unipoly_mul", UniPoly.__mul__)
        for attr, after in (("point_factor", point_factor_after),
                            ("deg_T", deg_T_after), ("step3_class", None),
                            ("pushforward_theta", None), ("integrate_theta", None)):
            setattr(engine, attr, self.wrap(f"engine.{attr}", getattr(engine, attr), after))
        for attr in CLOSED_FORMS_PUBLIC:
            setattr(closed_forms, attr,
                    self.wrap("closed_forms", getattr(closed_forms, attr)))
        cli.main = self.wrap("cli.main", cli.main)
        # cli imports certify_enumerative by name, so that is the binding it uses.
        cli.certify_enumerative = self.wrap(
            "enumerativity.certify", cli.certify_enumerative, certify_after)
        cli.sweep_record = self.wrap("cli.sweep_record", cli.sweep_record,
                                     sweep_record_after)
        schubert.pieri_special = self.wrap(
            "schubert.pieri_special", schubert.pieri_special, pieri_after)
        quantum.qmul = self.wrap("quantum.qmul", quantum.qmul, qmul_after)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("name,start_ns,end_ns,parent,op\n")
            for row in zip(self.name_id, self.start, self.end, self.parent, self.op):
                out.write(f"{self.names[row[0]]},{row[1]},{row[2]},{row[3]},{row[4]}\n")

    def layer_metrics(self) -> dict[str, float]:
        """calls, busy_s (outermost spans of a name) and self_s per span name."""
        names, name_id, parent = self.names, self.name_id, self.parent
        calls = [0] * len(names)
        busy = [0] * len(names)
        self_ns = [0] * len(names)
        child_ns = [0] * len(name_id)
        for nid, start, end, up in zip(name_id, self.start, self.end, parent):
            calls[nid] += 1
            if up >= 0:
                child_ns[up] += end - start
            if up < 0 or name_id[up] != nid:
                busy[nid] += end - start
        for nid, start, end, kids in zip(name_id, self.start, self.end, child_ns):
            self_ns[nid] += end - start - kids
        calls, busy, self_ns = (
            {name: v for name, v in zip(names, seq)} for seq in (calls, busy, self_ns))

        c = self.counts
        pf_calls = calls.get("engine.point_factor", 0)
        pairs = c["truncpoly.mul.term_pairs"]
        attempted = c["cli.sweep.attempted"]
        out = {
            "engine.point_factor.calls": pf_calls,
            "engine.point_factor.busy_s": busy.get("engine.point_factor", 0) / 1e9,
            "engine.point_factor.distinct_ratio":
                len(self.point_factor_keys) / pf_calls if pf_calls else 0.0,
            "engine.deg_T.calls": calls.get("engine.deg_T", 0),
            "engine.deg_T.self_s": self_ns.get("engine.deg_T", 0) / 1e9,
            "engine.step3_class.busy_s": busy.get("engine.step3_class", 0) / 1e9,
            "engine.pushforward_theta.busy_s":
                busy.get("engine.pushforward_theta", 0) / 1e9,
            "engine.integrate_theta.busy_s": busy.get("engine.integrate_theta", 0) / 1e9,
            "engine.result_bits_max": c["engine.result_bits_max"],
            "truncpoly.mul.calls": calls.get("truncpoly.mul", 0),
            "truncpoly.mul.busy_s": busy.get("truncpoly.mul", 0) / 1e9,
            "truncpoly.mul.term_pairs": pairs,
            "truncpoly.mul.kept_ratio":
                c["truncpoly.mul.terms_kept"] / pairs if pairs else 0.0,
            "truncpoly.unipoly_mul.busy_s": busy.get("truncpoly.unipoly_mul", 0) / 1e9,
            "enumerativity.certify.calls": calls.get("enumerativity.certify", 0),
            "enumerativity.certify.busy_s": busy.get("enumerativity.certify", 0) / 1e9,
            "enumerativity.strata_checked": c["enumerativity.strata_checked"],
            "closed_forms.calls": calls.get("closed_forms", 0),
            "closed_forms.busy_s": busy.get("closed_forms", 0) / 1e9,
            "schubert.pieri_special.calls": calls.get("schubert.pieri_special", 0),
            "schubert.pieri_special.busy_s": busy.get("schubert.pieri_special", 0) / 1e9,
            "schubert.pieri_terms_out": c["schubert.pieri_terms_out"],
            "quantum.qmul.calls": calls.get("quantum.qmul", 0),
            "quantum.qmul.busy_s": busy.get("quantum.qmul", 0) / 1e9,
            "quantum.qmul.term_pairs": c["quantum.qmul.term_pairs"],
            "cli.main.self_s": self_ns.get("cli.main", 0) / 1e9,
            "cli.sweep.valid_ratio":
                c["cli.sweep.valid"] / attempted if attempted else 0.0,
        }
        return out
