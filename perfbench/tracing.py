"""Per-layer tracing of one benchmark repetition, from outside the package.

Installing a Tracer rebinds the package's public entry points to wrappers:

* span wrappers record (name, start, end, parent) for every call, plus the
  call count, total time (outermost calls only, so recursion is not counted
  twice) and self time (minus the time of nested timed calls);
* counter wrappers, for the hot calls, keep the call count and self time
  without a span per call;
* plain counters only count calls, for recursions too hot even to time.

Memo, solver and cache sizes are read from the objects after the run.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.stats = {}  # name -> [calls, total_s, self_s, depth]
        self.spans = []  # [name, start, end, parent index]
        self.open_spans = []  # indexes into spans
        self.child_time = []  # time of timed calls nested in each open frame
        self.instances = {}  # class name -> registered objects
        self.cache_entries = 0
        self.reductions = [0, 0]  # _reduce_full calls inside buchberger: [zero, nonzero]
        self.basis_elements = 0

    # -- recording -------------------------------------------------------------

    def _stat(self, name):
        return self.stats.setdefault(name, [0, 0.0, 0.0, 0])

    def _enter(self, name, record_span):
        stat = self._stat(name)
        stat[3] += 1
        self.child_time.append(0.0)
        start = _clock()
        if record_span:
            parent = self.open_spans[-1] if self.open_spans else None
            self.open_spans.append(len(self.spans))
            self.spans.append([name, start, None, parent])
        return stat, start

    def _leave(self, stat, start, record_span):
        end = _clock()
        dt = end - start
        child = self.child_time.pop()
        stat[0] += 1
        stat[2] += dt - child
        stat[3] -= 1
        if stat[3] == 0:
            stat[1] += dt
        if self.child_time:
            self.child_time[-1] += dt
        if record_span:
            self.spans[self.open_spans.pop()][2] = end

    @contextmanager
    def span(self, name):
        stat, start = self._enter(name, True)
        try:
            yield
        finally:
            self._leave(stat, start, True)

    def timed(self, name, fn, record_span=False):
        def wrapper(*args, **kwargs):
            stat, start = self._enter(name, record_span)
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(stat, start, record_span)

        return wrapper

    def counted(self, name, fn):
        stat = self._stat(name)

        def wrapper(*args, **kwargs):
            stat[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def registering(self, cls):
        objs = self.instances.setdefault(cls.__name__, [])
        init = cls.__init__

        def __init__(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            objs.append(obj)

        cls.__init__ = __init__

    # -- installation ----------------------------------------------------------

    def install(self):
        """Rebind the package entry points; call before any workload code."""
        from w2345 import exprs, groebner, linalg, modes, pbw, report, singular
        from w2345 import scalars, toplevels, walgebra, zhu

        # _PolyCarrier bound the originals as staticmethods at import
        for short, carrier_name in (("gcd", "gcd2"), ("mul", "mul"), ("divexact", "divexact")):
            wrapped = self.timed(f"scalars.ip_{short}", getattr(scalars, f"ip_{short}"))
            setattr(scalars, f"ip_{short}", wrapped)
            setattr(linalg._PolyCarrier, carrier_name, staticmethod(wrapped))
        scalars._ip_gcd_heuristic = self.counted("scalars.gcd_heuristic", scalars._ip_gcd_heuristic)
        scalars._ip_gcd_subresultant = self.counted(
            "scalars.gcd_subresultant", scalars._ip_gcd_subresultant
        )

        linalg.SpanSolver.insert = self.timed("linalg.insert", linalg.SpanSolver.insert)
        linalg.SpanSolver.express = self.timed("linalg.express", linalg.SpanSolver.express)

        # element_mode is imported by name into walgebra and zhu; mode_apply
        # and mode_power_apply reach it through the modes global.
        element_mode = self.timed("modes.element_mode", modes.element_mode)
        for mod in (modes, walgebra, zhu):
            mod.element_mode = element_mode
        modes.word_apply = self.counted("modes.word_apply", modes.word_apply)
        pbw.PBWAlgebra.apply_gen = self.counted("pbw.apply_gen", pbw.PBWAlgebra.apply_gen)
        for cls in (walgebra.WAlgebra, walgebra.HWModule):
            cls.apply_gen = self.counted("walgebra.apply_gen", cls.apply_gen)

        ses = walgebra.Session
        ses.nf_expand = self.timed("walgebra.nf_expand", ses.nf_expand)
        ses.ope_entry = self.timed("walgebra.ope_entry", ses.ope_entry, record_span=True)
        ses._nf_basis = self.timed("walgebra.nf_basis", ses._nf_basis, record_span=True)
        ses.null_fields = self.timed("walgebra.null_fields", ses.null_fields, record_span=True)

        zhu.ZhuC2.zhu_reduce = self.timed("zhu.zhu_reduce", zhu.ZhuC2.zhu_reduce)
        singular.ur_normal_form = self.timed(
            "singular.ur_normal_form", singular.ur_normal_form, record_span=True
        )
        toplevels.eigenvalues_oracle = self.timed(
            "toplevels.eigenvalues_oracle", toplevels.eigenvalues_oracle, record_span=True
        )
        for name in ("parse_nf", "parse_pbw", "parse_multipoly", "parse_scalar"):
            setattr(exprs, name, self.timed("exprs.parse", getattr(exprs, name), record_span=True))

        reduce_full = groebner._reduce_full

        def counting_reduce_full(*args):
            out = reduce_full(*args)
            if self.stats.get("groebner.buchberger", (0, 0, 0, 0))[3]:
                self.reductions[0 if not out else 1] += 1
            return out

        buchberger = groebner.buchberger

        def counting_buchberger(*args):
            gb = buchberger(*args)
            self.basis_elements += len(gb.elements)
            return gb

        groebner._reduce_full = self.counted("groebner.reduce_full", counting_reduce_full)
        groebner.buchberger = self.timed("groebner.buchberger", counting_buchberger)

        report.Context.store = self.timed("report.cache_store", report.Context.store)

        for cls in (pbw.PBWAlgebra, walgebra.WAlgebra, walgebra.HWModule, linalg.SpanSolver, zhu.ZhuC2):
            self.registering(cls)

    # -- results ---------------------------------------------------------------

    def _calls(self, name):
        return self.stats.get(name, (0,))[0]

    def _total(self, name):
        return self.stats.get(name, (0, 0.0))[1]

    def _self(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def metrics(self):
        """Layer metrics of the finished repetition, by metric name."""
        objs = self.instances
        out = {}
        for name in ("scalars.ip_gcd", "scalars.ip_mul", "scalars.ip_divexact"):
            out[f"{name}.calls"] = self._calls(name)
            out[f"{name}.self_s"] = self._self(name)
        out["scalars.gcd_heuristic.calls"] = self._calls("scalars.gcd_heuristic")
        out["scalars.gcd_subresultant.calls"] = self._calls("scalars.gcd_subresultant")

        solvers = objs.get("SpanSolver", [])
        pivots = sum(s.rank for s in solvers)
        degree = bits = 0
        for s in solvers:
            for row, _ in s.pivots.values():
                for _, raw in row:
                    coeffs = raw if isinstance(raw, tuple) else (raw,)
                    degree = max(degree, len(coeffs) - 1)
                    bits = max(bits, max(abs(c).bit_length() for c in coeffs))
        for name in ("linalg.insert", "linalg.express"):
            out[f"{name}.calls"] = self._calls(name)
            out[f"{name}.self_s"] = self._self(name)
        out["linalg.pivots"] = pivots
        out["linalg.pivot_ratio"] = _ratio(pivots, self._calls("linalg.insert"))
        out["linalg.max_pivot_degree"] = degree
        out["linalg.max_pivot_bits"] = bits

        word_algs = objs.get("PBWAlgebra", []) + objs.get("WAlgebra", []) + objs.get("HWModule", [])
        word_entries = sum(len(a.word_memo) for a in word_algs)
        pbw_entries = sum(len(a._gen_memo) for a in objs.get("PBWAlgebra", []))
        w_entries = sum(len(a._gen_memo) for a in objs.get("WAlgebra", []) + objs.get("HWModule", []))
        out["modes.element_mode.calls"] = self._calls("modes.element_mode")
        out["modes.element_mode.self_s"] = self._self("modes.element_mode")
        out["modes.word_apply.calls"] = self._calls("modes.word_apply")
        out["modes.word_memo_entries"] = word_entries
        # every memo miss stores exactly one entry, so hits = calls - entries
        out["modes.word_memo_hit_ratio"] = _hit_ratio(self._calls("modes.word_apply"), word_entries)
        out["pbw.apply_gen.calls"] = self._calls("pbw.apply_gen")
        out["pbw.gen_memo_entries"] = pbw_entries
        out["pbw.gen_memo_hit_ratio"] = _hit_ratio(self._calls("pbw.apply_gen"), pbw_entries)

        out["walgebra.nf_expand.calls"] = self._calls("walgebra.nf_expand")
        out["walgebra.nf_expand.total_s"] = self._total("walgebra.nf_expand")
        out["walgebra.nf_basis.total_s"] = self._total("walgebra.nf_basis")
        out["walgebra.ope_entry.total_s"] = self._total("walgebra.ope_entry")
        out["walgebra.null_fields.total_s"] = self._total("walgebra.null_fields")
        out["walgebra.apply_gen.calls"] = self._calls("walgebra.apply_gen")
        out["walgebra.gen_memo_entries"] = w_entries

        out["zhu.zhu_reduce.calls"] = self._calls("zhu.zhu_reduce")
        out["zhu.zhu_reduce.self_s"] = self._self("zhu.zhu_reduce")
        out["zhu.memo_entries"] = sum(len(z._memo) for z in objs.get("ZhuC2", []))
        out["singular.ur_normal_form.total_s"] = self._total("singular.ur_normal_form")
        out["toplevels.eigenvalues_oracle.total_s"] = self._total("toplevels.eigenvalues_oracle")

        for tag in ("P5", "A5", "A6"):
            out[f"groebner.buchberger.{tag}.total_s"] = self._total(f"groebner.buchberger.{tag}")
        zero, useful = self.reductions
        out["groebner.reduce_full.calls"] = self._calls("groebner.reduce_full")
        out["groebner.reductions_to_zero"] = zero
        out["groebner.useful_reduction_ratio"] = _ratio(useful, zero + useful)
        out["groebner.basis_elements"] = self.basis_elements
        out["groebner.spoly_check.total_s"] = self._total("groebner.spoly_check")

        out["exprs.parse.calls"] = self._calls("exprs.parse")
        out["exprs.parse.total_s"] = self._total("exprs.parse")

        for name, stat in self.stats.items():
            if name.startswith("report.check."):
                out[f"{name}.total_s"] = stat[1]
        out["report.cache_store.total_s"] = self._total("report.cache_store")
        out["report.resume.total_s"] = self._total("report.resume")
        out["report.cache_entries"] = self.cache_entries
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start_s", "end_s", "parent"], "spans": self.spans}, fh
            )


def _ratio(num, den):
    return num / den if den else 0.0


def _hit_ratio(calls, entries):
    return (calls - entries) / calls if calls else 0.0
