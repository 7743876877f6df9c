"""Span and counter tracing of binshift, installed from outside the package.

Every public function of a layer is replaced, at every module attribute
that binds it, by a wrapper that records a span (name, start, end, parent,
op id) in memory.  Binding sites matter: ``recurrence``, ``families`` and
``verify`` import ``apply_transform`` by name, so patching ``transform``
alone would miss their calls.  The high-frequency scalar entry points of
``exactnum`` are only counted and their time summed, so memory stays
bounded however many scalars an op creates.

Self time of a span is its length minus the time covered by its child
spans and by the counted ``exactnum`` calls made directly under it, so
the per-layer self times and ``exactnum.busy_s`` partition the traced
time without overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

from binshift import exactnum
from binshift.verify import SUITE_NAMES

# (module, public function) -> metric that receives the span's self time.
# ``transform`` spans also feed calls, busy time, terms and bit sizes.
SPANNED = {
    ("transform", "apply_transform"): "transform.self_s",
    ("transform", "inverse_transform"): "transform.self_s",
    ("transform", "compose_transforms"): "transform.self_s",
    ("transform", "iterated_binomial"): "transform.self_s",
    ("recurrence", "unroll"): "recurrence.unroll_s",
    ("recurrence", "shift_characteristic"): "recurrence.shift_char_s",
    ("recurrence", "apply_char_operator"): "recurrence.char_op_s",
    ("recurrence", "transform_recurrence"): "recurrence.transform_rec_s",
    ("series", "series_compose_geometric"): "series.ogf_s",
    ("series", "egf_transform"): "series.egf_s",
    ("series", "riordan_entry"): "series.riordan_s",
    ("models", "binet_eval"): "models.binet_s",
    ("models", "binet_shift"): "models.binet_s",
    ("models", "companion_matrix"): "models.matrix_s",
    ("models", "model_from_recurrence"): "models.matrix_s",
    ("models", "matrix_transform_eval"): "models.matrix_s",
    ("models", "colored_count_bruteforce"): "models.colored_s",
    ("families", "family_prefix"): "families.prefix_s",
    ("families", "segment_row"): "families.tables_s",
    ("families", "table_initial_segments"): "families.tables_s",
    ("families", "recurrences_table"): "families.tables_s",
    ("families", "special_identities_report"): "families.tables_s",
    ("verify", "run_suite"): None,  # metric named after the suite argument
}

# Metrics computed from spans; every one is reported, zero when unused.
SPAN_METRICS = sorted({m for m in SPANNED.values() if m} - {"transform.self_s"})
SPAN_METRICS += [f"verify.{s}_s" for s in SUITE_NAMES if s != "all"]

EXACTNUM_COUNTED = (
    # (owner, attribute, counter)
    (exactnum.Quad, "__init__", "exactnum.quad_new"),
    (exactnum.Poly, "__init__", "exactnum.poly_new"),
    (exactnum, "is_squarefree", "exactnum.squarefree_calls"),
    (exactnum, "promote", "exactnum.promote_calls"),
    (exactnum, "join_domains", "exactnum.join_calls"),
)


def bit_size(v) -> int:
    if isinstance(v, int):
        return v.bit_length()
    if isinstance(v, Fraction):
        return max(v.numerator.bit_length(), v.denominator.bit_length())
    if isinstance(v, exactnum.Quad):
        return max(bit_size(v.a), bit_size(v.b))
    if isinstance(v, exactnum.Poly):
        return max((bit_size(c) for c in v.coeffs), default=0)
    return 0


def _modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "binshift" or name.startswith("binshift."))
    ]


class Tracer:
    """Installs the wrappers, collects spans and counters, removes them."""

    def __init__(self):
        self.active = False
        self.op_id = -1
        # span: [name, start, end, parent index, op id, exactnum seconds inside]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.squarefree_s = 0.0
        self.exactnum_s = 0.0
        self._exact_depth = 0
        self.terms_out = 0
        self.max_bits = 0
        self._patches: list[tuple[object, str, object]] = []

    # --- installation -----------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        for mod in _modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        for (module, func), metric in SPANNED.items():
            original = getattr(sys.modules[f"binshift.{module}"], func)
            self._rebind(original, self._spanned(f"{module}.{func}", original))
        for owner, attr, counter in EXACTNUM_COUNTED:
            original = vars(owner)[attr]
            wrapper = self._counted(counter, original)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                self._rebind(original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.active = False

    # --- wrappers ---------------------------------------------------------

    def _spanned(self, name: str, fn):
        tracer = self
        kernel = name == "transform.apply_transform"
        suite_span = name == "verify.run_suite"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            label = name
            if suite_span:
                label = f"verify.{args[0] if args else kwargs['suite']}"
            stack = tracer._stack
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1, tracer.op_id, 0.0]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if kernel:
                tracer.terms_out += len(result)
                tracer.max_bits = max(
                    tracer.max_bits, max((bit_size(v) for v in result), default=0)
                )
            return result

        return wrapper

    def _counted(self, counter: str, fn):
        tracer = self
        squarefree = counter == "exactnum.squarefree_calls"
        promote = counter == "exactnum.promote_calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.counts[counter] += 1
            outer = tracer._exact_depth == 0
            tracer._exact_depth += 1
            t0 = time.perf_counter() if outer or squarefree else 0.0
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exact_depth -= 1
                if outer or squarefree:
                    dt = time.perf_counter() - t0
                    if squarefree:
                        tracer.squarefree_s += dt
                    if outer:
                        tracer.exactnum_s += dt
                        if tracer._stack:
                            tracer.spans[tracer._stack[-1]][5] += dt
            if promote and args and result is args[0]:
                tracer.counts["exactnum.promote_noop"] += 1
            return result

        return wrapper

    # --- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        spans = self.spans
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        in_transform = [False] * len(spans)
        for i, s in enumerate(spans):
            parent = s[3]
            if parent >= 0:
                child[parent] += dur[i]
                in_transform[i] = in_transform[parent]
            if s[0].startswith("transform."):
                in_transform[i] = True
        out = dict.fromkeys(SPAN_METRICS, 0.0)
        calls = busy = self_t = 0.0
        for i, s in enumerate(spans):
            own = dur[i] - child[i] - s[5]
            module, func = s[0].split(".", 1)
            if module == "verify":
                metric = f"verify.{func}_s"
            else:
                metric = SPANNED[(module, func)]
            if metric == "transform.self_s":
                calls += 1
                self_t += own
                if s[3] < 0 or not in_transform[s[3]]:
                    busy += dur[i]
            elif metric in out:  # verify.all spans have no metric
                out[metric] += own
        promotes = self.counts["exactnum.promote_calls"]
        out.update(
            {
                "transform.calls": calls,
                "transform.busy_s": busy,
                "transform.self_s": self_t,
                "transform.terms_out": float(self.terms_out),
                "transform.max_bits": float(self.max_bits),
                "exactnum.squarefree_s": self.squarefree_s,
                "exactnum.busy_s": self.exactnum_s,
                "exactnum.promote_noop_ratio": (
                    self.counts["exactnum.promote_noop"] / promotes if promotes else 0.0
                ),
            }
        )
        for _, _, counter in EXACTNUM_COUNTED:
            out[counter] = float(self.counts[counter])
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, (name, start, end, parent, op, inside) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "op": op,
                            "exactnum_s": inside,
                        }
                    )
                    + "\n"
                )
