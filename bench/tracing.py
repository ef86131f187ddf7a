"""Spans and counts at seqmat's module boundaries, for the traced run only.

install() replaces each public function listed in SPANNED by a wrapper in
every seqmat module namespace where the name is looked up (so
``seqmat.dynamics.regularize_packed`` is wrapped where census() calls
it), and wraps the FieldSpec arithmetic methods with call counters.

A span is (call id, span id, parent span id, name, start, end).  Spans of
one timed call share its call id.  regularize_packed runs about a million
times per census, so its calls are folded into one record per parent
span, carrying their count and total time.  Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time

from seqmat.fields import FieldKind, FieldSpec

SPANNED = {
    "formats": ("parse_matrix", "parse_vector", "parse_coding", "format_matrix",
                "format_vector", "format_program", "format_coding"),
    "matrix": ("seq_matrix", "program_symbolic", "pack_gf2_rows", "unpack_gf2_rows",
               "seq_program", "parallel_apply", "seq_apply", "seq_equivalent"),
    "sequentialize": ("sequentialize", "sequentialize_perm", "preimage_search"),
    "regularize": ("regularize_packed", "regularize", "regularize_general", "regularize_trace"),
    "dynamics": ("census", "orbit", "phi", "load_orbit_seed"),
    "graphs": ("constructs", "chain_rewrite", "linorder_rewrite", "to_dot"),
}
FOLDED = {"regularize.regularize_packed"}
FIELD_OPS = ("add", "sub", "mul", "neg", "inv")
FIELD_SUFFIX = {FieldKind.GF2: "gf2", FieldKind.GFP: "gfp", FieldKind.RATIONAL: "q"}


class Tracer:
    def __init__(self):
        self.call_id = 0
        self.spans = []
        self.folded = {}  # (parent span id, name) -> [calls, seconds]
        self.calls = {}
        self.self_s = {}
        self.bytes_in = 0
        self.bytes_out = 0
        self.field_calls = {(op, s): 0 for op in FIELD_OPS for s in FIELD_SUFFIX.values()}
        self._stack = []  # [span id, child seconds]
        self._next_id = 0

    def run(self, name, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        clock = time.monotonic
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()
            self._stack.pop()
            elapsed = end - start
            if parent is not None:
                parent[1] += elapsed
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - frame[1]
            parent_id = None if parent is None else parent[0]
            if name in FOLDED:
                entry = self.folded.setdefault((parent_id, name), [0, 0.0])
                entry[0] += 1
                entry[1] += elapsed
            else:
                self.spans.append((self.call_id, span_id, parent_id, name, start, end))

    def _wrap(self, name, fn):
        if name.startswith("formats.parse_"):
            def wrapper(text, *args, **kwargs):
                self.bytes_in += len(text.encode())
                return self.run(name, fn, text, *args, **kwargs)
        elif name.startswith("formats.format_"):
            def wrapper(*args, **kwargs):
                out = self.run(name, fn, *args, **kwargs)
                self.bytes_out += len(out.encode())
                return out
        else:
            def wrapper(*args, **kwargs):
                return self.run(name, fn, *args, **kwargs)
        wrapper.__bench_traced__ = True
        return functools.update_wrapper(wrapper, fn)

    def install(self):
        modules = [m for key, m in sys.modules.items() if key == "seqmat" or key.startswith("seqmat.")]
        for layer, names in SPANNED.items():
            home = sys.modules[f"seqmat.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
        for op in FIELD_OPS:
            setattr(FieldSpec, op, self._count_field_op(op, getattr(FieldSpec, op)))

    def _count_field_op(self, op, method):
        counts = self.field_calls
        keys = {kind: (op, suffix) for kind, suffix in FIELD_SUFFIX.items()}

        def counted(field, *args):
            counts[keys[field.kind]] += 1
            return method(field, *args)

        counted.__bench_traced__ = True
        return counted

    def reset(self):
        """Forget everything recorded so far (used after set-up)."""
        for record in (self.spans, self.folded, self.calls, self.self_s):
            record.clear()
        self.bytes_in = self.bytes_out = 0
        for key in self.field_calls:
            self.field_calls[key] = 0

    def dump(self, path):
        """Write spans, one JSON array per line, when the run ends.

        A folded record is [call id, None, parent span id, name, calls, seconds].
        """
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for (parent, name), (calls, seconds) in self.folded.items():
                fh.write(json.dumps([None, None, parent, name, calls, seconds]) + "\n")

    def export(self):
        """Counts, self times and spans, for merging into another process's tracer."""
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "field_calls": [[op, s, v] for (op, s), v in self.field_calls.items()],
            "spans": self.spans,
            "folded": [[p, name, c, t] for (p, name), (c, t) in self.folded.items()],
        }

    def merge(self, other):
        """Add another process's export; its root spans become children of the open span."""
        for key in ("calls", "self_s"):
            mine = getattr(self, key)
            for name, value in other[key].items():
                mine[name] = mine.get(name, 0) + value
        self.bytes_in += other["bytes_in"]
        self.bytes_out += other["bytes_out"]
        for op, suffix, value in other["field_calls"]:
            self.field_calls[(op, suffix)] += value
        outer = self._stack[-1][0] if self._stack else None
        ids = {}
        for span in other["spans"]:
            ids[span[1]] = self._next_id
            self._next_id += 1
        for _, span_id, parent, name, start, end in other["spans"]:
            self.spans.append((self.call_id, ids[span_id], ids.get(parent, outer), name, start, end))
        for parent, name, calls, seconds in other["folded"]:
            entry = self.folded.setdefault((ids.get(parent, outer), name), [0, 0.0])
            entry[0] += calls
            entry[1] += seconds


def is_traced():
    """True if any seqmat function or FieldSpec method is wrapped."""
    seen = [getattr(FieldSpec, op) for op in FIELD_OPS]
    for key, module in sys.modules.items():
        if key == "seqmat" or key.startswith("seqmat."):
            seen += list(vars(module).values())
    return any(getattr(v, "__bench_traced__", False) for v in seen)
