"""Span tracing for the benchmark's traced run (``--trace 1``).

``Tracer.install`` puts timing and counting wrappers, defined here, around
the public functions and methods of each yangalg module.  It patches the
defining module or class and every yangalg module namespace that imported a
function by name (``cli.yang_mul``, ``multable.norm``, ...), so calls made
through any of those names are seen.  No repository file is edited, and
``uninstall`` puts the originals back.

Calls into the layers above ``laurent`` are kept one by one as spans
``(id, name, start, end, parent, op, self_s)``.  ``laurent`` is called about
10^5 times per op, too often to keep every call, so its timed calls are
folded into groups keyed by (op, nearest kept span, name) that hold the call
count and the summed self time.  The ``LaurentPoly`` constructor and
``conj`` are only counted; their time stays with their caller.

A span's self time is its duration minus the durations of its direct
children.  Every op runs under a root span named ``op``, so the self times
of one op's spans sum to its wall time, and ``wall - root self`` is the part
the layer spans account for (the coverage).
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time
from contextlib import contextmanager

# Layer name -> (module, attributes).  "Class.method" names a method.
KEPT = {
    "algebra.yang_mul": ("algebra", ("yang_mul",)),
    "algebra.cd_oct_mul": ("algebra", ("cd_oct_mul",)),
    "algebra.thakur_mul": ("algebra", ("thakur_mul",)),
    "algebra.norm": ("algebra", ("norm",)),
    "algebra.polar_q": ("algebra", ("polar_q",)),
    "ortho.apply": ("ortho", ("OrthoNF.apply",)),
    "ortho.recognize": ("ortho", ("recognize",)),
    "ortho.compose": ("ortho", ("OrthoNF.compose",)),
    "multable.eval": ("multable", ("MulTable.eval",)),
    "multable.check_lagrange": ("multable", ("check_lagrange",)),
    "multable.twist": ("multable", ("twist",)),
    "multable.kaplansky_unitize": ("multable", ("kaplansky_unitize",)),
    "multable.straighten_scalar_action": ("multable", ("straighten_scalar_action",)),
    "multable.align_triple_products": ("multable", ("align_triple_products",)),
    "multable.verify_certificate": ("multable", ("verify_certificate",)),
    "multable.table_of": ("multable", ("table_of",)),
    "multable.elduque_check": ("multable", ("elduque_check",)),
    "sequences.brute_force_tseq": ("sequences", ("brute_force_tseq",)),
    "sequences.is_t_sequence": ("sequences", ("is_t_sequence",)),
    "sequences.to_pm1_quad": ("sequences", ("to_pm1_quad",)),
    "sequences.goethals_seidel": ("sequences", ("goethals_seidel",)),
    "sequences.is_hadamard": ("sequences", ("is_hadamard",)),
    "sequences.yang_compose": ("sequences", ("yang_compose",)),
    "cli": ("cli", ("main", "cmd_verify")),
}
GROUPED = {
    "laurent.mul": ("laurent", ("LaurentPoly.__mul__",)),
    "laurent.add": ("laurent", ("LaurentPoly.__add__",)),
    "laurent.divexact": ("laurent", ("divexact",)),
    "laurent.split_A0": ("laurent", ("LaurentPoly.split_A0",)),
}
COUNTED = {
    "laurent.ctor": ("laurent", ("LaurentPoly.__init__",)),
    "laurent.conj": ("laurent", ("LaurentPoly.conj",)),
}
LAYERS = {**KEPT, **GROUPED, **COUNTED}


class Tracer:
    """Records spans of the ops run inside ``Tracer.op``; calls made outside
    an op (set-up, output checks) pass straight through the wrappers."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.groups: dict[tuple, list] = {}   # (op, parent, name) -> [calls, self_s]
        self.counts: dict[tuple, int] = {}    # (op, name) -> calls
        self.ops: dict[int, tuple] = {}       # op -> (kind, wall_s, root self_s)
        self._stack: list[list] = []          # frames: [child time, anchor span id]
        self._op = [None]
        self._ids = itertools.count(1)
        self._patched: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name, fn, kept):
        stack, cur, ids = self._stack, self._op, self._ids
        spans, groups, clock = self.spans, self.groups, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [0.0, next(ids) if kept else parent[1]]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[0] += dur
                self_s = dur - frame[0]
                if kept:
                    spans.append((frame[1], name, t0, t1, parent[1], cur[0], self_s))
                else:
                    key = (cur[0], parent[1], name)
                    group = groups.get(key)
                    if group is None:
                        groups[key] = [1, self_s]
                    else:
                        group[0] += 1
                        group[1] += self_s
        return wrapper

    def _counted(self, name, fn):
        stack, cur, counts = self._stack, self._op, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                key = (cur[0], name)
                counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every function and method named in ``LAYERS``."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "yangalg" or n.startswith("yangalg.")]
        for table, make in ((KEPT, lambda n, f: self._timed(n, f, True)),
                            (GROUPED, lambda n, f: self._timed(n, f, False)),
                            (COUNTED, self._counted)):
            for name, (module, attrs) in table.items():
                for attr in attrs:
                    owner = sys.modules[f"yangalg.{module}"]
                    if "." in attr:
                        cls, attr = attr.split(".")
                        owner = getattr(owner, cls)
                        orig = owner.__dict__[attr]
                        # aliases such as __rmul__ = __mul__ share the wrapper
                        targets = [owner]
                    else:
                        orig = getattr(owner, attr)
                        targets = modules
                    wrapper = make(name, orig)
                    for target in targets:
                        for key, value in list(vars(target).items()):
                            if value is orig:
                                setattr(target, key, wrapper)
                                self._patched.append((target, key, orig))

    def uninstall(self):
        for target, key, orig in reversed(self._patched):
            setattr(target, key, orig)
        self._patched.clear()

    @contextmanager
    def op(self, op_id: int, kind: str):
        """Run one op under a root span named ``op``."""
        if self._stack:
            raise RuntimeError("ops do not nest")
        frame = [0.0, next(self._ids)]
        self._op[0] = op_id
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self._op[0] = None
            root_self = t1 - t0 - frame[0]
            self.spans.append((frame[1], "op", t0, t1, None, op_id, root_self))
            self.ops[op_id] = (kind, t1 - t0, root_self)

    # -- results ----------------------------------------------------------

    def totals(self, op_ids) -> dict[str, list]:
        """Per layer ``[calls, self_s, inclusive_s]`` summed over ``op_ids``
        (inclusive time only for kept spans)."""
        op_ids = set(op_ids)
        out = {name: [0, 0.0, 0.0] for name in LAYERS}
        out["op"] = [0, 0.0, 0.0]
        for _sid, name, t0, t1, _parent, op, self_s in self.spans:
            if op in op_ids:
                row = out[name]
                row[0] += 1
                row[1] += self_s
                row[2] += t1 - t0
        for (op, _parent, name), (calls, self_s) in self.groups.items():
            if op in op_ids:
                out[name][0] += calls
                out[name][1] += self_s
        for (op, name), calls in self.counts.items():
            if op in op_ids:
                out[name][0] += calls
        return out

    def write(self, path, header: dict):
        """Write the header, then every op, span, group and count, as JSON
        lines."""
        with open(path, "w") as f:
            f.write(json.dumps({"type": "header", **header}) + "\n")
            for op, (kind, wall, root_self) in sorted(self.ops.items()):
                f.write(json.dumps({"type": "op", "op": op, "kind": kind, "wall_s": wall,
                                    "uncovered_s": root_self}) + "\n")
            for sid, name, t0, t1, parent, op, self_s in self.spans:
                f.write(json.dumps({"type": "span", "id": sid, "name": name,
                                    "start": t0, "end": t1, "parent": parent,
                                    "op": op, "self_s": self_s}) + "\n")
            for (op, parent, name), (calls, self_s) in self.groups.items():
                f.write(json.dumps({"type": "group", "op": op, "parent": parent,
                                    "name": name, "calls": calls,
                                    "self_s": self_s}) + "\n")
            for (op, name), calls in self.counts.items():
                f.write(json.dumps({"type": "count", "op": op, "name": name,
                                    "calls": calls}) + "\n")
