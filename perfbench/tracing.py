"""Span tracing from outside the program.

``Tracer.install`` replaces public functions of mvphe with timing wrappers
at the module attribute the *caller* looks up.  A name bound by
``from .she import eval_mult`` inside ``mvphe.circuit`` is a separate
binding from ``mvphe.she.eval_mult``, so each binding that a traced path
goes through is listed in ``TARGETS``; several bindings share one span
name.  Spans (name, start, end, parent, op id) are kept in memory and
written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter

import mvphe.circuit
import mvphe.cli
import mvphe.keys
import mvphe.serialize
import mvphe.she

# (module whose attribute the caller reads, attribute, span name)
TARGETS = [
    (mvphe.cli, "main", "cli.main"),
    (mvphe.circuit, "parse_circuit", "circuit.parse_circuit"),
    (mvphe.circuit, "eval_homomorphic", "circuit.eval_homomorphic"),
    (mvphe.circuit, "eval_mult", "she.eval_mult"),
    (mvphe.she, "eval_mult", "she.eval_mult"),
    (mvphe.circuit, "eval_add", "she.eval_add"),
    (mvphe.cli, "encrypt", "she.encrypt"),
    (mvphe.she, "encrypt", "she.encrypt"),
    (mvphe.cli, "decrypt", "she.decrypt"),
    (mvphe.she, "decrypt", "she.decrypt"),
    (mvphe.she, "pk_keygen", "she.pk_keygen"),
    (mvphe.she, "pk_encrypt", "she.pk_encrypt"),
    (mvphe.cli, "keygen", "keys.keygen"),
    (mvphe.keys, "keygen", "keys.keygen"),
    (mvphe.cli, "build_evalkey", "keys.build_evalkey"),
    (mvphe.keys, "build_evalkey", "keys.build_evalkey"),
    (mvphe.keys, "mat_mul_exact", "keys.mat_mul_exact"),
    (mvphe.keys, "inverse_mod_q", "linalg.inverse_mod_q"),
    (mvphe.keys, "mat_mul", "linalg.mat_mul"),
    (mvphe.keys, "rank_mod_q", "linalg.rank_mod_q"),
    (mvphe.keys, "reduce_by_set", "mvpoly.reduce_by_set"),
    (mvphe.serialize, "load_evalkey", "serialize.load_evalkey"),
    (mvphe.serialize, "load_secret_key", "serialize.load_secret_key"),
    (mvphe.serialize, "load_ciphertext", "serialize.load_ciphertext"),
    (mvphe.serialize, "save_ciphertext", "serialize.save_ciphertext"),
    (mvphe.serialize, "save_evalkey", "serialize.save_evalkey"),
    (mvphe.serialize, "save_public_key", "serialize.save_public_key"),
    (mvphe.serialize, "save_secret_key", "serialize.save_secret_key"),
]

OP = "op"  # root span the benchmark opens around each traced op


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._op_id = -1

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self._op_id]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return wrapper

    def install(self) -> None:
        for mod, attr, name in TARGETS:
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, name))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def op(self, op_id: int, fn, *args):
        """Run ``fn(*args)`` as op ``op_id`` with every target wrapped."""
        self._op_id = op_id
        self.install()
        try:
            return self._wrap(fn, OP)(*args)
        finally:
            self.uninstall()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id}) + "\n")


def layer_stats(spans: list[list], scale=None) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy seconds and self seconds, summed over spans.

    Self time is a span's duration minus the durations of its direct
    children; the program runs on one thread, so children never overlap.
    ``scale[op]``, if given, multiplies every time measured in op ``op``.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for i, (name, start, end, _, op) in enumerate(spans):
        f = scale[op] if scale is not None else 1.0
        s = out[name]
        s["calls"] += 1
        s["busy_s"] += (end - start) * f
        s["self_s"] += (end - start - child[i]) * f
    return out


def has_ancestor(spans: list[list], span: list, name: str) -> bool:
    parent = span[3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
