"""Boolean circuit netlists: parsing, plain evaluation, homomorphic evaluation.

The netlist format is line-oriented:

    # comment (also allowed at end of line)
    in a
    in b
    t0 = AND a b
    t1 = XOR t0 b
    out t1

Identifiers match [a-z0-9_]+.  Wires must be defined before use, which
makes file order a topological order and rules out cycles; every violation
is reported with its line number.  XOR gates are free; AND gates consume
multiplicative depth.

The parser records two depth measures of the outputs, from fresh inputs:

* ``depth``      — the maximum number of AND gates on any input-to-output
                   path.
* ``level_need`` — a conservative ledger, l1 + l2 + 1 at each AND gate and
                   max(l1, l2) at each XOR.  For multiplication chains the
                   two coincide; for trees that multiply two
                   already-multiplied values, level_need is larger.

Neither decides what the evaluator admits.  ``eval_homomorphic`` runs the
gates in order, and ``she.eval_mult`` refuses the first product whose
noise hint reaches the decryption limit, dead gates included; the circuit
then returns nothing.  Each of these passes, and each evaluation, is one
``_walk`` over the gates.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import DepthError, FormatError, ParameterError
from .keys import EvalKey
from .she import Ciphertext, _are_bits, _check_ciphertext, eval_add, eval_mult

__all__ = ["Gate", "Circuit", "parse_circuit", "eval_plain", "eval_homomorphic"]

_ID = re.compile(r"[a-z0-9_]+\Z")


@dataclass(frozen=True)
class Gate:
    out: str
    op: str          # "XOR" or "AND"
    a: str
    b: str


@dataclass
class Circuit:
    inputs: list[str]
    gates: list[Gate]          # in definition order (already topological)
    outputs: list[str]
    depth: int                 # max AND count on any path
    level_need: int            # the l1 + l2 + 1 ledger, fresh inputs


def _walk(gates: Sequence[Gate], env: dict, AND: Callable, XOR: Callable) -> dict:
    """Run the gates in order over ``env`` (wire → value), each gate setting
    its output wire to AND(a, b) or XOR(a, b) of its inputs' values.  A
    DepthError from a gate is raised again with the gate's output wire."""
    for g in gates:
        try:
            env[g.out] = (AND if g.op == "AND" else XOR)(env[g.a], env[g.b])
        except DepthError as exc:
            raise DepthError(f"{exc} at gate {g.out}") from None
    return env


def parse_circuit(text: str) -> Circuit:
    """Parse a netlist, raising FormatError with a line number on any problem."""
    inputs: list[str] = []
    gates: list[Gate] = []
    outputs: list[str] = []
    defined: set[str] = set()

    def err(lineno: int, msg: str):
        raise FormatError(f"line {lineno}: {msg}")

    def check_id(lineno: int, name: str) -> str:
        if not _ID.match(name):
            err(lineno, f"bad identifier {name!r}")
        return name

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        if tok[0] == "in":
            if len(tok) != 2:
                err(lineno, "expected 'in <id>'")
            name = check_id(lineno, tok[1])
            if name in defined:
                err(lineno, f"duplicate definition of {name!r}")
            if gates or outputs:
                err(lineno, "inputs must precede gates and outputs")
            inputs.append(name)
            defined.add(name)
        elif tok[0] == "out":
            if len(tok) != 2:
                err(lineno, "expected 'out <id>'")
            name = check_id(lineno, tok[1])
            if name not in defined:
                err(lineno, f"output {name!r} is not defined")
            outputs.append(name)
        elif len(tok) == 5 and tok[1] == "=":
            name = check_id(lineno, tok[0])
            op = tok[2]
            if op not in ("XOR", "AND"):
                err(lineno, f"unknown gate type {op!r}")
            if name in defined:
                err(lineno, f"duplicate definition of {name!r}")
            a, b = check_id(lineno, tok[3]), check_id(lineno, tok[4])
            for arg in (a, b):
                if arg not in defined:
                    err(lineno, f"{arg!r} used before definition "
                                "(forward references and cycles are not allowed)")
            gates.append(Gate(out=name, op=op, a=a, b=b))
            defined.add(name)
        else:
            err(lineno, f"cannot parse {line!r}")
    if not inputs:
        raise FormatError("circuit has no inputs")
    if not outputs:
        raise FormatError("circuit has no outputs")
    depth = _walk(gates, dict.fromkeys(inputs, 0),
                  lambda a, b: max(a, b) + 1, max)
    # level_need stays because netlist generators draw on it; the
    # evaluator does not read it
    need = _walk(gates, dict.fromkeys(inputs, 0), lambda a, b: a + b + 1, max)
    return Circuit(inputs, gates, outputs,
                   depth=max(depth[w] for w in outputs),
                   level_need=max(need[w] for w in outputs))


def eval_plain(circ: Circuit, inputs: Sequence[Sequence[int]]) -> list[list[int]]:
    """Evaluate on bit vectors (slot-wise XOR/AND); the reference semantics."""
    if len(inputs) != len(circ.inputs):
        raise ParameterError(
            f"circuit has {len(circ.inputs)} inputs, got {len(inputs)}"
        )
    vecs = [list(vec) for vec in inputs]
    if any(len(vec) != len(vecs[0]) for vec in vecs):
        raise ParameterError("all input vectors must have the same width")
    if not all(map(_are_bits, vecs)):
        raise ParameterError("input bits must be the ints 0 or 1")
    env = _walk(circ.gates, dict(zip(circ.inputs, vecs)),
                lambda a, b: [x & y for x, y in zip(a, b)],
                lambda a, b: [x ^ y for x, y in zip(a, b)])
    return [env[w][:] for w in circ.outputs]


def eval_homomorphic(evk: EvalKey, circ: Circuit,
                     inputs: Sequence[Ciphertext]) -> list[Ciphertext]:
    """Evaluate gate by gate on ciphertexts.

    Fails fast — before any homomorphic work — if an input does not fit the
    key's parameters.  Every gate runs, outputs or not, so ``eval_mult``'s
    DepthError at an AND whose product hint reaches the decryption limit
    ends the evaluation with nothing returned; its message names the
    gate's output wire.
    """
    if len(inputs) != len(circ.inputs):
        raise ParameterError(
            f"circuit has {len(circ.inputs)} inputs, got {len(inputs)}"
        )
    for ct in inputs:
        _check_ciphertext(evk.params, ct)
    # eval_mult and eval_add are read from this module at call time, so a
    # wrapper set on mvphe.circuit sees every gate; the ANDs share one memo
    # of carry products, so a wire feeding several of them pays once
    carries: dict = {}
    env = _walk(circ.gates, dict(zip(circ.inputs, inputs)),
                lambda a, b: eval_mult(evk, a, b, carries), eval_add)
    return [env[w] for w in circ.outputs]

