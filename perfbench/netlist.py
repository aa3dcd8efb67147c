"""Seeded netlists of a fixed shape for the benchmark workloads.

The benchmark carries its own generator instead of calling
``mvphe.circuit.random_circuit``: that function is program code, so a
change to it would change the workload, and its mixed AND/XOR counts make
op latency multimodal.  Every netlist made here has exactly the requested
number of AND and XOR gates and a depth ledger (``level_need``) of exactly
``level``, so every op of a workload does the same homomorphic work.
"""

from __future__ import annotations

from random import Random


def make_netlist(rng: Random, n_inputs: int, n_and: int, n_xor: int,
                 level: int, n_outputs: int) -> str:
    """Netlist text with the given gate counts and level_need == ``level``.

    Levels follow the evaluator's ledger: an AND of wires at levels l1, l2
    sits at l1 + l2 + 1, an XOR at max(l1, l2).  Gate order is drawn at
    random; a draw whose outputs cannot reach ``level`` is redrawn.
    """
    if n_inputs < 2 or n_and < 1 or level < 1 or n_outputs < 1:
        raise ValueError("need >= 2 inputs, >= 1 AND gate, level >= 1, >= 1 output")
    if n_outputs > n_and + n_xor:
        raise ValueError("more outputs than gates")
    while True:
        ops = ["AND"] * n_and + ["XOR"] * n_xor
        rng.shuffle(ops)
        wires = [f"x{i}" for i in range(n_inputs)]
        lv = dict.fromkeys(wires, 0)
        lines = [f"in {w}" for w in wires]
        for k, op in enumerate(ops):
            name = f"g{k}"
            if op == "AND":
                a = rng.choice([w for w in wires if lv[w] + 1 <= level])
                fits = [w for w in wires if w != a and lv[a] + lv[w] + 1 <= level]
                b = rng.choice(fits)
                lv[name] = lv[a] + lv[b] + 1
            else:
                a, b = rng.sample(wires, 2)
                lv[name] = max(lv[a], lv[b])
            lines.append(f"{name} = {op} {a} {b}")
            wires.append(name)
        gates = wires[n_inputs:]
        top = [w for w in gates if lv[w] == level]
        if not top:
            continue
        first = rng.choice(top)
        outs = [first] + rng.sample([w for w in gates if w != first], n_outputs - 1)
        lines.extend(f"out {w}" for w in outs)
        return "\n".join(lines) + "\n"
