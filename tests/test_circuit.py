"""Netlist parsing, plain evaluation, and homomorphic evaluation."""

import itertools
from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest

from mvphe import circuit as circuit_mod
from mvphe import she as she_mod
from mvphe import (
    build_evalkey,
    decrypt,
    encrypt,
    eval_homomorphic,
    eval_plain,
    mult_noise_hint,
    noise_of,
    parse_circuit,
)
from mvphe.errors import DepthError, FormatError, ParameterError
from oracles import hint_ledger, random_circuit

SIMPLE = """
in a
in b
t = AND a b
out t
"""

FULL_ADDER = """
# one-bit full adder: sum and carry-out
in a
in b
in cin
ab   = XOR a b
s    = XOR ab cin    # sum
ab2  = AND a b
abc  = AND ab cin
cout = XOR ab2 abc   # carry
out s
out cout
"""

# wire a feeds three ANDs, on both sides
SHARED_WIRE = """
in a
in b
in c
in d
ab = AND a b
ca = AND c a
ad = AND a d
x  = XOR ab ca
out x
out ad
"""


# --- parsing ----------------------------------------------------------------

def test_parse_simple():
    c = parse_circuit(SIMPLE)
    assert c.inputs == ["a", "b"]
    assert c.outputs == ["t"]
    assert [g.op for g in c.gates] == ["AND"]
    assert c.depth == 1 and c.level_need == 1
    assert [g.out for g in c.gates] == ["t"]


def test_parse_full_adder():
    c = parse_circuit(FULL_ADDER)
    assert c.inputs == ["a", "b", "cin"]
    assert c.outputs == ["s", "cout"]
    assert len(c.gates) == 5
    # the deepest output path crosses one AND (cout); sum crosses none
    assert c.depth == 1 and c.level_need == 1


def test_parse_comments_and_blanks():
    c = parse_circuit("\n\n# header\nin a\nin b   # trailing\n\nt = XOR a b\nout t\n")
    assert c.inputs == ["a", "b"] and c.outputs == ["t"]


def test_parse_error_line_numbers():
    with pytest.raises(FormatError, match="line 3"):
        parse_circuit("in a\nin b\nt = NAND a b\nout t")
    with pytest.raises(FormatError, match="bad identifier 'A'"):
        parse_circuit("in A\nout A")
    with pytest.raises(FormatError, match="line 2: duplicate definition"):
        parse_circuit("in a\nin a\nout a")
    with pytest.raises(FormatError, match="forward references"):
        parse_circuit("in a\nt = XOR a u\nu = XOR a a\nout t")
    with pytest.raises(FormatError, match="line 3: inputs must precede"):
        parse_circuit("in a\nt = XOR a a\nin b\nout t")
    with pytest.raises(FormatError, match="not defined"):
        parse_circuit("in a\nout missing")
    with pytest.raises(FormatError, match="cannot parse"):
        parse_circuit("in a\nt = XOR a\nout t")
    with pytest.raises(FormatError, match="^line 2: expected 'in <id>'$"):
        parse_circuit("in a\nin b c\nout a")
    with pytest.raises(FormatError, match="^line 2: expected 'out <id>'$"):
        parse_circuit("in a\nout\n")
    with pytest.raises(FormatError, match="^line 3: duplicate definition of 't'$"):
        parse_circuit("in a\nt = XOR a a\nt = AND a a\nout t")


def test_parse_requires_io():
    with pytest.raises(FormatError, match="no inputs"):
        parse_circuit("# empty\n")
    with pytest.raises(FormatError, match="no outputs"):
        parse_circuit("in a\nt = XOR a a\n")


def test_level_need_exceeds_depth_on_trees():
    # balanced product tree of 4 inputs: AND-depth 2, ledger 1+1+1 = 3
    tree = """
in a
in b
in c
in d
ab = AND a b
cd = AND c d
r  = AND ab cd
out r
"""
    c = parse_circuit(tree)
    assert c.depth == 2
    assert c.level_need == 3


# --- plain evaluation -------------------------------------------------------

def test_eval_plain_full_adder_truth_table():
    c = parse_circuit(FULL_ADDER)
    for a, b, cin in itertools.product((0, 1), repeat=3):
        s, cout = eval_plain(c, [[a], [b], [cin]])
        assert s == [(a + b + cin) % 2]
        assert cout == [(a + b + cin) // 2]


def test_eval_plain_is_slotwise():
    c = parse_circuit(FULL_ADDER)
    a, b, cin = [0, 1, 1, 0], [1, 1, 0, 0], [1, 0, 1, 0]
    s, cout = eval_plain(c, [a, b, cin])
    for k in range(4):
        assert s[k] == (a[k] + b[k] + cin[k]) % 2
        assert cout[k] == (a[k] + b[k] + cin[k]) // 2


def test_eval_plain_xor_self_cancels():
    c = parse_circuit("in a\nz = XOR a a\nout z\nout a")
    z, a = eval_plain(c, [[1, 0, 1]])
    assert z == [0, 0, 0]
    assert a == [1, 0, 1]  # identity wire comes back untouched


def test_eval_plain_validates_inputs():
    c = parse_circuit(SIMPLE)
    with pytest.raises(ParameterError):
        eval_plain(c, [[0, 1]])  # arity
    with pytest.raises(ParameterError):
        eval_plain(c, [[0, 1], [0]])  # ragged widths
    with pytest.raises(ParameterError):
        eval_plain(c, [[0, 2], [0, 1]])  # non-bit


def test_eval_plain_refuses_bits_that_are_not_ints():
    c = parse_circuit(SIMPLE)
    for bad in ([[1.0, 0], [0, 1]], [[0, 1], [0, Fraction(1)]]):
        with pytest.raises(ParameterError, match="ints 0 or 1"):
            eval_plain(c, bad)
    assert eval_plain(c, [[True, True], [True, False]]) == [[1, 0]]


# --- homomorphic evaluation --------------------------------------------------

def test_homomorphic_matches_plain(toy_sk, toy_evk):
    p = toy_sk.params
    c = parse_circuit(FULL_ADDER)
    rng = Random(131)
    for _ in range(5):
        plains = [[rng.randrange(2) for _ in range(p.message_bits)]
                  for _ in c.inputs]
        cts = [encrypt(toy_sk, m, rng) for m in plains]
        want = eval_plain(c, plains)
        got = eval_homomorphic(toy_evk, c, cts)
        assert [decrypt(toy_sk, ct) for ct in got] == want


def test_a_wire_feeding_three_ands_costs_one_carry_product(toy_sk, monkeypatch):
    """Each evaluation computes one carry product per distinct input
    vector, not one per AND input: wire a feeds three ANDs, and toy's one
    carry table serves both sides.  A key that has evaluated the netlist
    before keeps nothing from it, and gives the Ciphertexts, hints
    included, of a fresh key of the same seed and of the gates run one
    eval_mult at a time with no shared memo; they decrypt to eval_plain's."""
    p = toy_sk.params
    c = parse_circuit(SHARED_WIRE)
    rng = Random(140)
    plains = [[rng.randrange(2) for _ in range(p.message_bits)] for _ in c.inputs]
    cts = [encrypt(toy_sk, m, rng) for m in plains]
    warm = build_evalkey(toy_sk, rng=Random(141))
    eval_homomorphic(warm, c, [encrypt(toy_sk, m, rng) for m in plains])
    fresh = build_evalkey(toy_sk, rng=Random(141))
    assert fresh == warm
    a, b, cc, d = cts
    ab, ca, ad = (she_mod.eval_mult(fresh, x, y) for x, y in ((a, b), (cc, a), (a, d)))
    want = [she_mod.eval_add(ab, ca), ad]
    calls = []
    real = she_mod._carry_product
    monkeypatch.setattr(she_mod, "_carry_product",
                        lambda vec, *args: calls.append(tuple(vec)) or real(vec, *args))
    for evk in (fresh, warm):
        calls.clear()
        got = eval_homomorphic(evk, c, cts)
        assert sorted(calls) == sorted(tuple(ct.vec) for ct in cts)
        assert got == want
        assert [ct.noise_hint for ct in got] == [ct.noise_hint for ct in want]
        assert [decrypt(toy_sk, ct) for ct in got] == eval_plain(c, plains)


def test_product_trees_and_chains_evaluate_on_toy(toy_sk, toy_evk):
    """Toy admits what its noise allows, past its L = 2: the product tree
    ((a AND b) AND (c AND d)), whose level_need is 3, and a chain of three
    ANDs decrypt correctly, with measured noise within each output's hint."""
    p = toy_sk.params
    c = parse_circuit("in a\nin b\nin c\nin d\nab = AND a b\ncd = AND c d\n"
                      "r = AND ab cd\ns = AND r d\nout r\nout s\n")
    assert c.depth == 3 > p.L and c.level_need == 4
    rng = Random(132)
    for _ in range(5):
        plains = [[rng.randrange(2) for _ in range(p.message_bits)]
                  for _ in c.inputs]
        cts = [encrypt(toy_sk, m, rng) for m in plains]
        got = eval_homomorphic(toy_evk, c, cts)
        for ct, want in zip(got, eval_plain(c, plains), strict=True):
            assert decrypt(toy_sk, ct) == want
            assert max(map(abs, noise_of(toy_sk, ct, want))) <= ct.noise_hint


def test_homomorphic_refuses_a_product_past_the_limit(toy_sk, toy_evk,
                                                      monkeypatch):
    """A chain of four ANDs is refused by the fourth gate's eval_mult, whose
    hint would reach floor(q/2)/2, and the call returns nothing; the
    refusal names that gate's output wire."""
    calls = []
    real = circuit_mod.eval_mult
    monkeypatch.setattr(circuit_mod, "eval_mult",
                        lambda *args: calls.append(1) or real(*args))
    deep = parse_circuit("""
in a
in b
t0 = AND a b
t1 = AND t0 b
t2 = AND t1 b
t3 = AND t2 b
out t3
""")
    cts = [encrypt(toy_sk, [0, 1], Random(132)) for _ in range(2)]
    with pytest.raises(DepthError, match="^AND refused: its noise hint .* reaches "
                                         r"floor\(q/2\)/2 = \S+ at gate t3$"):
        eval_homomorphic(toy_evk, deep, cts)
    assert len(calls) == 4


def test_homomorphic_refusal_reads_input_hints(toy_sk, toy_evk, monkeypatch):
    """The refusal follows the hints of the ciphertexts given, not their
    vectors, and covers every AND gate, outputs or not."""
    calls = []
    real = circuit_mod.eval_mult
    monkeypatch.setattr(circuit_mod, "eval_mult",
                        lambda *args: calls.append(1) or real(*args))
    fresh = [encrypt(toy_sk, [1, 1], Random(134)) for _ in range(2)]
    twice = real(toy_evk, real(toy_evk, *fresh), fresh[0])
    chain = parse_circuit("in x\nin y\nt = AND x y\nu = AND t y\nout u\n")
    (out,) = eval_homomorphic(toy_evk, chain, fresh)
    assert decrypt(toy_sk, out) == [1, 1]
    assert len(calls) == 2
    calls.clear()
    worn = replace(fresh[0], noise_hint=twice.noise_hint)
    with pytest.raises(DepthError, match="AND refused"):
        eval_homomorphic(toy_evk, chain, [worn, fresh[1]])
    assert len(calls) == 2
    calls.clear()
    dead = parse_circuit("in x\nin y\nt = AND x y\nu = AND t t\nv = AND u u\n"
                         "w = AND v v\nout x\n")
    assert dead.level_need == 0
    with pytest.raises(DepthError, match="AND refused"):
        eval_homomorphic(toy_evk, dead, fresh)
    assert len(calls) == 4


def test_homomorphic_refuses_foreign_inputs_before_any_gate(toy_evk, small_sk,
                                                            monkeypatch):
    """A ciphertext under another parameter set is refused before any gate
    runs, also in a circuit of XOR gates only."""
    calls = []
    real = circuit_mod.eval_add
    monkeypatch.setattr(circuit_mod, "eval_add",
                        lambda *args: calls.append(1) or real(*args))
    c = parse_circuit("in a\nin b\nt = XOR a b\nout t\n")
    mb = small_sk.params.message_bits
    cts = [encrypt(small_sk, [1] * mb, Random(139)) for _ in range(2)]
    with pytest.raises(ParameterError, match="modulus does not match"):
        eval_homomorphic(toy_evk, c, cts)
    assert calls == []


def test_homomorphic_arity_check(toy_sk, toy_evk):
    c = parse_circuit(SIMPLE)
    ct = encrypt(toy_sk, [0, 1], Random(133))
    with pytest.raises(ParameterError):
        eval_homomorphic(toy_evk, c, [ct])


def test_xor_only_circuit_hint_telescopes(toy_sk, toy_evk):
    """XOR gates add hints plus one; an XOR-only circuit's output hint is
    bounded by the sum of input hints plus the gate count."""
    text = "in a\nin b\nin c\nt0 = XOR a b\nt1 = XOR t0 c\nt2 = XOR t1 a\nout t2"
    c = parse_circuit(text)
    rng = Random(134)
    cts = [encrypt(toy_sk, [1, 0], rng) for _ in range(3)]
    (out,) = eval_homomorphic(toy_evk, c, cts)
    # a feeds two gates, b and c one each: hint = 4B + (number of gates)
    assert out.noise_hint == 4 * toy_sk.params.B + len(c.gates)


def _reference_ledgers(c):
    """Per wire from fresh inputs: AND-path depth and the l1 + l2 + 1
    level ledger, each kept gate by gate here."""
    depth = {w: 0 for w in c.inputs}
    level = {w: 0 for w in c.inputs}
    for g in c.gates:
        if g.op == "AND":
            depth[g.out] = max(depth[g.a], depth[g.b]) + 1
            level[g.out] = level[g.a] + level[g.b] + 1
        else:
            depth[g.out] = max(depth[g.a], depth[g.b])
            level[g.out] = max(level[g.a], level[g.b])
    return depth, level


def _random_netlist(rng):
    """Any mix of gates with no depth budget; outputs are one or two random
    wires, often an input, so many AND gates feed no output."""
    wires = [f"x{i}" for i in range(rng.randrange(2, 5))]
    lines = [f"in {w}" for w in wires]
    for k in range(rng.randrange(1, 10)):
        op = "AND" if rng.random() < 0.4 else "XOR"
        lines.append(f"w{k} = {op} {rng.choice(wires)} {rng.choice(wires)}")
        wires.append(f"w{k}")
    outs = sorted({rng.choice(wires) for _ in range(2)})
    return parse_circuit("\n".join(lines + [f"out {w}" for w in outs]))


def test_ledgers_match_a_reference_on_random_netlists(toy_sk, toy_evk,
                                                      monkeypatch):
    """parse_circuit's depth and level_need against ledgers kept in this
    test, and eval_homomorphic against a reference hint ledger from the
    given input hints: the circuit is refused, by the eval_mult of the
    first AND gate whose hint reaches floor(q/2)/2, exactly when some AND
    gate's hint does, output or not; otherwise every AND runs once and the
    outputs carry the reference hints.  Hints only grow along a path,
    so ``dead`` counts the refusals where every output's hint stays below
    the limit: only AND gates feeding no output cause those."""
    p = toy_sk.params
    calls = []
    real = circuit_mod.eval_mult
    monkeypatch.setattr(circuit_mod, "eval_mult",
                        lambda *args: calls.append(1) or real(*args))
    rng = Random(138)
    fresh = [encrypt(toy_sk, [1, 0], rng) for _ in range(4)]
    # the hint of a ciphertext two ANDs deep
    worn = mult_noise_hint(toy_evk, mult_noise_hint(toy_evk, p.B, p.B), p.B)
    refused = dead = 0
    for _ in range(200):
        c = _random_netlist(rng)
        depth, level = _reference_ledgers(c)
        assert c.depth == max(depth[w] for w in c.outputs)
        assert c.level_need == max(level[w] for w in c.outputs)
        in_hints = [rng.choice((p.B, worn)) for _ in c.inputs]
        hint, ands = hint_ledger(c, p, in_hints)
        past = [2 * h >= p.q // 2 for h in ands]
        cts = [replace(ct, noise_hint=h) for ct, h in zip(fresh, in_hints)]
        calls.clear()
        if any(past):
            refused += 1
            dead += all(2 * hint[w] < p.q // 2 for w in c.outputs)
            with pytest.raises(DepthError, match="AND refused"):
                eval_homomorphic(toy_evk, c, cts)
            assert len(calls) == past.index(True) + 1
        else:
            outs = eval_homomorphic(toy_evk, c, cts)
            assert len(calls) == len(ands)
            assert [ct.noise_hint for ct in outs] == [hint[w] for w in c.outputs]
    assert 50 < refused < 150 and dead > 20


def test_gate_order_and_depth_examples():
    # depth only counts ANDs, independent of XOR interleaving
    c = parse_circuit(
        "in a\nin b\nx = XOR a b\ny = AND x a\nz = XOR y b\nw = AND z y\nout w")
    assert c.depth == 2
    assert c.level_need == 1 + 1 + 1  # y at 1, z at 1, w = 1+1+1


# --- random circuits ---------------------------------------------------------

def test_random_circuit_respects_budget():
    rng = Random(135)
    for _ in range(50):
        c = random_circuit(rng, n_inputs=rng.randrange(2, 6),
                           n_gates=rng.randrange(1, 40), L=2)
        assert c.level_need <= 2
        assert c.depth <= c.level_need
        wires = set(c.inputs) | {g.out for g in c.gates}
        assert c.outputs and set(c.outputs) <= wires


def test_random_circuit_rejects_degenerate():
    with pytest.raises(ParameterError):
        random_circuit(Random(136), n_inputs=1, n_gates=3, L=1)


def test_random_circuit_end_to_end(toy_sk, toy_evk):
    p = toy_sk.params
    rng = Random(137)
    for _ in range(3):
        c = random_circuit(rng, n_inputs=3, n_gates=12, L=p.L)
        plains = [[rng.randrange(2) for _ in range(p.message_bits)]
                  for _ in c.inputs]
        cts = [encrypt(toy_sk, m, rng) for m in plains]
        got = eval_homomorphic(toy_evk, c, cts)
        assert [decrypt(toy_sk, ct) for ct in got] == eval_plain(c, plains)
