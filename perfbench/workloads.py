"""The benchmark's three closed-loop workloads.

Each workload is built from a seed and a working directory.  ``setup()``
does the work a user does once before the loop; ``op(i)`` does op ``i``,
checks it, and returns ``(ok, outputs)``; ``vectors(outputs)`` gives the
output ciphertext vectors for the digest check; ``evalkey()`` gives the
workload's evaluation key and the file ``save_evalkey`` wrote it to.

Every call into mvphe goes through a module attribute (``mvphe.she.encrypt``,
never a name imported from ``mvphe``), so the wrappers that the traced run
installs on those attributes see every call.
"""

from __future__ import annotations

import hashlib
import io
import os
from contextlib import redirect_stdout
from random import Random

import mvphe.circuit
import mvphe.cli
import mvphe.keys
import mvphe.serialize
import mvphe.she

from netlist import make_netlist

# The digest check runs the first ``golden_ops`` ops of a workload at this
# seed, whatever seed the run was given, and hashes their output
# ciphertext vectors.  Outputs must stay bit-identical under a fixed seed,
# so a change to these digests is a change in behaviour.  Key files are not
# hashed: a smaller key encoding is a legitimate change.
DEFAULT_SEED = 1
EXPECTED_DIGESTS = {
    "circuit-toy": "793f79577da3c399ed3f651c8509772644087ac8fe9f4bc2c1e4e2fb7992c59e",
    "cli-eval": "079d5d2c8004cb6988d515d19edafb623ae9a2a86332e250bca74cc68ed7e906",
    "keyring": "0f0fd5ac3abe210c4b4bc0a30187eca6102afdc5fb4e8a37deec3d1e231664c5",
}


def _bits(rng: Random, n: int) -> list[int]:
    return [rng.randrange(2) for _ in range(n)]


class CircuitToy:
    """Library path on ``toy``: 8 inputs, 12 AND + 20 XOR, level_need == L == 2."""

    name = "circuit-toy"
    golden_ops = 4
    pool_size = 16

    def __init__(self, seed: int, workdir: str):
        self.seed, self.workdir = seed, workdir

    def setup(self) -> None:
        rng = Random(f"{self.seed}|{self.name}|setup")
        self.params = mvphe.keys.preset_params("toy")
        self.sk = mvphe.keys.keygen(self.params, rng)
        self.evk = mvphe.keys.build_evalkey(self.sk, rng=rng)
        self.pool = [mvphe.circuit.parse_circuit(make_netlist(rng, 8, 12, 20, 2, 4))
                     for _ in range(self.pool_size)]
        if any(c.level_need != self.params.L for c in self.pool):
            raise RuntimeError("netlist pool does not use the full depth budget")

    def op(self, i: int):
        rng = Random(f"{self.seed}|{self.name}|op|{i}")
        circ = self.pool[i % self.pool_size]
        msgs = [_bits(rng, self.params.message_bits) for _ in circ.inputs]
        cts = [mvphe.she.encrypt(self.sk, m, rng) for m in msgs]
        outs = mvphe.circuit.eval_homomorphic(self.evk, circ, cts)
        got = [mvphe.she.decrypt(self.sk, c) for c in outs]
        return got == mvphe.circuit.eval_plain(circ, msgs), outs

    def vectors(self, outs) -> list[list[int]]:
        return [c.vec for c in outs]

    def evalkey(self):
        path = os.path.join(self.workdir, "evk.bin")
        mvphe.serialize.save_evalkey(self.evk, path)
        return self.evk, path


class CliEval:
    """A user session through ``mvphe.cli.main`` on ``toy``, files in between.

    Netlists have 2 inputs, 2 AND + 2 XOR and 3 outputs, so one op is two
    ``encrypt`` verbs, one ``eval`` and three ``decrypt`` verbs: five
    secret-key loads and one evaluation-key load.
    """

    name = "cli-eval"
    golden_ops = 3
    pool_size = 8

    def __init__(self, seed: int, workdir: str):
        self.seed, self.workdir = seed, workdir
        self.sk = os.path.join(workdir, "sk.bin")
        self.evk = os.path.join(workdir, "evk.bin")

    @staticmethod
    def _cli(*argv: str) -> str:
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = mvphe.cli.main(list(argv))
        if rc != 0:
            raise RuntimeError(f"mvphe {argv[0]} exited with {rc}")
        return buf.getvalue()

    def _seed(self, rng: Random) -> str:
        return str(rng.randrange(1 << 31))

    def setup(self) -> None:
        rng = Random(f"{self.seed}|{self.name}|setup")
        self._cli("keygen", "--preset", "toy", "--seed", self._seed(rng),
                  "--out", self.sk)
        self._cli("evalkey", "--key", self.sk, "--seed", self._seed(rng),
                  "--out", self.evk)
        self.bits = mvphe.keys.preset_params("toy").message_bits
        self.pool = []
        for k in range(self.pool_size):
            text = make_netlist(rng, 2, 2, 2, 2, 3)
            path = os.path.join(self.workdir, f"net{k}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            self.pool.append((path, mvphe.circuit.parse_circuit(text)))

    def op(self, i: int):
        rng = Random(f"{self.seed}|{self.name}|op|{i}")
        path, circ = self.pool[i % self.pool_size]
        msgs = [_bits(rng, self.bits) for _ in circ.inputs]
        ins = []
        for k, m in enumerate(msgs):
            ct = os.path.join(self.workdir, f"in{k}.bin")
            self._cli("encrypt", "--key", self.sk, "--bits", "".join(map(str, m)),
                      "--seed", self._seed(rng), "--out", ct)
            ins.append(ct)
        prefix = os.path.join(self.workdir, "res")
        self._cli("eval", "--evalkey", self.evk, "--circuit", path,
                  "--in", *ins, "--out-prefix", prefix)
        outs = [f"{prefix}{k}.bin" for k in range(len(circ.outputs))]
        got = [self._cli("decrypt", "--key", self.sk, "--in", o).strip() for o in outs]
        want = ["".join(map(str, v)) for v in mvphe.circuit.eval_plain(circ, msgs)]
        return got == want, outs

    def vectors(self, outs) -> list[list[int]]:
        return [mvphe.serialize.load_ciphertext(p)[0].vec for p in outs]

    def evalkey(self):
        return mvphe.serialize.load_evalkey(self.evk), self.evk


class Keyring:
    """Provision one tenant per op on ``bench16``: keys, files, and a check."""

    name = "keyring"
    golden_ops = 1

    def __init__(self, seed: int, workdir: str):
        self.seed, self.workdir = seed, workdir
        self.paths = {kind: os.path.join(workdir, f"{kind}.bin")
                      for kind in ("sk", "evk", "pk")}

    def setup(self) -> None:
        self.params = mvphe.keys.preset_params("bench16")

    def op(self, i: int):
        rng = Random(f"{self.seed}|{self.name}|op|{i}")
        sk = mvphe.keys.keygen(self.params, rng)
        evk = mvphe.keys.build_evalkey(sk, rng=rng)
        pk = mvphe.she.pk_keygen(sk, rng)
        mvphe.serialize.save_secret_key(sk, self.paths["sk"])
        mvphe.serialize.save_evalkey(evk, self.paths["evk"])
        mvphe.serialize.save_public_key(pk, self.paths["pk"])
        m1 = _bits(rng, self.params.message_bits)
        m2 = _bits(rng, self.params.message_bits)
        c = mvphe.she.eval_mult(evk, mvphe.she.pk_encrypt(pk, m1, rng),
                                mvphe.she.pk_encrypt(pk, m2, rng))
        self.last_evk = evk
        return mvphe.she.decrypt(sk, c) == [a & b for a, b in zip(m1, m2)], [c]

    def vectors(self, outs) -> list[list[int]]:
        return [c.vec for c in outs]

    def evalkey(self):
        return self.last_evk, self.paths["evk"]


WORKLOADS = {w.name: w for w in (CircuitToy, CliEval, Keyring)}


def golden_digest(name: str, workdir: str) -> tuple[str, int, int]:
    """Run the digest ops of workload ``name`` at DEFAULT_SEED.

    Returns (SHA-256 hex over their output vectors, ops attempted, ops
    whose own check failed).
    """
    w = WORKLOADS[name](DEFAULT_SEED, workdir)
    w.setup()
    h = hashlib.sha256()
    failed = 0
    for i in range(w.golden_ops):
        ok, outs = w.op(i)
        failed += not ok
        for vec in w.vectors(outs):
            h.update(repr(vec).encode() + b"\n")
    return h.hexdigest(), w.golden_ops, failed
