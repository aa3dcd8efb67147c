"""The package's public flows, run under a line tracer.

    python public_flows.py HITS WORKDIR

installs ``sys.settrace`` before it imports mvphe, runs every flow below
through the public API and ``cli.main`` alone, and writes the package lines
that ran to HITS as JSON, {file name: [line, ...]}; every file it makes
goes to WORKDIR.  It is meant for a fresh interpreter with standard output
a pipe: a cache filled by an earlier caller in the same process (the CLI's
parser, a slot reader, a proved prime, the sampler's weights) would hide
the body that fills it.  ``test_hygiene.test_every_statement_runs`` runs
it and reads HITS.
"""

import copy
import importlib.util
import json
import sys
import warnings
from pathlib import Path
from random import Random

PACKAGE = Path(importlib.util.find_spec("mvphe").submodule_search_locations[0])
HITS = {str(path): set() for path in PACKAGE.glob("*.py")}


def _tracer(lines: set):
    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local
    return local


TRACERS = {path: _tracer(lines) for path, lines in HITS.items()}


def _trace(frame, event, arg):
    return TRACERS.get(frame.f_code.co_filename)


NETLIST = """\
# a comment line, then a blank one

in a
in b
t0 = AND a b  # a comment after a gate
t1 = XOR t0 b
out t1
out t0
"""


def api_flows(mvphe, serialize, workdir: Path) -> None:
    """Every preset end to end: keys, both encryptions, both gates, noise,
    every file kind saved and loaded, and a netlist evaluated both ways."""
    circ = mvphe.parse_circuit(NETLIST)
    for name in sorted(mvphe.PRESETS):
        p = mvphe.preset_params(name)
        rng = Random(f"flows-{name}")
        sk = mvphe.keygen(p, rng)
        evk = mvphe.build_evalkey(sk, rng)
        m1 = [1] + [0] * (p.message_bits - 1)
        m2 = [1] * p.message_bits
        c1, c2 = mvphe.encrypt(sk, m1, rng), mvphe.encrypt(sk, m2, rng)
        both = [a & b for a, b in zip(m1, m2)]
        product = mvphe.eval_mult(evk, c1, c2)
        assert mvphe.decrypt(sk, product) == both
        assert mvphe.decrypt(sk, mvphe.eval_add(c1, c2)) == [
            a ^ b for a, b in zip(m1, m2)]
        assert max(map(abs, mvphe.noise_of(sk, product, both))) <= product.noise_hint
        pk = mvphe.pk_keygen(sk, rng)
        c3 = mvphe.pk_encrypt(pk, m2, rng)
        assert mvphe.decrypt(sk, c3) == m2
        path = str(workdir / name)
        serialize.save_params(p, path)
        assert serialize.load_params(path) == p
        serialize.save_secret_key(sk, path)
        assert serialize.load_secret_key(path) == sk
        serialize.save_evalkey(evk, path)
        assert serialize.load_evalkey(path) == evk
        serialize.save_public_key(pk, path)
        assert serialize.load_public_key(path) == pk
        serialize.save_ciphertext(c3, p, path)
        assert serialize.load_ciphertext(path) == (c3, p)
        outs = mvphe.eval_homomorphic(evk, circ, [c1, c2])
        assert [mvphe.decrypt(sk, ct) for ct in outs] == mvphe.eval_plain(circ, [m1, m2])


def limit_flows(mvphe) -> None:
    """Sums past the decryption limit, whose decryption warns, and a key
    at sigma = 0, whose sampler draws nothing."""
    p = mvphe.preset_params("toy")
    sk = mvphe.keygen(p, Random("flows-limit"))
    ct = mvphe.encrypt(sk, [1, 0], Random(1))
    while 2 * ct.noise_hint < p.q // 2:
        ct = mvphe.eval_add(ct, ct)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        mvphe.decrypt(sk, ct)
    assert len(caught) == 1
    p0 = mvphe.setup(sigma=0)
    sk0 = mvphe.keygen(p0, Random("flows-sigma0"))
    ct0 = mvphe.encrypt(sk0, [1, 1], Random(2))
    assert mvphe.noise_of(sk0, ct0, [1, 1]) == [0, 0]


def cli_flows(mvphe, cli, serialize, workdir: Path) -> None:
    """Every verb, with its options both ways where a branch depends on
    them; a ciphertext whose hint is past the float range; and a secret-key
    file whose R1 is zero, which decrypt refuses."""
    def run(*argv) -> int:
        return cli.main([str(a) for a in argv])

    w = workdir
    params = w / "cli.params"
    assert run("params") == 0
    assert run("params", "--preset", "toy", "--seed", 1, "--out", params) == 0
    assert run("params", "--depth", 1, "--out", params) == 0
    assert run("keygen", "--params", params, "--seed", 1, "--out", w / "sk",
               "--dump-keys") == 0
    assert run("keygen", "--preset", "toy", "--seed", 2, "--out", w / "sk") == 0
    assert run("evalkey", "--key", w / "sk", "--seed", 1, "--out", w / "evk") == 0
    assert run("encrypt", "--key", w / "sk", "--bits", "01", "--seed", 1,
               "--out", w / "c1") == 0
    assert run("encrypt", "--key", w / "sk", "--bits", "11", "--zero-noise",
               "--out", w / "c2") == 0
    assert run("decrypt", "--key", w / "sk", "--in", w / "c1") == 0
    assert run("pk-keygen", "--key", w / "sk", "--seed", 1, "--out", w / "pk") == 0
    assert run("pk-encrypt", "--pk", w / "pk", "--bits", "10", "--seed", 1,
               "--out", w / "c3") == 0
    (w / "net").write_text(NETLIST, encoding="utf-8")
    assert run("eval", "--evalkey", w / "evk", "--circuit", w / "net",
               "--in", w / "c1", w / "c2", "--out-prefix", w / "out") == 0
    assert run("noise", "--key", w / "sk", "--in", w / "c1") == 0
    assert run("noise", "--key", w / "sk", "--in", w / "c2", "--bits", "11") == 0
    assert run("bench", "--mults", 1, "--seed", 1, "--csv", w / "bench.csv") == 0

    sk = serialize.load_secret_key(str(w / "sk"))
    ct, p = serialize.load_ciphertext(str(w / "c1"))
    serialize.save_ciphertext(mvphe.Ciphertext(vec=ct.vec, q=p.q, noise_hint=1 << 1100),
                              p, str(w / "huge"))
    assert run("noise", "--key", w / "sk", "--in", w / "huge") == 0
    zero = copy.copy(sk)
    zero.R1 = [[0] * p.n for _ in range(p.n)]
    serialize.save_secret_key(zero, str(w / "zero"))
    assert run("decrypt", "--key", w / "zero", "--in", w / "c1") == 2


def main() -> None:
    hits_path, workdir = sys.argv[1], Path(sys.argv[2])
    sys.settrace(_trace)
    import mvphe
    from mvphe import cli, serialize
    api_flows(mvphe, serialize, workdir)
    limit_flows(mvphe)
    cli_flows(mvphe, cli, serialize, workdir)
    sys.settrace(None)
    with open(hits_path, "w", encoding="utf-8") as fh:
        json.dump({Path(path).name: sorted(lines) for path, lines in HITS.items()}, fh)


if __name__ == "__main__":
    main()
