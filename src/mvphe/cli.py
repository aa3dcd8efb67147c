"""Command-line interface.

Verbs:

    params      print (and optionally save) a parameter set
    keygen      generate a secret key
    evalkey     build the multiplication key for a secret key
    encrypt     encrypt a bit string under a secret key
    decrypt     decrypt a ciphertext file
    pk-keygen   derive a public encryption key
    pk-encrypt  encrypt with a public key
    eval        run a circuit netlist over ciphertext files
    noise       report the exact noise of a ciphertext
    bench       time homomorphic multiplication across ciphertext sizes

Every verb that draws randomness accepts ``--seed``; with a fixed seed every
output file is byte-identical across runs.  ``--preset`` names the parameter
set for ``params`` and ``keygen`` (which takes it or ``--params``, not both);
the other verbs read it from their input files.  Files carry a parameter
fingerprint, and verbs that combine files refuse to run when the
fingerprints disagree.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from random import Random

from . import circuit as circuit_mod
from . import serialize
from .arith import approx
from .errors import MvpheError
from .keys import PRESETS, Params, build_evalkey, keygen, preset_params, setup
from .she import (
    decrypt,
    encrypt,
    eval_mult,
    noise_of,
    pk_encrypt,
    pk_keygen,
)

BENCH_PRESETS = ("toy", "bench12", "bench16")


def _rng(args, stage: str) -> Random:
    if args.seed is None:
        return Random()
    return Random(f"{args.seed}|{stage}")


def _modulus_rng(args) -> Random | None:
    """None when unseeded, so setup() stays a pure function of its knobs."""
    if args.seed is None:
        return None
    return Random(f"{args.seed}|modulus")


def _parse_bits(s: str, expected: int) -> list[int]:
    s = s.strip()
    if len(s) != expected or any(c not in "01" for c in s):
        raise MvpheError(
            f"message must be {expected} characters of 0/1, got {s!r}")
    return [int(c) for c in s]


def _positive_int(s: str) -> int:
    n = int(s)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _check_fingerprints(a: Params, b: Params, what: str) -> None:
    fa, fb = serialize.params_fingerprint(a), serialize.params_fingerprint(b)
    if fa != fb:
        raise MvpheError(
            f"parameter fingerprint mismatch between {what} ({fa} vs {fb}); "
            "refusing to continue")


def _fmt_matrix(name: str, m) -> str:
    body = "\n".join("  [" + ", ".join(str(x) for x in row) + "]" for row in m)
    return f"{name} ({len(m)}x{len(m[0]) if m else 0}):\n{body}"


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def cmd_params(args) -> int:
    # each option's dest is the setup()/preset_params() keyword it sets
    overrides = {name: getattr(args, name)
                 for name in ("lambda_", "L", "v", "r_g", "r_prime", "ell",
                              "q_bits", "sigma", "u", "B")
                 if getattr(args, name) is not None}
    if args.preset:
        p = preset_params(args.preset, rng=_modulus_rng(args), **overrides)
    else:
        p = setup(rng=_modulus_rng(args), **overrides)
    margin = p.depth_margin()
    print("parameter set")
    print(f"  lambda         {p.lambda_}")
    print(f"  depth L        {p.L}")
    print(f"  v, r_g, r'     {p.v}, {p.r_g}, {p.r_prime}  (r = {p.r})")
    print(f"  n < ell <= N   {p.n} < {p.ell} <= {p.N}")
    print(f"  n1, t          {p.n1}, {p.t}")
    print(f"  message bits   {p.message_bits}")
    print(f"  q              {p.q}  ({p.q_bits} bits)")
    print(f"  sigma, B, u    {p.sigma}, {p.B}, {p.u}")
    print(f"  depth margin   (q/B) / (n*log2 q)^L = {float(margin):.4g}")
    print(f"  fingerprint    {serialize.params_fingerprint(p)}")
    print("note: sizes are chosen for correctness at depth L; the underlying")
    print("hardness assumption is not calibrated at these toy dimensions.")
    if args.out:
        serialize.save_params(p, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_keygen(args) -> int:
    if args.params:
        p = serialize.load_params(args.params)
    else:
        p = preset_params(args.preset or "toy", rng=_modulus_rng(args))
    sk = keygen(p, _rng(args, "keygen"))
    serialize.save_secret_key(sk, args.out)
    print(f"wrote {args.out} (fingerprint {serialize.params_fingerprint(p)})")
    if args.dump_keys:
        print(f"g = {sk.g}")
        print(f"points ({len(sk.points)}): " +
              " ".join(str(z) for z in sk.points))
        print(_fmt_matrix("S", sk.S))
        print(_fmt_matrix("R1", sk.R1))
        print(_fmt_matrix("R2", sk.R2))
    return 0


def cmd_evalkey(args) -> int:
    sk = serialize.load_secret_key(args.key)
    evk = build_evalkey(sk, rng=_rng(args, "evalkey"))
    serialize.save_evalkey(evk, args.out)
    print(f"wrote {args.out} ({evk.input_dim}x{sk.params.t} factors)")
    return 0


def cmd_encrypt(args) -> int:
    sk = serialize.load_secret_key(args.key)
    m = _parse_bits(args.bits, sk.params.message_bits)
    ct = encrypt(sk, m, _rng(args, "encrypt"), zero_noise=args.zero_noise)
    serialize.save_ciphertext(ct, sk.params, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_decrypt(args) -> int:
    sk = serialize.load_secret_key(args.key)
    ct, ct_params = serialize.load_ciphertext(args.infile)
    _check_fingerprints(sk.params, ct_params, "key and ciphertext")
    bits = decrypt(sk, ct)
    print("".join(str(b) for b in bits))
    return 0


def cmd_pk_keygen(args) -> int:
    sk = serialize.load_secret_key(args.key)
    pk = pk_keygen(sk, _rng(args, "pk-keygen"))
    serialize.save_public_key(pk, args.out)
    print(f"wrote {args.out} (d = {pk.d} zero encryptions)")
    return 0


def cmd_pk_encrypt(args) -> int:
    pk = serialize.load_public_key(args.pk)
    m = _parse_bits(args.bits, pk.params.message_bits)
    ct = pk_encrypt(pk, m, _rng(args, "pk-encrypt"))
    serialize.save_ciphertext(ct, pk.params, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_eval(args) -> int:
    evk = serialize.load_evalkey(args.evalkey)
    with open(args.circuit, "r", encoding="utf-8") as fh:
        circ = circuit_mod.parse_circuit(fh.read())
    cts = []
    for path in args.inputs:
        ct, ct_params = serialize.load_ciphertext(path)
        _check_fingerprints(evk.params, ct_params, f"evaluation key and {path}")
        cts.append(ct)
    outs = circuit_mod.eval_homomorphic(evk, circ, cts)
    for i, ct in enumerate(outs):
        path = f"{args.out_prefix}{i}.bin"
        serialize.save_ciphertext(ct, evk.params, path)
        print(f"{circ.outputs[i]} -> {path}")
    return 0


def cmd_noise(args) -> int:
    sk = serialize.load_secret_key(args.key)
    ct, ct_params = serialize.load_ciphertext(args.infile)
    _check_fingerprints(sk.params, ct_params, "key and ciphertext")
    m = (_parse_bits(args.bits, sk.params.message_bits) if args.bits
         else decrypt(sk, ct))
    e = noise_of(sk, ct, m)
    print(f"plaintext  {''.join(str(b) for b in m)}")
    print(f"noise      {e}")
    print(f"max |e|    {max(abs(x) for x in e)}")
    hint = ct.noise_hint
    shown = f"  (~{approx(hint, '.6g')})" if hint is not None else ""
    print(f"hint       {hint}{shown}")
    print(f"level      {ct.level}")
    return 0


def cmd_bench(args) -> int:
    rows = []
    for name in BENCH_PRESETS:
        seed_tag = args.seed if args.seed is not None else "bench"
        rng = Random(f"{seed_tag}|bench|{name}")
        p = preset_params(name, rng=rng)
        sk = keygen(p, rng)
        evk = build_evalkey(sk, rng=rng)
        m1 = [rng.randrange(2) for _ in range(p.message_bits)]
        m2 = [rng.randrange(2) for _ in range(p.message_bits)]
        c1 = encrypt(sk, m1, rng)
        c2 = encrypt(sk, m2, rng)
        eval_mult(evk, c1, c2)  # warmup
        t0 = time.perf_counter()
        for _ in range(args.mults):
            eval_mult(evk, c1, c2)
        per = (time.perf_counter() - t0) / args.mults
        rows.append((p.n, p.ell, p.q_bits, per))
    lines = ["n,ell,log2_q,seconds_per_mult"]
    lines += [f"{n},{ell},{bits},{per:.6f}" for n, ell, bits, per in rows]
    csv = "\n".join(lines) + "\n"
    sys.stdout.write(csv)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(csv)
        print(f"wrote {args.csv}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache  # built once per process: main runs once per verb
def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="mvphe",
        description="leveled homomorphic encryption over Z_q "
                    "(multivariate-evaluation based)")
    sub = top.add_subparsers(dest="command", required=True)

    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=None,
                        help="seed for all randomness (reproducible output)")
    preset = dict(choices=sorted(PRESETS), default=None,
                  help="named parameter set")

    p = sub.add_parser("params", parents=[seeded],
                       help="print/save a parameter set")
    p.add_argument("--preset", **preset)
    p.add_argument("--lambda", dest="lambda_", type=int, default=None)
    p.add_argument("--depth", dest="L", type=int, default=None,
                   help="multiplicative depth L")
    for name in ("--v", "--r-g", "--r-prime", "--ell", "--q-bits", "--sigma",
                 "--u"):
        p.add_argument(name, dest=name[2:].replace("-", "_"), type=int,
                       default=None)
    p.add_argument("--noise-bound", dest="B", type=int, default=None,
                   help="noise bound B (default ceil(6*sigma))")
    p.add_argument("--out", default=None, help="write the parameter file here")
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("keygen", parents=[seeded],
                       help="generate a secret key")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--preset", **preset)
    source.add_argument("--params", default=None,
                        help="parameter file (default: the toy preset)")
    p.add_argument("--out", required=True)
    p.add_argument("--dump-keys", action="store_true",
                   help="also print the key components")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("evalkey", parents=[seeded],
                       help="build the multiplication key")
    p.add_argument("--key", required=True, help="secret key file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evalkey)

    p = sub.add_parser("encrypt", parents=[seeded], help="encrypt bits")
    p.add_argument("--key", required=True, help="secret key file")
    p.add_argument("--bits", required=True, help="plaintext bits, e.g. 01")
    p.add_argument("--out", required=True)
    p.add_argument("--zero-noise", action="store_true",
                   help="omit the noise term (debugging)")
    p.set_defaults(func=cmd_encrypt)

    p = sub.add_parser("decrypt", help="decrypt a ciphertext")
    p.add_argument("--key", required=True, help="secret key file")
    p.add_argument("--in", dest="infile", required=True, help="ciphertext file")
    p.set_defaults(func=cmd_decrypt)

    p = sub.add_parser("pk-keygen", parents=[seeded],
                       help="derive a public encryption key")
    p.add_argument("--key", required=True, help="secret key file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pk_keygen)

    p = sub.add_parser("pk-encrypt", parents=[seeded],
                       help="encrypt with a public key")
    p.add_argument("--pk", required=True, help="public key file")
    p.add_argument("--bits", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pk_encrypt)

    p = sub.add_parser("eval", help="evaluate a circuit over ciphertexts")
    p.add_argument("--evalkey", required=True)
    p.add_argument("--circuit", required=True, help="netlist file")
    p.add_argument("--in", dest="inputs", nargs="+", required=True,
                   help="input ciphertext files, in circuit input order")
    p.add_argument("--out-prefix", required=True,
                   help="output files are <prefix><i>.bin")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("noise", help="report exact ciphertext noise")
    p.add_argument("--key", required=True, help="secret key file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--bits", default=None,
                   help="expected plaintext (default: decrypt first)")
    p.set_defaults(func=cmd_noise)

    p = sub.add_parser("bench", parents=[seeded],
                       help="time multiplication across ciphertext sizes")
    p.add_argument("--mults", type=_positive_int, default=10,
                   help="timed multiplications per size (default 10)")
    p.add_argument("--csv", default=None, help="also write the CSV here")
    p.set_defaults(func=cmd_bench)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MvpheError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
