"""Leveled homomorphic encryption for bit vectors over Z_q.

Multi-bit XOR/AND on encrypted data, built on exact big-integer and
rational arithmetic — no floating point anywhere in the scheme.  See the
README for the quickstart; the usual flow is

    params = preset_params("toy")
    sk  = keygen(params, Random(1))
    evk = build_evalkey(sk, rng=Random(2))
    c   = encrypt(sk, [0, 1], Random(3))

The polynomial arithmetic that key construction runs inside,
``mvpoly.Polynomial`` and ``mvpoly.reduce_by_set``, is not exported here;
import it from ``mvphe.mvpoly``.
"""

from .arith import NoiseSampler, random_prime
from .circuit import Circuit, eval_homomorphic, eval_plain, parse_circuit
from .errors import (
    ConstructionError,
    DepthError,
    FormatError,
    GenerationFailure,
    MvpheError,
    ParameterError,
    SingularMatrixError,
)
from .keys import (
    PRESETS,
    EvalKey,
    Params,
    SecretKey,
    build_evalkey,
    keygen,
    preset_params,
    setup,
)
from .mvpoly import enumerate_monomials
from .she import (
    Ciphertext,
    PublicKey,
    decrypt,
    encrypt,
    eval_add,
    eval_mult,
    mult_noise_hint,
    noise_of,
    pk_encrypt,
    pk_keygen,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # arithmetic
    "NoiseSampler", "random_prime",
    # monomial order of the secret key's g (``SecretKey.g``)
    "enumerate_monomials",
    # keys and parameters
    "Params", "SecretKey", "EvalKey", "PRESETS", "setup", "preset_params",
    "keygen", "build_evalkey",
    # encryption
    "Ciphertext", "PublicKey", "encrypt", "decrypt", "noise_of",
    "eval_add", "eval_mult", "mult_noise_hint", "pk_keygen", "pk_encrypt",
    # circuits
    "Circuit", "parse_circuit", "eval_plain", "eval_homomorphic",
    # errors
    "MvpheError", "ParameterError", "SingularMatrixError", "ConstructionError",
    "GenerationFailure", "DepthError", "FormatError",
]
