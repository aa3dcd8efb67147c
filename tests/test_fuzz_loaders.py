"""Fuzzed containers: a file with a few bytes changed, or cut short, and its
checksum re-sealed must load or be refused with an MvpheError, never a
traceback of another kind."""

import hashlib
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvphe import pk_keygen
from mvphe.errors import MvpheError
from mvphe.serialize import (
    load_ciphertext,
    load_evalkey,
    load_params,
    load_public_key,
    load_secret_key,
    save_ciphertext,
    save_evalkey,
    save_params,
    save_public_key,
    save_secret_key,
)
from mvphe.she import encrypt

LOADERS = {
    "params": load_params,
    "secret key": load_secret_key,
    "evaluation key": load_evalkey,
    "public key": load_public_key,
    "ciphertext": load_ciphertext,
}


@pytest.fixture(scope="module")
def toy_bodies(tmp_path_factory, toy_params, toy_sk, toy_evk):
    """Each toy file kind's body (the file without its digest)."""
    d = tmp_path_factory.mktemp("fuzz")
    savers = {
        "params": lambda p: save_params(toy_params, p),
        "secret key": lambda p: save_secret_key(toy_sk, p),
        "evaluation key": lambda p: save_evalkey(toy_evk, p),
        "public key": lambda p: save_public_key(pk_keygen(toy_sk, Random(160)), p),
        "ciphertext": lambda p: save_ciphertext(
            encrypt(toy_sk, [1, 0], Random(161)), toy_params, p),
    }
    bodies = {}
    for kind, save in savers.items():
        path = d / "file.bin"
        save(str(path))
        bodies[kind] = path.read_bytes()[:-32]
    return d / "fuzzed.bin", bodies


@pytest.mark.parametrize("kind", list(LOADERS))
@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_file_loads_or_is_refused(toy_bodies, kind, data):
    path, bodies = toy_bodies
    body = bytearray(bodies[kind])
    block_end = 11 + int.from_bytes(body[7:11], "little")
    if data.draw(st.booleans(), label="truncate"):
        body = body[:data.draw(st.integers(0, len(body) - 1), label="cut")]
    else:
        # past the magic, version and type byte, which are checked before any
        # parsing; half the changes land in the parameter block or its length
        where = st.one_of(st.integers(7, block_end - 1), st.integers(7, len(body) - 1))
        changes = data.draw(st.lists(st.tuples(where, st.integers(0, 255)),
                                     min_size=1, max_size=4), label="changes")
        for at, byte in changes:
            body[at] = byte
    path.write_bytes(bytes(body) + hashlib.sha256(body).digest())
    try:
        LOADERS[kind](str(path))
    except MvpheError:
        pass
