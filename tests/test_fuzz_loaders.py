"""Fuzzed containers: a file with a few bytes changed, or cut short, and its
checksum re-sealed must load or be refused with an MvpheError, never a
traceback of another kind; and every CLI verb that reads it must finish, or
print ``error: …`` and exit 2.  Each example runs under a 10 s stall guard,
so a loader that stalls fails with its input shown."""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvphe import pk_keygen
from mvphe.cli import main
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
from oracles import w_run_reference

LOADERS = {
    "params": load_params,
    "secret key": load_secret_key,
    "evaluation key": load_evalkey,
    "public key": load_public_key,
    "ciphertext": load_ciphertext,
}


# CLI runs per file kind: {f} is the fuzzed file, every other input a good
# toy file of the fixture's directory
VERB_RUNS = {
    "secret key": ("evalkey --key {f} --out {out}",
                   "decrypt --key {f} --in {ciphertext}",
                   "noise --key {f} --in {ciphertext}",
                   "pk-keygen --key {f} --out {out}"),
    "evaluation key": ("eval --evalkey {f} --circuit {netlist} "
                       "--in {ciphertext} {ciphertext} --out-prefix {out}",),
    "public key": ("pk-encrypt --pk {f} --bits 10 --out {out}",),
    "ciphertext": ("decrypt --key {secret_key} --in {f}",
                   "noise --key {secret_key} --in {f}",
                   "eval --evalkey {evaluation_key} --circuit {netlist} "
                   "--in {f} {f} --out-prefix {out}"),
}


@pytest.fixture(scope="module")
def toy_bodies(tmp_path_factory, toy_params, toy_sk, toy_evk):
    """The fuzzed file's path, the paths of a good toy file of each kind
    (keyed by kind, spaces as underscores) and of a one-AND netlist, and each
    kind's body (the file without its digest).  The evaluation key's
    payload is D1s, D2s, E and W, one run each, and nothing else."""
    d = tmp_path_factory.mktemp("fuzz")
    savers = {
        "params": lambda p: save_params(toy_params, p),
        "secret key": lambda p: save_secret_key(toy_sk, p),
        "evaluation key": lambda p: save_evalkey(toy_evk, p),
        "public key": lambda p: save_public_key(pk_keygen(toy_sk, Random(160)), p),
        "ciphertext": lambda p: save_ciphertext(
            encrypt(toy_sk, [1, 0], Random(161)), toy_params, p),
    }
    paths = {"f": str(d / "fuzzed.bin"), "out": str(d / "out"),
             "netlist": str(d / "and.txt")}
    (d / "and.txt").write_text("in a\nin b\nt = AND a b\nout t\n", encoding="utf-8")
    bodies = {}
    for kind, save in savers.items():
        path = d / f"{kind.replace(' ', '_')}.bin"
        save(str(path))
        paths[path.stem] = str(path)
        bodies[kind] = path.read_bytes()[:-32]
    payload = bytearray()
    for m in (toy_evk.D1s, toy_evk.D2s, toy_evk.E, toy_evk.W):
        w_run_reference(payload, [x for row in m for x in row])
    assert bodies["evaluation key"].endswith(payload)
    assert len(bodies["evaluation key"]) == len(bodies["params"]) + len(payload)
    return paths, bodies


def _fuzz(data, body: bytearray) -> bytes:
    """The body cut short or with a few bytes changed, digest re-sealed."""
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
    return bytes(body) + hashlib.sha256(body).digest()


@pytest.mark.parametrize("kind", list(LOADERS))
@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_file_loads_or_is_refused(toy_bodies, stall_guard, kind, data):
    paths, bodies = toy_bodies
    with open(paths["f"], "wb") as fh:
        fh.write(_fuzz(data, bytearray(bodies[kind])))
    try:
        with stall_guard():
            LOADERS[kind](paths["f"])
    except MvpheError:
        pass


@pytest.mark.parametrize("kind", list(VERB_RUNS))
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_file_through_cli_verbs(toy_bodies, stall_guard, kind, data):
    paths, bodies = toy_bodies
    with open(paths["f"], "wb") as fh:
        fh.write(_fuzz(data, bytearray(bodies[kind])))
    for run in VERB_RUNS[kind]:
        err = io.StringIO()
        # a loaded ciphertext may carry any noise hint; decrypt's warning
        # about a large one is a `warning: ` line, not a failure
        with (redirect_stdout(io.StringIO()), redirect_stderr(err),
              stall_guard()):
            code = main([arg.format(**paths) for arg in run.split()])
        assert code == 0 or (code == 2 and err.getvalue().startswith("error: ")), run
        assert all(line.startswith(("warning: ", "error: "))
                   for line in err.getvalue().splitlines()), run
