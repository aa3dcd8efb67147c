"""End-to-end command-line workflows (run in-process through cli.main)."""

import ast
import hashlib
import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import mvphe
from mvphe import preset_params, serialize, she
from mvphe.cli import BENCH_PRESETS, build_parser, main


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A seeded key pair shared by the file-based verbs."""
    d = tmp_path_factory.mktemp("cli")
    assert main(["keygen", "--preset", "toy", "--seed", "9", "--out",
                 str(d / "sk.bin")]) == 0
    assert main(["evalkey", "--seed", "9", "--key", str(d / "sk.bin"),
                 "--out", str(d / "evk.bin")]) == 0
    return d


# --- params ------------------------------------------------------------------

def test_params_prints_dimensions(capsys):
    assert main(["params", "--preset", "toy"]) == 0
    out = capsys.readouterr().out
    assert "n < ell <= N   6 < 8 <= 10" in out
    assert "message bits   2" in out
    assert "fingerprint" in out
    assert "hardness assumption is not calibrated" in out


def test_params_custom_dimensions(capsys):
    assert main(["params", "--depth", "1", "--v", "1", "--r-g", "1",
                 "--r-prime", "1", "--ell", "3"]) == 0
    out = capsys.readouterr().out
    assert "n < ell <= N   2 < 3 <= 3" in out


def test_params_preset_takes_every_override(capsys):
    assert main(["params", "--preset", "toy", "--ell", "9", "--u", "3",
                 "--noise-bound", "50", "--depth", "1"]) == 0
    out = capsys.readouterr().out
    assert "n < ell <= N   6 < 9 <= 10" in out
    assert "sigma, B, u    8, 50, 3" in out
    assert "depth L        1" in out


def test_params_bad_depth_exits_2(capsys):
    assert main(["params", "--depth", "0"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--depth", "14"], "no modulus size up to 64 bits supports depth L=14 "),
    (["--depth", "100000000"],
     "no modulus size up to 64 bits supports depth L=100000000 "),
    (["--v", "-5"], "need v, r_g, r_prime >= 1"),
    (["--r-prime", "-3"], "need v, r_g, r_prime >= 1"),
    (["--lambda", "4294967296", "--out", "p.bin"],
     "need lambda < 2^32, got lambda = 4294967296"),
    (["--q-bits", "30000"], "q must have at most 64 bits, got 30000"),
    (["--v", "3000000", "--r-prime", "3000000"], "need t < 2^32 points"),
])
def test_params_refuses_bad_input_at_once(argv, message, tmp_path, capsys):
    """Each input ends in one error line, not a traceback or a stall (a
    depth of 14 ran past a minute, 30000 bits drew a prime, and a shape of
    3·10^6 variables sized q for over a minute)."""
    argv = [str(tmp_path / a) if a.endswith(".bin") else a for a in argv]
    t0 = time.perf_counter()
    assert main(["params", *argv]) == 2
    assert time.perf_counter() - t0 < 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert not (tmp_path / "p.bin").exists()


def test_params_unseeded_is_deterministic(capsys):
    assert main(["params", "--preset", "toy"]) == 0
    first = capsys.readouterr().out
    assert main(["params", "--preset", "toy"]) == 0
    assert capsys.readouterr().out == first


def test_params_out_is_byte_identical_across_runs(tmp_path, capsys):
    a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    assert main(["params", "--preset", "small", "--seed", "3", "--out", a]) == 0
    assert main(["params", "--preset", "small", "--seed", "3", "--out", b]) == 0
    capsys.readouterr()
    with open(a, "rb") as f1, open(b, "rb") as f2:
        assert f1.read() == f2.read()


# --- keygen / encrypt / decrypt ----------------------------------------------

def test_keygen_is_seeded_deterministic(tmp_path, capsys):
    a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    assert main(["keygen", "--preset", "toy", "--seed", "4", "--out", a]) == 0
    assert main(["keygen", "--preset", "toy", "--seed", "4", "--out", b]) == 0
    capsys.readouterr()
    with open(a, "rb") as f1, open(b, "rb") as f2:
        assert f1.read() == f2.read()


def test_keygen_writes_to_the_null_device(capsys):
    assert main(["keygen", "--preset", "toy", "--seed", "7", "--out",
                 os.devnull]) == 0
    assert f"wrote {os.devnull}" in capsys.readouterr().out


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_keygen_into_a_pipe_writes_the_file_bytes(tmp_path, capsys):
    """--out /dev/fd/<w> on a pipe's write end gives exactly the bytes a
    regular file gets."""
    argv = ["keygen", "--preset", "toy", "--seed", "7", "--out"]
    assert main([*argv, str(tmp_path / "sk.bin")]) == 0
    r, w = os.pipe()
    with os.fdopen(r, "rb") as reader:
        with os.fdopen(w, "wb") as writer:
            assert main([*argv, f"/dev/fd/{writer.fileno()}"]) == 0
        got = reader.read()
    capsys.readouterr()
    assert got == (tmp_path / "sk.bin").read_bytes()
    assert len(got) == 739


def _mvphe(*argv: str, **run) -> subprocess.CompletedProcess:
    """``mvphe`` in a child process of its own, so its standard output can
    be a real file or pipe."""
    src = str(Path(mvphe.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "mvphe.cli", *argv],
                          env={**os.environ, "PYTHONPATH": path},
                          stderr=subprocess.PIPE, **run)


KEYGEN_TOY_7 = ("keygen", "--preset", "toy", "--seed", "7", "--out")


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_out_refuses_stdout_redirected_to_a_file(tmp_path):
    """With standard output redirected to a file f, ``--out /dev/stdout``
    or ``--out f`` would put the status line inside the container (739
    bytes that no loader reads), and so would ``bench --csv``: each exits
    2 with one error line and leaves f empty.  Another ``--out`` works."""
    f = tmp_path / "f"
    for argv in ([*KEYGEN_TOY_7, "/dev/stdout"], [*KEYGEN_TOY_7, str(f)],
                 ["bench", "--mults", "1", "--csv", "/dev/stdout"]):
        with open(f, "wb") as stdout:
            run = _mvphe(*argv, stdout=stdout)
        assert run.returncode == 2, argv
        assert run.stderr.decode() == (f"error: {argv[-1]} is standard output, "
                                       "where the status lines go; write the "
                                       "file elsewhere\n")
        assert f.read_bytes() == b""
    with open(f, "wb") as stdout:
        assert _mvphe(*KEYGEN_TOY_7, str(tmp_path / "sk.bin"),
                      stdout=stdout).returncode == 0
    assert f.read_text().startswith(f"wrote {tmp_path / 'sk.bin'} ")
    assert serialize.load_secret_key(str(tmp_path / "sk.bin")).params.q


def test_eval_refuses_an_output_that_is_stdout(workdir, tmp_path):
    """``mvphe eval --out-prefix res > res1.bin`` would put the status
    lines inside res1.bin: it exits 2 with one error line before it
    evaluates, writes neither output and leaves res1.bin empty."""
    netlist = tmp_path / "and.txt"
    netlist.write_text("in a\nin b\nc = AND a b\nout c\nout a\n",
                       encoding="utf-8")
    ca = str(tmp_path / "a.bin")
    assert main(["encrypt", "--key", str(workdir / "sk.bin"), "--bits", "11",
                 "--seed", "12", "--out", ca]) == 0
    prefix = str(tmp_path / "res")
    argv = ("eval", "--evalkey", str(workdir / "evk.bin"), "--circuit",
            str(netlist), "--in", ca, ca, "--out-prefix", prefix)
    with open(prefix + "1.bin", "wb") as stdout:
        run = _mvphe(*argv, stdout=stdout)
    assert run.returncode == 2
    assert run.stderr.decode() == (f"error: {prefix}1.bin is standard output, "
                                   "where the status lines go; write the file "
                                   "elsewhere\n")
    assert (tmp_path / "res1.bin").read_bytes() == b""
    assert not (tmp_path / "res0.bin").exists()
    with open(tmp_path / "log", "wb") as stdout:
        assert _mvphe(*argv, stdout=stdout).returncode == 0
    assert (tmp_path / "log").read_text() == (f"c -> {prefix}0.bin\n"
                                              f"a -> {prefix}1.bin\n")
    assert serialize.load_ciphertext(prefix + "0.bin")[0].vec


def test_read_only_out_exits_2_and_leaves_the_file(tmp_path, capsys):
    """A save over an existing file its mode forbids writing is an error
    line, as ``open(path, "wb")`` made it, and the file keeps its bytes."""
    path = tmp_path / "sk.bin"
    path.write_bytes(b"old bytes")
    path.chmod(0o444)
    if os.access(path, os.W_OK):
        pytest.skip("this process may write a file whose mode forbids it")
    assert main([*KEYGEN_TOY_7, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno 13] Permission denied")
    assert err.count("\n") == 1
    assert path.read_bytes() == b"old bytes"


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_out_refuses_stdout_as_a_pipe(tmp_path):
    """Into a pipe, ``--out /dev/stdout`` would append the status line to
    the container (788 bytes): it exits 2 and writes nothing to the pipe."""
    run = _mvphe(*KEYGEN_TOY_7, "/dev/stdout", stdout=subprocess.PIPE)
    assert run.returncode == 2
    assert run.stdout == b""
    assert run.stderr.decode().startswith("error: /dev/stdout is standard output")


def test_keygen_takes_params_or_preset_not_both(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["keygen", "--params", str(tmp_path / "p.bin"), "--preset",
              "depth3", "--out", str(tmp_path / "sk.bin")])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


def test_keygen_from_params_file(tmp_path, capsys):
    """A key made from a parameters file carries exactly those parameters,
    here a seeded toy modulus that differs from the preset's own."""
    params, sk = str(tmp_path / "p.bin"), str(tmp_path / "sk.bin")
    assert main(["params", "--preset", "toy", "--seed", "3", "--out", params]) == 0
    assert main(["keygen", "--params", params, "--seed", "3", "--out", sk]) == 0
    capsys.readouterr()
    want = serialize.load_params(params)
    assert want.q != preset_params("toy").q
    assert serialize.load_secret_key(sk).params == want


def test_keygen_dump_keys(tmp_path, capsys):
    out = str(tmp_path / "sk.bin")
    assert main(["keygen", "--preset", "toy", "--seed", "5", "--out", out,
                 "--dump-keys"]) == 0
    text = capsys.readouterr().out
    # g is printed as the coefficient run save_secret_key writes, read here
    # straight off the file
    [g_line] = [line for line in text.splitlines() if line.startswith("g = ")]
    p, payload = serialize._read_container(out, serialize.TYPE_SECRET)
    assert ast.literal_eval(g_line[4:]) == payload.ints(math.comb(p.v + p.r_g, p.r_g))
    assert "points (23):" in text
    assert "S (2x6):" in text and "R1 (6x6):" in text and "R2 (2x6):" in text


def test_encrypt_decrypt_roundtrip(workdir, capsys):
    sk = str(workdir / "sk.bin")
    ct = str(workdir / "ct_rt.bin")
    assert main(["encrypt", "--key", sk, "--bits", "10", "--seed", "6",
                 "--out", ct]) == 0
    capsys.readouterr()
    assert main(["decrypt", "--key", sk, "--in", ct]) == 0
    assert capsys.readouterr().out.strip() == "10"


def test_encrypt_rejects_bad_bits(workdir, capsys):
    sk = str(workdir / "sk.bin")
    out = str(workdir / "never.bin")
    assert main(["encrypt", "--key", sk, "--bits", "012", "--out", out]) == 2
    assert "must be 2 characters" in capsys.readouterr().err


def test_encrypt_with_huge_sigma_returns_at_once(tmp_path, toy_sk, capsys):
    """The sampler computes each weight as a draw needs it, so its cost does
    not grow with sigma or B.  2^28 is about the largest sigma whose B = 6σ
    the toy modulus admits (at depth 1); a table of B + 1 weights would not
    fit in memory."""
    sigma = 1 << 28
    sk = replace(toy_sk, params=replace(toy_sk.params, L=1, sigma=sigma,
                                        B=6 * sigma))
    key, ct = str(tmp_path / "sk.bin"), str(tmp_path / "ct.bin")
    serialize.save_secret_key(sk, key)
    start = time.perf_counter()
    assert main(["encrypt", "--key", key, "--bits", "10", "--out", ct,
                 "--seed", "1"]) == 0
    assert time.perf_counter() - start < 1.0
    capsys.readouterr()
    assert main(["decrypt", "--key", key, "--in", ct]) == 0
    assert capsys.readouterr().out.strip() == "10"


def test_evalkey_names_what_the_file_stores(tmp_path, toy_sk, capsys):
    """evalkey reports the blocks the file holds, D1s, D2s, E and W, with
    their shapes: ell x ell, n x (t − ell) and t x ell."""
    key, out = str(tmp_path / "sk.bin"), str(tmp_path / "evk.bin")
    serialize.save_secret_key(toy_sk, key)
    capsys.readouterr()
    assert main(["evalkey", "--key", key, "--out", out, "--seed", "1"]) == 0
    assert capsys.readouterr().out == (f"wrote {out} (D1s, D2s 8x8, E 6x15, "
                                       "W 23x8)\n")


def test_evalkey_refuses_key_with_repeated_extension_point(tmp_path, toy_sk, capsys):
    points = list(toy_sk.points)
    points[-1] = points[-2]
    sk = replace(toy_sk, points=points)
    key = str(tmp_path / "sk.bin")
    serialize.save_secret_key(sk, key)
    assert main(["evalkey", "--key", key, "--out", str(tmp_path / "evk.bin")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "lost rank" in err


def test_evalkey_refuses_key_whose_S_does_not_annihilate_its_ideal(tmp_path, toy_sk,
                                                                  capsys):
    """A secret-key file saved, checksum and all, with one S entry off by
    one loads, but its evaluation key would give wrong ANDs: evalkey
    refuses it and writes no file."""
    S = [list(row) for row in toy_sk.S]
    S[0][0] = (S[0][0] + 1) % toy_sk.params.q
    key, out = tmp_path / "sk.bin", tmp_path / "evk.bin"
    serialize.save_secret_key(replace(toy_sk, S=S), str(key))
    assert main(["evalkey", "--key", str(key), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "S does not annihilate" in err
    assert not out.exists()


def test_evalkey_refuses_key_whose_first_points_repeat(tmp_path, toy_sk, capsys):
    """A secret-key file saved with z_2 = z_1 loads, but its E1 is
    singular: evalkey exits 2 with an error line and writes no file."""
    z1, _, *rest = toy_sk.points
    key, out = tmp_path / "sk.bin", tmp_path / "evk.bin"
    serialize.save_secret_key(replace(toy_sk, points=[z1, z1, *rest]), str(key))
    assert main(["evalkey", "--key", str(key), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "singular" in err
    assert not out.exists()


def test_decrypt_refuses_fingerprint_mismatch(workdir, tmp_path, capsys):
    other_sk = str(tmp_path / "other.bin")
    ct = str(tmp_path / "ct.bin")
    assert main(["keygen", "--preset", "small", "--seed", "7",
                 "--out", other_sk]) == 0
    assert main(["encrypt", "--key", other_sk, "--bits", "00",
                 "--seed", "7", "--out", ct]) == 0
    capsys.readouterr()
    assert main(["decrypt", "--key", str(workdir / "sk.bin"), "--in", ct]) == 2
    assert "refusing to continue" in capsys.readouterr().err


def test_options_belong_to_the_verbs_that_read_them(capsys):
    """decrypt draws no randomness and encrypt takes its parameters from the
    key file, so --seed and --preset there are usage errors, not no-ops."""
    for argv in (["decrypt", "--seed", "5", "--key", "k", "--in", "c"],
                 ["encrypt", "--preset", "depth3", "--key", "k", "--bits", "01",
                  "--out", "o"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_parser_is_built_once_per_process(capsys):
    """Repeated main calls reuse one parser, and a bad option still exits 2
    with the usage text of a freshly built parser."""
    argv = ["decrypt", "--seed", "5", "--key", "k", "--in", "c"]
    with pytest.raises(SystemExit) as exc:
        build_parser.__wrapped__().parse_args(argv)
    assert exc.value.code == 2
    fresh = capsys.readouterr().err
    assert fresh.startswith("usage: mvphe") and "unrecognized arguments" in fresh
    before = build_parser.cache_info()
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err == fresh
    after = build_parser.cache_info()
    assert after.misses <= 1 and after.hits >= before.hits + 1
    assert build_parser() is build_parser()


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["decrypt", "--key", str(tmp_path / "nope.bin"),
                 "--in", str(tmp_path / "nope2.bin")]) == 2
    assert "error:" in capsys.readouterr().err


def test_directory_paths_exit_2(workdir, tmp_path, capsys):
    """A directory where a file is read or written is an error, not a
    traceback."""
    assert main(["decrypt", "--key", str(tmp_path),
                 "--in", str(tmp_path / "ct.bin")]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["encrypt", "--key", str(workdir / "sk.bin"), "--bits", "10",
                 "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


# --- evalkey / eval ----------------------------------------------------------

def test_eval_circuit_over_files(workdir, tmp_path, capsys):
    sk = str(workdir / "sk.bin")
    evk = str(workdir / "evk.bin")
    netlist = tmp_path / "maj.txt"
    netlist.write_text(
        "in a\nin b\nt0 = AND a b\nt1 = XOR t0 a\nout t0\nout t1\n",
        encoding="utf-8")
    ca, cb = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    assert main(["encrypt", "--key", sk, "--bits", "11", "--seed", "10",
                 "--out", ca]) == 0
    assert main(["encrypt", "--key", sk, "--bits", "01", "--seed", "11",
                 "--out", cb]) == 0
    prefix = str(tmp_path / "res")
    assert main(["eval", "--evalkey", evk, "--circuit", str(netlist),
                 "--in", ca, cb, "--out-prefix", prefix]) == 0
    out = capsys.readouterr().out
    assert f"t0 -> {prefix}0.bin" in out and f"t1 -> {prefix}1.bin" in out
    # a=11, b=01: t0 = a AND b = 01, t1 = t0 XOR a = 10
    assert main(["decrypt", "--key", sk, "--in", prefix + "0.bin"]) == 0
    assert capsys.readouterr().out.strip() == "01"
    assert main(["decrypt", "--key", sk, "--in", prefix + "1.bin"]) == 0
    assert capsys.readouterr().out.strip() == "10"


def test_eval_refused_circuit_writes_no_file(workdir, tmp_path, capsys):
    """A chain of four ANDs passes the noise limit of every toy modulus:
    eval exits 2 with eval_mult's refusal and writes no output file.  The
    error names the refused gate; the seed-9 key's q already refuses the
    third AND, t2 (the preset's own q admits it; see test_circuit)."""
    netlist = tmp_path / "deep.txt"
    netlist.write_text("in a\nin b\nt0 = AND a b\nt1 = AND t0 b\nt2 = AND t1 b\n"
                       "t3 = AND t2 b\nout t0\nout t3\n", encoding="utf-8")
    ca = str(tmp_path / "a.bin")
    assert main(["encrypt", "--key", str(workdir / "sk.bin"), "--bits", "11",
                 "--seed", "10", "--out", ca]) == 0
    capsys.readouterr()
    assert main(["eval", "--evalkey", str(workdir / "evk.bin"),
                 "--circuit", str(netlist), "--in", ca, ca,
                 "--out-prefix", str(tmp_path / "res")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: AND refused: its noise hint ")
    assert err.endswith(" at gate t2\n") and err.count("\n") == 1
    assert not list(tmp_path.glob("res*"))


def test_eval_refuses_foreign_ciphertext(workdir, tmp_path, capsys):
    other_sk = str(tmp_path / "other.bin")
    other_ct = str(tmp_path / "other_ct.bin")
    assert main(["keygen", "--preset", "small", "--seed", "12",
                 "--out", other_sk]) == 0
    assert main(["encrypt", "--key", other_sk, "--bits", "00",
                 "--out", other_ct, "--seed", "12"]) == 0
    netlist = tmp_path / "c.txt"
    netlist.write_text("in a\nin b\nt = AND a b\nout t\n", encoding="utf-8")
    ca = str(tmp_path / "ca.bin")
    assert main(["encrypt", "--key", str(workdir / "sk.bin"), "--bits", "11",
                 "--seed", "13", "--out", ca]) == 0
    capsys.readouterr()
    assert main(["eval", "--evalkey", str(workdir / "evk.bin"),
                 "--circuit", str(netlist), "--in", ca, other_ct,
                 "--out-prefix", str(tmp_path / "r")]) == 2
    assert "fingerprint mismatch" in capsys.readouterr().err


def test_eval_rejects_malformed_evalkey(workdir, tmp_path, capsys):
    # the parameters fix D1s, D2s, E and W's shapes; a file one W entry short
    # runs out of bytes (an entry is as long as the W run's width byte says)
    evk = serialize.load_evalkey(str(workdir / "evk.bin"))
    w_run = bytearray()
    serialize._w_ints(w_run, "W", (x for row in evk.W for x in row))
    body = (workdir / "evk.bin").read_bytes()[:-32]
    assert body.endswith(w_run)
    body = body[:-w_run[0]]
    bad = str(tmp_path / "evk_bad.bin")
    with open(bad, "wb") as fh:
        fh.write(body + hashlib.sha256(body).digest())
    netlist = tmp_path / "c.txt"
    netlist.write_text("in a\nin b\nt = AND a b\nout t\n", encoding="utf-8")
    ca = str(tmp_path / "ca.bin")
    assert main(["encrypt", "--key", str(workdir / "sk.bin"), "--bits", "11",
                 "--seed", "14", "--out", ca]) == 0
    capsys.readouterr()
    assert main(["eval", "--evalkey", bad, "--circuit", str(netlist),
                 "--in", ca, ca, "--out-prefix", str(tmp_path / "r")]) == 2
    assert "error: truncated file" in capsys.readouterr().err


def test_eval_rejects_non_utf8_netlist(workdir, tmp_path, capsys):
    netlist = tmp_path / "c.txt"
    netlist.write_bytes(b"\xff\xfein a\nout a\n")
    ca = str(tmp_path / "ca.bin")
    assert main(["encrypt", "--key", str(workdir / "sk.bin"), "--bits", "11",
                 "--seed", "15", "--out", ca]) == 0
    capsys.readouterr()
    assert main(["eval", "--evalkey", str(workdir / "evk.bin"),
                 "--circuit", str(netlist), "--in", ca,
                 "--out-prefix", str(tmp_path / "r")]) == 2
    assert "error:" in capsys.readouterr().err


# --- noise -------------------------------------------------------------------

def test_noise_verb_zero_noise(workdir, tmp_path, capsys):
    sk = str(workdir / "sk.bin")
    ct = str(tmp_path / "zn.bin")
    assert main(["encrypt", "--key", sk, "--bits", "11", "--zero-noise",
                 "--out", ct]) == 0
    capsys.readouterr()
    assert main(["noise", "--key", sk, "--in", ct]) == 0
    out = capsys.readouterr().out
    assert "plaintext  11" in out
    assert "max |e|    0" in out
    assert "hint       0\n" in out and "level" not in out


def test_noise_verb_with_expected_bits(workdir, tmp_path, capsys):
    sk = str(workdir / "sk.bin")
    ct = str(tmp_path / "n.bin")
    assert main(["encrypt", "--key", sk, "--bits", "10", "--seed", "14",
                 "--out", ct]) == 0
    capsys.readouterr()
    assert main(["noise", "--key", sk, "--in", ct, "--bits", "10"]) == 0
    out = capsys.readouterr().out
    assert "plaintext  10" in out and "hint       48" in out

def test_decrypt_and_noise_show_a_hint_past_the_float_range(workdir, tmp_path,
                                                             capsys):
    sk = str(workdir / "sk.bin")
    ct = str(tmp_path / "huge.bin")
    assert main(["encrypt", "--key", sk, "--bits", "10", "--seed", "14",
                 "--out", ct]) == 0
    fresh, params = serialize.load_ciphertext(ct)
    serialize.save_ciphertext(replace(fresh, noise_hint=10**400), params, ct)
    capsys.readouterr()
    warning = "warning: noise hint 2^1329 reaches floor(q/2)/2 = "
    assert main(["decrypt", "--key", sk, "--in", ct]) == 0
    out, err = capsys.readouterr()
    assert out.strip() == "10"
    assert err.startswith(warning) and len(err.splitlines()) == 1
    assert main(["noise", "--key", sk, "--in", ct]) == 0
    out, err = capsys.readouterr()
    assert "plaintext  10" in out and "hint       2^1328.77\n" in out
    assert err.startswith(warning) and len(err.splitlines()) == 1


# --- public key --------------------------------------------------------------

def test_pk_workflow(workdir, tmp_path, capsys):
    sk = str(workdir / "sk.bin")
    pk = str(tmp_path / "pk.bin")
    ct = str(tmp_path / "pkct.bin")
    assert main(["pk-keygen", "--key", sk, "--seed", "15", "--out", pk]) == 0
    assert "d = 352" in capsys.readouterr().out
    assert main(["pk-encrypt", "--pk", pk, "--bits", "01", "--seed", "16",
                 "--out", ct]) == 0
    capsys.readouterr()
    assert main(["decrypt", "--key", sk, "--in", ct]) == 0
    assert capsys.readouterr().out.strip() == "01"


# --- bench -------------------------------------------------------------------

def test_bench_times_a_whole_and_per_mult(monkeypatch, capsys):
    """bench's timed loop computes both carry products of every mult on
    each preset it times, after its warmup's two: repeating one pair of
    ciphertexts reuses nothing across eval_mult calls."""
    calls = []
    real = she._carry_product
    monkeypatch.setattr(she, "_carry_product",
                        lambda *args: calls.append(1) or real(*args))
    mults = 3
    assert main(["bench", "--mults", str(mults), "--seed", "17"]) == 0
    assert len(calls) == len(BENCH_PRESETS) * 2 * (1 + mults)
    capsys.readouterr()


def test_bench_csv_structure(tmp_path, capsys):
    csv_path = str(tmp_path / "bench.csv")
    assert main(["bench", "--mults", "1", "--seed", "17", "--csv", csv_path]) == 0
    out = capsys.readouterr().out
    with open(csv_path, "r", encoding="utf-8") as fh:
        saved = fh.read()
    assert saved in out  # stdout carries the same table
    lines = saved.strip().splitlines()
    assert lines[0] == "n,ell,log2_q,seconds_per_mult"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[1] for r in rows] == ["8", "12", "16"]
    assert all(float(r[3]) > 0 for r in rows)


@pytest.mark.parametrize("mults", ["0", "-3"])
def test_bench_refuses_fewer_than_one_mult(mults, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--mults", mults])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--mults: must be at least 1" in err


# --- file bytes --------------------------------------------------------------

# sha256 of the toy files each verb writes under --seed 7.  Files must stay
# byte-identical under a fixed seed; a change here is a format change and
# needs a VERSION bump.
PINNED_TOY_SEED_7 = {
    "params.bin": "68b5c18194d9d2a2ff374ead4a755a9b249cc95d45ab636b522469c6e63f3936",
    "sk.bin": "43b50dcd9bf98fe8fd3d529e536a4cd330704f91bbaf54fd466ab6ec5c92b448",
    "evk.bin": "104c4ef58289a610bcb1ddf3b691d7effb0d20acea294cb9f6874d318f4cdab0",
    "pk.bin": "baace2a50bddbe3463183fdd0aa3958507721f3b98c838215491fa0dad508c3d",
    "ct.bin": "babd73cb04d699cd83bd743239d8cc3981bb7e7f692d591441449341c4ea681f",
    "pct.bin": "bc2eedd7157f9a0a3d2701205555a36eb60ab8a1c2fba7945297088ca92f8c03",
    "out0.bin": "259abe0d238d6029e9b85790adc3adaf6e10489097a2d28336a7f3c1f3a1deda",
    "out1.bin": "4218759715b127a1ddb77b7cb1b5b7d55649225aa7580cfb0b550519602d652e",
}


def test_seeded_toy_files_are_pinned(tmp_path, capsys):
    f = {name: str(tmp_path / name) for name in PINNED_TOY_SEED_7}
    netlist = tmp_path / "c.txt"
    netlist.write_text("in a\nin b\nt = AND a b\nx = XOR t b\nout t\nout x\n",
                       encoding="utf-8")
    seed = ["--seed", "7"]
    for argv in (["params", "--preset", "toy", "--out", f["params.bin"]],
                 ["keygen", "--preset", "toy", "--out", f["sk.bin"]],
                 ["evalkey", "--key", f["sk.bin"], "--out", f["evk.bin"]],
                 ["pk-keygen", "--key", f["sk.bin"], "--out", f["pk.bin"]],
                 ["encrypt", "--key", f["sk.bin"], "--bits", "11",
                  "--out", f["ct.bin"]],
                 ["pk-encrypt", "--pk", f["pk.bin"], "--bits", "10",
                  "--out", f["pct.bin"]]):
        assert main(argv + seed) == 0
    assert main(["eval", "--evalkey", f["evk.bin"], "--circuit", str(netlist),
                 "--in", f["ct.bin"], f["pct.bin"],
                 "--out-prefix", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    got = {}
    for name, path in f.items():
        with open(path, "rb") as fh:
            got[name] = hashlib.sha256(fh.read()).hexdigest()
    assert got == PINNED_TOY_SEED_7
