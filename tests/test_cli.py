"""End-to-end command-line workflows (run in-process through cli.main)."""

import hashlib
import time
from dataclasses import replace

import pytest

from mvphe import serialize
from mvphe.cli import build_parser, main


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


def test_keygen_takes_params_or_preset_not_both(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["keygen", "--params", str(tmp_path / "p.bin"), "--preset",
              "depth3", "--out", str(tmp_path / "sk.bin")])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


def test_keygen_dump_keys(tmp_path, capsys):
    out = str(tmp_path / "sk.bin")
    assert main(["keygen", "--preset", "toy", "--seed", "5", "--out", out,
                 "--dump-keys"]) == 0
    text = capsys.readouterr().out
    assert "g = " in text
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


def test_evalkey_refuses_key_with_repeated_extension_point(tmp_path, toy_sk, capsys):
    points = list(toy_sk.points)
    points[-1] = points[-2]
    sk = replace(toy_sk, points=points)
    key = str(tmp_path / "sk.bin")
    serialize.save_secret_key(sk, key)
    assert main(["evalkey", "--key", key, "--out", str(tmp_path / "evk.bin")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "lost rank" in err


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
    evk = serialize.load_evalkey(str(workdir / "evk.bin"))
    bad = str(tmp_path / "evk_bad.bin")
    evk.P1.pop()
    serialize.save_evalkey(evk, bad)
    netlist = tmp_path / "c.txt"
    netlist.write_text("in a\nin b\nt = AND a b\nout t\n", encoding="utf-8")
    ca = str(tmp_path / "ca.bin")
    assert main(["encrypt", "--key", str(workdir / "sk.bin"), "--bits", "11",
                 "--seed", "14", "--out", ca]) == 0
    capsys.readouterr()
    assert main(["eval", "--evalkey", bad, "--circuit", str(netlist),
                 "--in", ca, ca, "--out-prefix", str(tmp_path / "r")]) == 2
    assert "error: P1 is" in capsys.readouterr().err


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
    assert "level      0" in out


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
    with pytest.warns(RuntimeWarning, match=r"noise hint 2\^1329 exceeds"):
        assert main(["decrypt", "--key", sk, "--in", ct]) == 0
    assert capsys.readouterr().out.strip() == "10"
    with pytest.warns(RuntimeWarning, match=r"noise hint 2\^1329 exceeds"):
        assert main(["noise", "--key", sk, "--in", ct]) == 0
    out = capsys.readouterr().out
    assert "plaintext  10" in out and f"hint       {10**400}  (~2^1328.77)" in out


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
    "params.bin": "80f5344d8c925855f3a322c992dcca7793386c73a1e850086caea5d2ca8729cd",
    "sk.bin": "9a36e15204f9fa4d61b8cab59b6c44c88ee6d348280889e8fa56cce5d5b1b511",
    "evk.bin": "10bee363be0d50fa59d3d3d280023af283633acacb3ea8fb0ccfec754fca9b9f",
    "pk.bin": "e9a4994bb418177d40d369772a8d692a019b0380288e869a823b96973303b32a",
    "ct.bin": "648528b10031bf11c6ae51ade5309ef3c994904295a50d20a8546e0ea04da5de",
    "pct.bin": "0ff73ef9538a694e1143ffbf0600638f27db763897d1659f4d783012564e9201",
    "out0.bin": "e74fe93b728dbfc6a7909bebb7fa1724f5164fdc98278a32462dac996f695c48",
    "out1.bin": "7ce30849d144b08effd568662137bfc602c7a69c4e872b843bc1b5856c64a6a2",
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
