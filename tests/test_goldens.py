"""Byte-stability goldens for the CLI outputs.

The sha256 values pin the code file that ``qembed embed`` writes for
every operator family and layout (rank-one probes at two kappas, and
in the bi-dither layout at one), the ``qembed selftest --seed 7
--fast`` report, and the summary CSV and stdout of ``qembed decay``
for four configurations.
"""

import hashlib

import pytest

from qembed.cli import main
from qembed.rng import stream

FAMILY_FLAGS = {
    "gaussian": [],
    "bernoulli": [],
    "subsampled_hadamard": [],
    "random_convolution": [],
    "expander": ["--degree", "4"],
}

CODE_GOLDENS = {
    ("gaussian", "single"): "1c9b082fb056a5600a098660a4bea5631a50b8d1f678e2f61ccc4cd95b113ec1",
    ("gaussian", "bidither"): "d5cca95c0b558a810bfb2dbfa5b4812ca41ff7d0f23d1d0ba0e625c9522a1616",
    ("bernoulli", "single"): "806eaab3a6a9c181a2e937d5bd8fa1e2b77944d915f31d70b65ce87e39e9ff2e",
    ("bernoulli", "bidither"): "022405eb4fab2b0158e25f073e7d63d202d0f1a820412c58c527ada360a384e5",
    ("subsampled_hadamard", "single"): "ed9e1fb21a35d5c0bc3d83e9ba80776fb38bdac613c20b47d72924a315065b85",
    ("subsampled_hadamard", "bidither"): "c5d963314982a924b43d4ca7518b393fe08d734568f838d56f352381fea986de",
    ("random_convolution", "single"): "cf6e159c30d6bd451f99f5e42260f2a09830ed328e65a20be8531c6c8a9c06d7",
    ("random_convolution", "bidither"): "56007035ae1d93e4b01d92fe6bee3952e6a3aea7d92d0d4f26cebc60606e1875",
    ("expander", "single"): "113981337e882abf5ab7e4696d4bd2a89dfdea5b7c7ca5847ccee337dc9f12f5",
    ("expander", "bidither"): "0c1d6af0ed0aee93b783fddf8aa091abcd40bcc5e312dd732e2acae3f665d25a",
}

ROP_GOLDENS = {
    "1": "31813a468dc675b09ed7a235cac8ac5aaaee8f107029e8f8427200003fdc54b9",
    "2": "c9b9cba122f01b587722fd9aee52cdf5030752a387f348ef5a0dfe0921ba99e2",
}

# rank-one probes at kappa 1 in the bi-dither layout
ROP_BIDITHER_GOLDEN = "5d7def13137a9abc7c9fad8e0aa9300e1eff816e21d469a0d58829803e28f5fd"

SELFTEST_GOLDEN = "b831ea0e10f4644637bdcbcbff5e3bf96199d4c32ac46b40e84178e9b7125ceb"

# ``qembed decay`` flags per configuration.  Each m-list holds an m that
# is not a multiple of 64 (the dense row-block size) and each grid
# repeats a distance; at delta = 1e-9 every l2sq trial fails the kernel's
# sum guard and takes the integer path.  The subsampled Hadamard
# operators share no rows, so the kernel searches four roots end to end,
# all in one chunk.
DECAY_ARGV = {
    "gaussian-l1": ["--family", "gaussian", "--rip", "1,2", "--n", "32", "--model", "sparse:4:32", "--radius", "8",
                    "--mode", "l1", "--delta", "0.5", "--grid", "0.2,1,1,4", "--m-list", "9000,100,777,3000",
                    "--pairs", "3", "--dithers", "5", "--seed", "6"],
    "bernoulli-l2sq-int": ["--family", "bernoulli", "--n", "24", "--model", "sparse:3:24", "--radius", "4",
                           "--mode", "l2sq", "--delta", "1e-9", "--grid", "2,0.5,2,5", "--m-list", "48,64,100,200",
                           "--pairs", "2", "--dithers", "3", "--seed", "8"],
    "expander-circ": ["--family", "expander", "--degree", "4", "--n", "64", "--model", "sparse:4:64", "--radius", "20",
                      "--mode", "circ", "--delta", "0.7", "--grid", "0.5,5,5,10", "--m-list", "32,77,128,300",
                      "--pairs", "3", "--dithers", "4", "--seed", "13"],
    "hadamard-l2sq": ["--family", "subsampled_hadamard", "--n", "512", "--model", "sparse:4:512", "--radius", "10",
                      "--mode", "l2sq", "--delta", "0.7", "--grid", "0.5,2,2,6", "--m-list", "32,100,256,512",
                      "--pairs", "3", "--dithers", "4", "--seed", "21"],
}

# sha256 of the summary CSV followed by stdout
DECAY_GOLDENS = {
    "gaussian-l1": "c2ea5ee2fcccdd4a4ec1527dec3508af5215f301b5bee09c920a2b4a02111dd2",
    "bernoulli-l2sq-int": "02a06830ce221074f392cd34772f9182a6caa15f86c80f36f68844066ddc1c8d",
    "expander-circ": "a3a345ae996ae5d9ffe369dac94f48c33678560c97080161bbd727188911dd6d",
    "hadamard-l2sq": "581b37f9ae0c454c04a0401910c6d00f317b1ff484a773234a7b66d6039b9489",
}


def _vector_file(tmp_path, n):
    x = stream(501, "golden:input", n).standard_normal(n) * 3.0
    path = tmp_path / "vec.txt"
    path.write_text(" ".join(format(v, ".17g") for v in x) + "\n")
    return str(path)


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("family,layout", sorted(CODE_GOLDENS))
def test_code_file_matches_golden(tmp_path, capsys, family, layout):
    out = tmp_path / "codes.bin"
    argv = ["embed", "--family", family, "--m", "48", "--n", "64", *FAMILY_FLAGS[family],
            "--input", _vector_file(tmp_path, 64), "--delta", "0.5", "--seed", "17",
            "--dither-seed", "23", "--layout", layout, "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    assert _sha256(out) == CODE_GOLDENS[(family, layout)]


def _rop_code_file_sha256(tmp_path, capsys, kappa, layout):
    out = tmp_path / "codes.bin"
    argv = ["embed", "--family", "rop", "--m", "40", "--n1", "4", "--n2", "5", "--kappa", kappa,
            "--input", _vector_file(tmp_path, 20), "--delta", "0.5", "--seed", "19",
            "--dither-seed", "29", "--layout", layout, "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    return _sha256(out)


@pytest.mark.parametrize("kappa", sorted(ROP_GOLDENS))
def test_rop_code_file_matches_golden(tmp_path, capsys, kappa):
    assert _rop_code_file_sha256(tmp_path, capsys, kappa, "single") == ROP_GOLDENS[kappa]


def test_rop_bidither_code_file_matches_golden(tmp_path, capsys):
    assert _rop_code_file_sha256(tmp_path, capsys, "1", "bidither") == ROP_BIDITHER_GOLDEN


def test_selftest_report_matches_golden(capsys):
    assert main(["selftest", "--seed", "7", "--fast"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SELFTEST_GOLDEN


@pytest.mark.parametrize("config", sorted(DECAY_GOLDENS))
def test_decay_outputs_match_golden(tmp_path, capsys, config):
    out = tmp_path / "decay.csv"
    assert main(["decay", *DECAY_ARGV[config], "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert hashlib.sha256(out.read_bytes() + printed.encode()).hexdigest() == DECAY_GOLDENS[config]
