import contextlib
import io
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qembed
from qembed.cli import main, parse_model
from qembed.embeddings import HEADER_SIZE, CodeBlock, deserialize, serialize
from qembed.verify import SUMMARY_COLUMNS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseModel:
    def test_forms(self):
        assert parse_model("sparse:4:1024").kind == "sparse"
        assert parse_model("ball:16").kind == "ball"
        assert parse_model("lowrank:1:4:4").kind == "low_rank"
        assert parse_model("group_sparse:2:3:6").kind == "group_sparse"

    def test_bad_model(self):
        with pytest.raises(ValueError):
            parse_model("sparse:4")
        with pytest.raises(ValueError):
            parse_model("sparse:4:x")
        with pytest.raises(ValueError):
            parse_model("mystery:1:2")


class TestReqmAndEntropy:
    def test_reqm_prints_required_dimension(self, capsys):
        code, out, _ = run_cli(
            capsys, "reqm", "--prop", "p1", "--model", "sparse:4:1024",
            "--eps", "0.1", "--delta", "1", "--C", "1", "--q", "2",
        )
        assert code == 0
        assert out.strip() == "13885"

    def test_entropy_value(self, capsys):
        code, out, _ = run_cli(capsys, "entropy", "--model", "sparse:4:1024", "--eta", "0.01", "--q", "2")
        assert code == 0
        assert abs(float(out) - 138.8) <= 0.1

    def test_infeasible_parameters_exit_1(self, capsys):
        code, _, err = run_cli(
            capsys, "reqm", "--prop", "p1", "--model", "sparse:4:1024",
            "--eps", "1.5", "--delta", "1",
        )
        assert code == 1
        assert "epsilon" in err

    @pytest.mark.parametrize("model,extra,expected", [
        ("ball:1", ["--eta", "0.5"], "2.54647908947"),
        ("ball:10", ["--eta", "0.3"], "105.700863665"),
        ("ball:256", ["--eta", "0.1", "--radius", "2"], "102200.195693"),
        ("ball:100000", ["--eta", "7"], "2040.80612263"),
    ])
    def test_entropy_ball_exact_output(self, capsys, model, extra, expected):
        code, out, _ = run_cli(capsys, "entropy", "--model", model, *extra)
        assert code == 0 and out == expected + "\n"

    def test_reqm_ball_exact_output(self, capsys):
        code, out, _ = run_cli(capsys, "reqm", "--prop", "p1", "--model", "ball:256", "--eps", "0.5", "--delta", "1")
        assert code == 0 and out == "16353\n"

    def test_unknown_flag_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "entropy", "--model", "sparse:2:8", "--eta", "0.1", "--bogus", "1")
        assert code == 1


class TestEmbedDistance:
    def test_embed_then_distance_zero(self, tmp_path, capsys):
        vec = tmp_path / "x.txt"
        vec.write_text(" ".join(str(v) for v in np.linspace(-1, 1, 16)) + "\n")
        out1 = tmp_path / "a.qemb"
        out2 = tmp_path / "b.qemb"
        for out in (out1, out2):
            code, _, _ = run_cli(
                capsys, "embed", "--family", "gaussian", "--m", "32", "--n", "16",
                "--input", str(vec), "--delta", "0.5", "--seed", "9",
                "--dither-seed", "3", "--out", str(out),
            )
            assert code == 0
        code, out, _ = run_cli(capsys, "distance", str(out1), str(out2), "--mode", "l1")
        assert code == 0
        assert float(out) == 0.0

    def test_embed_bidither_and_circ(self, tmp_path, capsys):
        vec = tmp_path / "x.txt"
        vec.write_text("0.1 0.2 0.3 0.4\n")
        out = tmp_path / "c.qemb"
        code, _, _ = run_cli(
            capsys, "embed", "--family", "gaussian", "--m", "8", "--n", "4",
            "--input", str(vec), "--delta", "1", "--layout", "bidither", "--out", str(out),
        )
        assert code == 0
        block = deserialize(out.read_bytes())
        assert block.layout == "bidither" and block.cols == 2
        code, txt, _ = run_cli(capsys, "distance", str(out), str(out), "--mode", "circ")
        assert code == 0 and float(txt) == 0.0

    def test_embedding_is_deterministic_bytes(self, tmp_path, capsys):
        vec = tmp_path / "x.txt"
        vec.write_text("1 2 3 4\n")
        a, b = tmp_path / "a.qemb", tmp_path / "b.qemb"
        for out in (a, b):
            run_cli(
                capsys, "embed", "--family", "subsampled_hadamard", "--m", "4", "--n", "4",
                "--input", str(vec), "--delta", "1", "--seed", "7", "--out", str(out),
            )
        assert a.read_bytes() == b.read_bytes()

    def test_negative_line_exit_1(self, tmp_path, capsys):
        vec = tmp_path / "x.txt"
        vec.write_text("1 2\n3 4\n")
        out = tmp_path / "o.qemb"
        code, _, err = run_cli(
            capsys, "embed", "--family", "gaussian", "--m", "4", "--n", "2",
            "--input", str(vec), "--line", "-1", "--delta", "1", "--out", str(out),
        )
        assert code == 1 and "--line -1" in err and _one_line(err)
        assert not out.exists()

    def test_vector_length_mismatch(self, tmp_path, capsys):
        vec = tmp_path / "x.txt"
        vec.write_text("1 2 3\n")
        code, _, err = run_cli(
            capsys, "embed", "--family", "gaussian", "--m", "4", "--n", "8",
            "--input", str(vec), "--delta", "1", "--out", str(tmp_path / "o.qemb"),
        )
        assert code == 1
        assert "--input" in err or "length" in err

    def test_rop_embed(self, tmp_path, capsys):
        vec = tmp_path / "u.txt"
        vec.write_text(" ".join(str(v) for v in np.linspace(0, 1, 12)) + "\n")
        out = tmp_path / "r.qemb"
        code, _, _ = run_cli(
            capsys, "embed", "--family", "rop", "--m", "16", "--n1", "3", "--n2", "4",
            "--input", str(vec), "--delta", "1", "--kappa", "2", "--out", str(out),
        )
        assert code == 0
        block = deserialize(out.read_bytes())
        assert block.layout == "single" and block.m == 16
        code, _, err = run_cli(
            capsys, "embed", "--family", "rop", "--m", "16", "--n1", "5", "--n2", "4",
            "--input", str(vec), "--delta", "1", "--out", str(out),
        )
        assert code == 1 and "--n1*--n2" in err
        # rank-one probes take the bi-dither layout like every other operator
        other = tmp_path / "v.txt"
        other.write_text(" ".join(str(v) for v in np.linspace(1, 0, 12)) + "\n")
        pair = [tmp_path / "r1.qemb", tmp_path / "r2.qemb"]
        for src, dst in zip((vec, other), pair):
            code, _, _ = run_cli(
                capsys, "embed", "--family", "rop", "--m", "16", "--n1", "3", "--n2", "4",
                "--input", str(src), "--delta", "1", "--layout", "bidither", "--out", str(dst),
            )
            assert code == 0 and deserialize(dst.read_bytes()).layout == "bidither"
        code, txt, _ = run_cli(capsys, "distance", str(pair[0]), str(pair[1]), "--mode", "circ")
        assert code == 0 and float(txt) > 0.0

    @pytest.mark.parametrize("entry", ["nan", "inf", "-inf", "1e300"])
    def test_unquantizable_input_exit_1(self, tmp_path, capsys, entry):
        vec = tmp_path / "x.txt"
        vec.write_text(f"0.5 {entry} 1 2\n")
        # rank-one probes reach the exact path through their bounded fast path
        for op_flags in (["--family", "gaussian", "--n", "4"], ["--family", "rop", "--n1", "2", "--n2", "2"]):
            for layout in ("single", "bidither"):
                out = tmp_path / f"{layout}.qemb"
                code, _, err = run_cli(
                    capsys, "embed", *op_flags, "--m", "8", "--input", str(vec),
                    "--delta", "1", "--layout", layout, "--out", str(out),
                )
                assert code == 1
                assert "finite" in err and err.count("\n") == 1
                assert not out.exists()

    @pytest.mark.parametrize("kappa", ["nan", "inf", "0"])
    def test_rop_bad_kappa_exit_1(self, tmp_path, capsys, kappa):
        vec = tmp_path / "u.txt"
        vec.write_text("1 2 3 4\n")
        out = tmp_path / "r.qemb"
        code, _, err = run_cli(
            capsys, "embed", "--family", "rop", "--m", "4", "--n1", "2", "--n2", "2",
            "--input", str(vec), "--delta", "1", f"--kappa={kappa}", "--out", str(out),
        )
        assert code == 1 and "kappa" in err and _one_line(err)
        assert not out.exists()

    def test_rop_bad_dimension_exit_1(self, tmp_path, capsys):
        vec = tmp_path / "u.txt"
        vec.write_text("1 2 3 4\n")
        code, _, err = run_cli(
            capsys, "embed", "--family", "rop", "--m", "0", "--n1", "2", "--n2", "2",
            "--input", str(vec), "--delta", "1", "--out", str(tmp_path / "r.qemb"),
        )
        assert code == 1 and "m=0" in err and err.count("\n") == 1

    def test_distance_on_empty_block_exit_1(self, tmp_path, capsys):
        vec = tmp_path / "x.txt"
        vec.write_text("1 2 3 4\n")
        good = tmp_path / "a.qemb"
        run_cli(capsys, "embed", "--family", "gaussian", "--m", "4", "--n", "4",
                "--input", str(vec), "--delta", "1", "--out", str(good))
        data = bytearray(good.read_bytes()[:HEADER_SIZE])
        data[8:16] = (0).to_bytes(8, "little")
        empty = tmp_path / "empty.qemb"
        empty.write_bytes(bytes(data))
        code, _, err = run_cli(capsys, "distance", str(empty), str(empty), "--mode", "l1")
        assert code == 1
        assert "m >= 1" in err and err.count("\n") == 1


class TestRiptestQripDecay:
    def test_riptest(self, capsys):
        code, out, _ = run_cli(
            capsys, "riptest", "--family", "gaussian", "--m", "512", "--n", "128",
            "--model", "sparse:4:128", "--p", "2", "--q", "2", "--pairs", "60", "--seed", "1",
        )
        assert code == 0
        assert 0 <= float(out) <= 0.5

    def test_qrip_writes_csvs(self, tmp_path, capsys):
        out = tmp_path / "records.csv"
        code, txt, _ = run_cli(
            capsys, "qrip", "--family", "gaussian", "--m", "128", "--n", "32",
            "--model", "sparse:4:32", "--radius", "8", "--mode", "l2sq", "--delta", "1",
            "--grid", "0.5,1,2", "--pairs", "3", "--dithers", "4", "--seed", "2",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1] == "m,delta,mode,true_dist,est_dist,rel_err,pair_id,trial_id,seed"
        assert len(lines) == 2 + 3 * 3 * 4
        summary = (tmp_path / "records.csv.summary.csv").read_text().splitlines()
        assert summary[1] == "m,mode,eps_L_hat,dist,rho_hat_max,rho_hat_median"
        assert len(summary) == 2 + 3

    def test_qrip_deterministic_output(self, tmp_path, capsys):
        args = [
            "qrip", "--family", "gaussian", "--m", "64", "--n", "16",
            "--model", "sparse:2:16", "--radius", "4", "--mode", "l1", "--delta", "1",
            "--grid", "0.5,1", "--pairs", "2", "--dithers", "3", "--seed", "5",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, *args, "--out", str(a))
        run_cli(capsys, *args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_qrip_vanishing_quantizer_matches_linear(self, tmp_path, capsys):
        out = tmp_path / "tiny.csv"
        code, _, _ = run_cli(
            capsys, "qrip", "--family", "gaussian", "--m", "256", "--n", "32",
            "--model", "sparse:4:32", "--radius", "8", "--mode", "l1", "--delta", "1e-9",
            "--grid", "0.5,1,2,4", "--pairs", "4", "--dithers", "16", "--seed", "8",
            "--out", str(out),
        )
        assert code == 0
        rows = [ln.split(",") for ln in (tmp_path / "tiny.csv.summary.csv").read_text().splitlines()[2:]]
        for row in rows:
            dist, rho_max = float(row[3]), float(row[4])
            assert rho_max <= 1e-6 * dist

    def test_decay_prints_slope(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "decay", "--family", "gaussian", "--n", "32",
            "--model", "sparse:4:32", "--radius", "8", "--mode", "l1", "--delta", "1",
            "--grid", "0.2,1,4", "--m-list", "64,128,256,512", "--pairs", "3",
            "--dithers", "4", "--seed", "6", "--out", str(tmp_path / "d.csv"),
        )
        assert code == 0
        slope = float(out)
        assert -1.2 <= slope <= 0.1
        lines = (tmp_path / "d.csv").read_text().splitlines()
        assert lines[1] == "m,mode,eps_L_hat,dist,rho_hat_max,rho_hat_median"
        assert len(lines) == 2 + 4 * 3

    def test_decay_sweeps_each_dimension_once(self, tmp_path, capsys):
        # a repeated or unsorted --m-list sweeps each distinct m once, in
        # sorted order: same slope and rows as the plain list
        args = [
            "decay", "--family", "gaussian", "--n", "32", "--model", "sparse:4:32", "--radius", "8",
            "--mode", "l1", "--delta", "1", "--grid", "0.2,1,4", "--pairs", "3", "--dithers", "4", "--seed", "6",
        ]
        results = []
        for i, m_list in enumerate(["64,128,256,512", "64,64,128,256,512", "512,128,64,256,128"]):
            path = tmp_path / f"d{i}.csv"
            code, out, _ = run_cli(capsys, *args, "--m-list", m_list, "--out", str(path))
            assert code == 0
            lines = path.read_text().splitlines()
            assert lines[0] == f"# config: family=gaussian n=32 model=sparse:4:32 mode=l1 delta=1.0 grid=0.2,1,4 pairs=3 dithers=4 seed=6 m_list={m_list}"
            assert lines[1] == SUMMARY_COLUMNS
            results.append((out, lines[1:]))
        assert results[1] == results[0] and results[2] == results[0]
        assert [row.split(",")[0] for row in results[0][1][1:]] == ["64"] * 3 + ["128"] * 3 + ["256"] * 3 + ["512"] * 3

    def test_decay_zero_residual_exit_1(self, capsys):
        # at m=256 every l2sq estimate lies within the fitted multiplicative
        # distortion, so the median worst-case residual is 0
        code, _, err = run_cli(
            capsys, "decay", "--family", "expander", "--degree", "4", "--n", "128",
            "--model", "group_sparse:2:4:32", "--mode", "l2sq", "--delta", "0.5", "--grid", "0.5,1",
            "--m-list", "64,128,256,512", "--pairs", "2", "--dithers", "3",
        )
        assert code == 1 and _one_line(err)
        assert "median worst-case residual at m=256 is 0" in err

    def test_decay_counts_distinct_dimensions(self, capsys):
        code, _, err = run_cli(
            capsys, "decay", "--family", "gaussian", "--n", "8", "--model", "sparse:2:8", "--mode", "l1",
            "--delta", "1", "--grid", "1", "--m-list", "16,16,32,64", "--pairs", "1", "--dithers", "1",
        )
        assert code == 1 and "3" in err and _one_line(err)


_DELTA_COMMANDS = {
    "embed": ["embed", "--family", "gaussian", "--m", "8", "--n", "4", "--input", "{vec}", "--out", "{out}"],
    "qrip": ["qrip", "--family", "gaussian", "--m", "16", "--n", "8", "--model", "sparse:2:8", "--mode", "l1",
             "--grid", "1", "--pairs", "1", "--dithers", "1", "--out", "{out}"],
    "decay": ["decay", "--family", "gaussian", "--n", "8", "--model", "sparse:2:8", "--mode", "l1",
              "--grid", "1", "--m-list", "8,16,32,64", "--pairs", "1", "--dithers", "1", "--out", "{out}"],
}


@pytest.mark.parametrize("delta", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("command", sorted(_DELTA_COMMANDS))
def test_bad_delta_exit_1(tmp_path, capsys, command, delta):
    vec = tmp_path / "x.txt"
    vec.write_text("1 2 3 4\n")
    out = tmp_path / "out"
    argv = [a.format(vec=vec, out=out) for a in _DELTA_COMMANDS[command]]
    code, _, err = run_cli(capsys, *argv, f"--delta={delta}")
    assert code == 1
    assert _one_line(err) and "delta" in err
    assert not out.exists()


_Q2_COMMANDS = {
    "riptest": ["riptest", "--family", "gaussian", "--m", "16", "--n", "8", "--model", "sparse:2:8", "--p", "2",
                "--q", "2", "--pairs", "50"],
    "qrip": _DELTA_COMMANDS["qrip"] + ["--delta", "1"],
    "decay": _DELTA_COMMANDS["decay"] + ["--delta", "1"],
}


@pytest.mark.parametrize("command", sorted(_Q2_COMMANDS))
def test_l2_radius_whose_square_overflows_exit_1(tmp_path, capsys, command):
    out = tmp_path / "out.csv"
    argv = [a.format(out=out) for a in _Q2_COMMANDS[command]]
    code, _, err = run_cli(capsys, *argv, "--radius", "1e200")
    assert code == 1
    assert _one_line(err) and "square overflows" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["qrip", "decay"])
@pytest.mark.parametrize("mode,grid", [("l2sq", "1e-300"), ("circ", "1,1e-200"), ("l2sq", "1e160")])
def test_grid_target_not_positive_and_finite_exit_1(tmp_path, capsys, command, mode, grid):
    out = tmp_path / "out.csv"
    argv = [a.format(out=out) for a in _DELTA_COMMANDS[command]]
    argv[argv.index("--mode") + 1] = mode
    argv[argv.index("--grid") + 1] = grid
    code, _, err = run_cli(capsys, *argv, "--radius", "1e200", "--delta", "1")
    assert code == 1
    assert _one_line(err) and "grid distance" in err and "Traceback" not in err
    assert not out.exists()


_WRITE_COMMANDS = {
    "embed": ["embed", "--family", "gaussian", "--m", "8", "--n", "4", "--input", "{vec}", "--delta", "1"],
    "qrip": _DELTA_COMMANDS["qrip"][:-2] + ["--delta", "1"],
    "decay": ["decay", "--family", "gaussian", "--n", "32", "--model", "sparse:4:32", "--radius", "8", "--mode", "l1",
              "--delta", "1", "--grid", "0.2,1,4", "--m-list", "64,128,256,512", "--pairs", "3", "--dithers", "4"],
}


class TestWritePath:
    """Outputs go through one write path: a temp file in the target's
    directory, renamed over the target, created with mode 0o666 & ~umask."""

    @pytest.mark.parametrize("command,target", [
        (command, target) for command in sorted(_WRITE_COMMANDS) for target in ("missing", "directory")
    ] + [("qrip", "summary")])
    def test_unwritable_output_exit_1(self, tmp_path, capsys, monkeypatch, command, target):
        vec = tmp_path / "x.txt"
        vec.write_text("1 2 3 4\n")
        (tmp_path / "dir").mkdir()
        bad = str(tmp_path / "dir") if target == "directory" else str(tmp_path / "missing" / "o.csv")
        argv = [a.format(vec=vec) for a in _WRITE_COMMANDS[command]]
        argv += ["--out", bad] if target != "summary" else ["--out", str(tmp_path / "r.csv"), "--summary", bad]

        def no_sweep(*args, **kwargs):
            raise AssertionError("swept before checking the outputs")

        monkeypatch.setattr(qembed.cli, "measure_qrip", no_sweep)
        monkeypatch.setattr(qembed.cli, "measure_decay", no_sweep)
        code, _, err = run_cli(capsys, *argv)
        assert code == 1 and _one_line(err) and "cannot write" in err
        assert os.listdir(tmp_path / "dir") == []
        # qrip and decay check every output before they sweep, so none is written
        assert sorted(os.listdir(tmp_path)) == ["dir", "x.txt"]

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_written_file_mode_follows_umask(self, tmp_path, capsys, umask):
        vec = tmp_path / "x.txt"
        vec.write_text("1 2 3 4\n")
        out = tmp_path / "o.qemb"
        out.write_bytes(b"old")
        out.chmod(0o600)
        previous = os.umask(umask)
        try:
            code, _, _ = run_cli(capsys, *[a.format(vec=vec) for a in _WRITE_COMMANDS["embed"]], "--out", str(out))
        finally:
            os.umask(previous)
        assert code == 0 and deserialize(out.read_bytes()).m == 8
        assert out.stat().st_mode & 0o777 == 0o666 & ~umask
        assert sorted(os.listdir(tmp_path)) == ["o.qemb", "x.txt"]


class TestOperatorFlags:
    @pytest.mark.parametrize("family,flag,value", [
        ("gaussian", "--degree", "3"), ("bernoulli", "--degree", "3"), ("rop", "--degree", "3"),
        ("bernoulli", "--rip", "1,2"), ("expander", "--rip", "1,2"), ("rop", "--rip", "1,2"),
        ("gaussian", "--n1", "2"), ("expander", "--n2", "2"), ("subsampled_hadamard", "--kappa", "2"),
        ("rop", "--n", "4"),
    ])
    def test_option_of_another_family_exit_1(self, tmp_path, capsys, family, flag, value):
        vec = tmp_path / "x.txt"
        vec.write_text("1 2 3 4\n")
        out = tmp_path / "o.qemb"
        shape = ["--n1", "2", "--n2", "2"] if family == "rop" else ["--n", "4"]
        extra = ["--degree", "2"] if family == "expander" else []
        code, _, err = run_cli(capsys, "embed", "--family", family, "--m", "8", *shape, *extra, flag, value,
                               "--input", str(vec), "--delta", "1", "--out", str(out))
        assert code == 1 and _one_line(err) and flag.lstrip("-") in err
        assert not out.exists()

    def test_rop_kappa_defaults_to_1(self, tmp_path, capsys):
        vec = tmp_path / "x.txt"
        vec.write_text("1 -2 3 0.5\n")
        outs = []
        for kappa in ([], ["--kappa", "1"]):
            outs.append(tmp_path / f"o{len(outs)}.qemb")
            code, _, _ = run_cli(capsys, "embed", "--family", "rop", "--m", "8", "--n1", "2", "--n2", "2", *kappa,
                                 "--input", str(vec), "--delta", "0.5", "--out", str(outs[-1]))
            assert code == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_sweep_option_of_another_family_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "riptest", "--family", "bernoulli", "--m", "64", "--n", "16", "--rip", "1,2",
                               "--model", "sparse:2:16", "--p", "2", "--q", "2")
        assert code == 1 and _one_line(err) and "rip" in err

    def test_expander_without_degree_exit_1(self, tmp_path, capsys):
        vec = tmp_path / "x.txt"
        vec.write_text("1 2 3 4\n")
        code, _, err = run_cli(capsys, "embed", "--family", "expander", "--m", "8", "--n", "4",
                               "--input", str(vec), "--delta", "1", "--out", str(tmp_path / "o.qemb"))
        assert code == 1 and _one_line(err) and "degree" in err


class TestMeanwidthSelftestConfig:
    def test_meanwidth(self, capsys):
        code, out, _ = run_cli(capsys, "meanwidth", "--model", "ball:1", "--trials", "100000", "--seed", "3")
        assert code == 0
        est, se = (float(v) for v in out.split())
        assert abs(est - 0.7979) <= 3 * se + 1e-3

    def test_meanwidth_group_sparse(self, capsys):
        code, out, err = run_cli(capsys, "meanwidth", "--model", "group_sparse:2:4:8", "--trials", "200")
        assert code == 0, err
        est, se = (float(v) for v in out.split())
        # E||g_G|| over two fixed groups (8 entries, 2.74) <= w <= E||g|| over all 32 entries (5.61)
        assert 2.74 < est < 5.61 and se > 0

    @pytest.mark.parametrize("model", ["sparse:4:64", "ball:64", "lowrank:2:6:5", "group_sparse:2:4:8"])
    def test_meanwidth_scales_with_radius(self, capsys, model):
        values = {}
        for radius in ("1", "5"):
            code, out, err = run_cli(capsys, "meanwidth", "--model", model, "--radius", radius, "--trials", "300",
                                     "--seed", "4")
            assert code == 0, err
            values[radius] = [float(v) for v in out.split()]
        assert values["5"] == pytest.approx([5 * v for v in values["1"]], rel=1e-10)

    def test_selftest_byte_identical(self, capsys):
        code1, out1, _ = run_cli(capsys, "selftest", "--seed", "7", "--fast")
        code2, out2, _ = run_cli(capsys, "selftest", "--seed", "7", "--fast")
        assert code1 == code2 == 0
        assert out1 == out2
        assert all(line.startswith(("PASS", "FAIL")) or "checks passed" in line for line in out1.splitlines())

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = sparse:4:1024\neps = 0.1\ndelta = 1\nprop = p1\n")
        code, out, _ = run_cli(capsys, "reqm", "--config", str(cfg))
        assert code == 0 and out.strip() == "13885"
        # explicit flag beats the file
        code, out, _ = run_cli(capsys, "reqm", "--config", str(cfg), "--eps", "0.2")
        assert code == 0 and out.strip() != "13885"

    def test_config_file_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("this is not key value\n")
        code, _, err = run_cli(capsys, "reqm", "--config", str(bad))
        assert code == 1 and "key=value" in err
        code, _, err = run_cli(capsys, "reqm", "--config", str(tmp_path / "missing.cfg"))
        assert code == 1
        # a config file but no subcommand
        good = tmp_path / "good.cfg"
        good.write_text("seed = 1\n")
        code, _, err = run_cli(capsys, "--config", str(good))
        assert code == 1 and err.count("\n") == 1


class TestParserReuse:
    """``main`` builds its parser once per process, so no call may leave a
    trace in the next: the same argv prints the same output and writes the
    same bytes after a failed call and a --help call in between."""

    def test_one_parser_per_process(self):
        assert qembed.cli._make_parser() is qembed.cli._make_parser()

    @pytest.mark.parametrize("scenario", ["embed", "embed-config", "qrip-config"])
    def test_same_argv_same_result(self, tmp_path, capsys, scenario):
        vec = tmp_path / "x.txt"
        vec.write_text("0.5 -1 2 0.25\n3 1 -0.5 2\n")
        out = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        if scenario == "embed":
            argv = ["embed", "--family", "gaussian", "--m", "8", "--n", "4", "--input", str(vec), "--delta", "0.5",
                    "--layout", "bidither", "--out", str(out)]
        elif scenario == "embed-config":
            cfg.write_text("family = rop\nm = 8\nn1 = 2\nn2 = 2\nkappa = 2\ndelta = 0.5\nline = 1\n")
            argv = ["embed", "--config", str(cfg), "--input", str(vec), "--seed", "3", "--out", str(out)]
        else:
            cfg.write_text("family = gaussian\nm = 16\nn = 8\nmodel = sparse:2:8\nmode = l1\ndelta = 1\n")
            argv = ["qrip", "--config", str(cfg), "--grid", "1,2", "--pairs", "2", "--dithers", "2",
                    "--out", str(out)]
        results = []
        for _ in range(2):
            code, stdout, err = run_cli(capsys, *argv)
            assert code == 0 and err == ""
            results.append((stdout, out.read_bytes()))
            out.unlink()
            # a call that fails inside argparse, one that fails in the command, and a help call
            code, _, err = run_cli(capsys, argv[0], "--family", "gaussian", "--bogus", "1")
            assert code == 1 and _one_line(err)
            code, _, err = run_cli(capsys, "embed", "--family", "gaussian", "--m", "8", "--n", "4", "--kappa", "3",
                                   "--input", str(vec), "--delta", "9", "--layout", "single", "--out", str(out))
            assert code == 1 and _one_line(err) and not out.exists()
            code, help_text, _ = run_cli(capsys, argv[0], "--help")
            assert code == 0 and "usage: qembed " + argv[0] in help_text
            results.append(help_text)
        assert results[0] == results[2] and results[1] == results[3]


def _one_line(err: str) -> bool:
    return err.startswith("error: ") and err.endswith("\n") and "\n" not in err[:-1]


_FUZZ_COMMANDS = {
    "config": ["entropy", "--model", "sparse:2:8", "--eta", "0.1", "--config", "{path}"],
    "input": ["embed", "--family", "gaussian", "--m", "8", "--n", "2", "--input", "{path}",
              "--delta", "1", "--out", "{out}"],
    "codes": ["distance", "{path}", "{ref}", "--mode", "l1"],
}
_TEXTISH = st.text(alphabet="0123456789.e+- \t\n\r=#_abdfilmnqrstw:", max_size=40).map(str.encode)
_REF_BLOCK = CodeBlock("single", 3, 1.0, np.array([[0], [5], [-2]]))


@st.composite
def _code_files(draw):
    """Serialized code blocks with overwritten bytes, cut short or extended."""
    layout = draw(st.sampled_from(["single", "bidither"]))
    m = draw(st.integers(1, 4))
    cols = 1 if layout == "single" else 2
    codes = draw(st.lists(st.integers(-(2**31), 2**31 - 1), min_size=m * cols, max_size=m * cols))
    delta = draw(st.sampled_from([1.0, 0.5]))
    data = bytearray(serialize(CodeBlock(layout, m, delta, np.array(codes).reshape(m, cols))))
    for pos, val in draw(st.lists(st.tuples(st.integers(0, len(data) - 1), st.integers(0, 255)), max_size=4)):
        data[pos] = val
    if draw(st.booleans()):
        data = data[: draw(st.integers(0, len(data)))]
    return bytes(data) + draw(st.binary(max_size=4))


@settings(max_examples=200, deadline=None)
@given(data=st.one_of(st.binary(max_size=80), _TEXTISH, _code_files()), target=st.sampled_from(sorted(_FUZZ_COMMANDS)))
@example(data=b"\xff\xfe", target="config")
@example(data=b"\xff\xfe", target="input")
@example(data=b"h=1\n", target="config")
@example(data=b"1 nan\n", target="input")
@example(data=serialize(_REF_BLOCK), target="codes")
@example(data=serialize(CodeBlock("bidither", 3, 1.0, np.zeros((3, 2)))), target="codes")
@example(data=serialize(_REF_BLOCK)[:HEADER_SIZE], target="codes")
def test_arbitrary_file_bytes_exit_0_or_1(data, target):
    """Any bytes as the config, vector or code file: exit 0, or exit 1 with one line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "file")
        with open(path, "wb") as fh:
            fh.write(data)
        ref = os.path.join(tmp, "ref.qemb")
        with open(ref, "wb") as fh:
            fh.write(serialize(_REF_BLOCK))
        argv = [a.format(path=path, out=os.path.join(tmp, "o.qemb"), ref=ref) for a in _FUZZ_COMMANDS[target]]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1)
    if code == 1:
        assert _one_line(err.getvalue())


class TestModuleEntryPoint:
    """``python -m qembed`` runs the command line in a fresh interpreter."""

    def _run(self, *argv):
        src = os.path.dirname(os.path.dirname(os.path.abspath(qembed.__file__)))
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        return subprocess.run([sys.executable, "-m", "qembed", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    def test_embed_writes_code_file(self, tmp_path):
        vec = tmp_path / "x.txt"
        vec.write_text("0.1 0.2 0.3 0.4\n")
        out = tmp_path / "x.qemb"
        proc = self._run("embed", "--family", "gaussian", "--m", "8", "--n", "4",
                         "--input", str(vec), "--delta", "1", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert deserialize(out.read_bytes()).m == 8

    def test_length_mismatch_exit_1(self, tmp_path):
        vec = tmp_path / "x.txt"
        vec.write_text("1 2 3\n")
        out = tmp_path / "x.qemb"
        proc = self._run("embed", "--family", "gaussian", "--m", "8", "--n", "4",
                         "--input", str(vec), "--delta", "1", "--out", str(out))
        assert proc.returncode == 1
        assert _one_line(proc.stderr) and "length" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [("--C", "inf"), ("--C", "nan"), ("--eps", "1e-200")])
    def test_reqm_unbounded_requirement_exit_1(self, flag, value):
        argv = {"--C": "1", "--eps": "0.1"}
        argv[flag] = value
        proc = self._run("reqm", "--prop", "p1", "--model", "sparse:4:64", "--delta", "1",
                         *(f"{k}={v}" for k, v in argv.items()))
        assert proc.returncode == 1
        assert _one_line(proc.stderr) and "Traceback" not in proc.stderr + proc.stdout


def test_import_does_not_load_scipy():
    """scipy is loaded only by the exact ball mean width (entropy, reqm)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qembed.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = "import sys, qembed, qembed.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
