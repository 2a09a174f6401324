"""End-to-end command-line behavior."""

import json

import numpy as np
import pytest

import shiftadd as sa
from shiftadd import matio
from shiftadd.cli import main

from helpers import exact_matvec, pow2matrix, wide_mantissa_plan


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestQuantize:
    def test_csd_example(self, capsys):
        code, out, _ = run(capsys, "quantize", "0.75", "--mode", "csd",
                           "--budget", "2")
        assert code == 0
        assert out.splitlines()[0] == "+2^0 -2^-2"
        assert "error 0.0" in out

    def test_binary_example(self, capsys):
        code, out, _ = run(capsys, "quantize", "0.625", "--mode", "binary",
                           "--budget", "4")
        assert code == 0
        assert out.splitlines()[0] == "+2^-1 +2^-3"

    def test_zero(self, capsys):
        code, out, _ = run(capsys, "quantize", "0", "--mode", "csd",
                           "--budget", "3")
        assert code == 0
        assert out.splitlines()[0] == "0"

    def test_parse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "quantize", "abc")
        assert exc.value.code == 2


class TestDecomposeApply:
    def test_identity_single_stage_is_exact(self, tmp_path, capsys):
        mat = tmp_path / "m.csv"
        matio.save_matrix_csv(mat, np.eye(4))
        plan_path = tmp_path / "plan.json"
        code, out, _ = run(capsys, "decompose", "--matrix", str(mat),
                           "--codebook", "self", "--stages", "1",
                           "--out", str(plan_path))
        assert code == 0
        assert "rel_error 0.000000e+00" in out
        with open(plan_path, "rb") as fh:
            plan = sa.deserialize(fh.read())
        assert np.array_equal(sa.reconstruct(plan), np.eye(4))

    def test_apply_matches_reconstruction(self, tmp_path, capsys):
        rng = np.random.default_rng(700)
        target = rng.standard_normal((3, 8))
        mat = tmp_path / "m.csv"
        matio.save_matrix_csv(mat, target)
        plan_path = tmp_path / "plan.json"
        code, out, _ = run(capsys, "decompose", "--matrix", str(mat),
                           "--codebook", "mailman", "--bits", "6",
                           "--out", str(plan_path))
        assert code == 0
        vec = tmp_path / "x.csv"
        vec.write_text("".join(f"{m},{e}\n" for m, e in
                               [(1, 0), (-3, -2), (5, 1), (0, 0),
                                (7, -3), (1, 2), (-1, 0), (9, -4)]))
        out_path = tmp_path / "y.csv"
        code, _, err = run(capsys, "apply", "--plan", str(plan_path),
                           "--vector", str(vec), "--out", str(out_path))
        assert code == 0
        with open(plan_path, "rb") as fh:
            plan = sa.deserialize(fh.read())
        x = matio.load_vector(vec)
        y = matio.load_vector(out_path)
        yref, cost = sa.apply(plan, x)
        assert y == yref
        # end-to-end oracle: the written vector equals the reconstructed
        # matrix applied to x
        dense = sa.reconstruct(plan) @ np.array([v.to_float() for v in x])
        assert np.allclose([v.to_float() for v in y], dense)
        # the cost summary printed by apply matches the structural report
        assert f"additions {cost.additions}" in err

    def test_malformed_matrix(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,junk\n")
        code, _, err = run(capsys, "decompose", "--matrix", str(bad),
                           "--bits", "8", "--out", str(tmp_path / "p.json"))
        assert code == 3
        assert "error" in err

    def test_unreachable_accuracy_exit_code(self, tmp_path, capsys):
        rng = np.random.default_rng(701)
        mat = tmp_path / "m.csv"
        matio.save_matrix_csv(mat, rng.standard_normal((4, 8)))
        code, _, err = run(capsys, "decompose", "--matrix", str(mat),
                           "--codebook", "two-sparse", "--bits", "24",
                           "--adaptive", "--max-stages", "6",
                           "--out", str(tmp_path / "p.json"))
        assert code == 4
        assert "unreachable" in err

    def test_bad_plan_file(self, tmp_path, capsys):
        plan_path = tmp_path / "p.json"
        plan_path.write_bytes(b"{not json")
        vec = tmp_path / "x.csv"
        vec.write_text("1,0\n")
        code, _, err = run(capsys, "apply", "--plan", str(plan_path),
                           "--vector", str(vec))
        assert code == 3

    def test_out_of_range_exponent_exits_before_arithmetic(self, tmp_path,
                                                           capsys):
        cb = sa.make_codebook("mailman", 2, 4)
        stage = pow2matrix(4, 4, tuple(((k, sa.SignedPow2(1, 0)),)
                                       for k in range(4)))
        doc = json.loads(sa.serialize(sa.DecompositionPlan(2, 4, cb,
                                                           (stage,))))
        doc["stages"][0][0][0][2] = 100000
        plan_path = tmp_path / "p.json"
        plan_path.write_text(json.dumps(doc))
        vec = tmp_path / "x.csv"
        vec.write_text("1,0\n" * 4)
        code, _, err = run(capsys, "apply", "--plan", str(plan_path),
                           "--vector", str(vec))
        assert code == 3
        assert "exponent 100000" in err

    @pytest.mark.parametrize("sign", [0, 2])
    def test_bad_coefficient_sign_exits_3(self, tmp_path, capsys, sign):
        cb = sa.make_codebook("mailman", 2, 4)
        stage = pow2matrix(4, 4, tuple(((k, sa.SignedPow2(1, 0)),)
                                       for k in range(4)))
        doc = json.loads(sa.serialize(sa.DecompositionPlan(2, 4, cb,
                                                           (stage,))))
        doc["stages"][0][1][0][1] = sign
        plan_path = tmp_path / "p.json"
        plan_path.write_text(json.dumps(doc))
        vec = tmp_path / "x.csv"
        vec.write_text("1,0\n" * 4)
        code, _, err = run(capsys, "apply", "--plan", str(plan_path),
                           "--vector", str(vec))
        assert code == 3
        assert f"sign {sign}" in err

    @staticmethod
    def _apply_doc(tmp_path, capsys, edit):
        cb = sa.make_codebook("mailman", 2, 4)
        stage = pow2matrix(4, 4, tuple(((k, sa.SignedPow2(1, 0)),)
                                       for k in range(4)))
        doc = json.loads(sa.serialize(sa.DecompositionPlan(2, 4, cb,
                                                           (stage,))))
        edit(doc)
        plan_path = tmp_path / "p.json"
        plan_path.write_text(json.dumps(doc))
        vec = tmp_path / "x.csv"
        vec.write_text("1,0\n" * 4)
        return run(capsys, "apply", "--plan", str(plan_path),
                   "--vector", str(vec))

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["stages"][0].pop(),
        lambda doc: doc.update(rows=3, cols=8),
    ], ids=["stage-columns", "rows-cols"])
    def test_wrong_plan_shape_exits_3(self, tmp_path, capsys, edit):
        code, _, err = self._apply_doc(tmp_path, capsys, edit)
        assert code == 3
        assert "malformed plan" in err

    def test_oversized_codebook_exits_3(self, tmp_path, capsys, monkeypatch):
        def no_build(*args):
            raise AssertionError("the codebook was built")

        monkeypatch.setattr("shiftadd.codebooks.two_sparse_build", no_build)

        def edit(doc):
            doc.update(rows=10 ** 5, cols=10 ** 9, stages=[], codebook={
                "kind": "two-sparse", "rows": 10 ** 5, "cols": 10 ** 9})
        code, _, err = self._apply_doc(tmp_path, capsys, edit)
        assert code == 3
        assert "exceeds the largest" in err

    @pytest.mark.parametrize("entry", [[0.9, 1, 0], [0, 1.0, -1.0]])
    def test_float_plan_entry_exits_3(self, tmp_path, capsys, entry):
        def edit(doc):
            doc["stages"][0][0][0] = entry
        code, _, err = self._apply_doc(tmp_path, capsys, edit)
        assert code == 3
        assert "integer" in err

    def test_out_of_range_vector_exponent_exits_before_arithmetic(
            self, tmp_path, capsys, monkeypatch):
        plan_path = tmp_path / "p.json"
        plan_path.write_bytes(sa.serialize(wide_mantissa_plan()))
        vec = tmp_path / "x.csv"
        vec.write_text("1,0\n1,-2000000\n1,0\n1,0\n")

        def no_arithmetic(*args):
            raise AssertionError("the engine ran")

        monkeypatch.setattr("shiftadd.engine.apply", no_arithmetic)
        code, _, err = run(capsys, "apply", "--plan", str(plan_path),
                           "--vector", str(vec))
        assert code == 3
        assert "exponent -2000000" in err

    @pytest.mark.parametrize("bad", ["nan", "inf", "1e300"])
    def test_non_finite_or_overflowing_matrix_exits_4(self, tmp_path, capsys,
                                                      bad):
        mat = tmp_path / "m.csv"
        mat.write_text(f"1,0.5,0.25,{bad}\n0.5,-1,2,0.125\n")
        code, _, err = run(capsys, "decompose", "--matrix", str(mat),
                           "--codebook", "mailman", "--bits", "8",
                           "--out", str(tmp_path / "p.json"))
        assert code == 4
        assert "NaN or infinite" in err or "power of two" in err

    def test_apply_prints_outputs_with_wide_mantissas(self, tmp_path, capsys):
        plan = wide_mantissa_plan()
        plan_path = tmp_path / "p.json"
        plan_path.write_bytes(sa.serialize(plan))
        vec = tmp_path / "x.csv"
        vec.write_text("1,0\n" * 4)
        code, out, _ = run(capsys, "apply", "--plan", str(plan_path),
                           "--vector", str(vec))
        assert code == 0
        printed = [float(line.split(",")[2]) for line in out.splitlines()]
        exact = exact_matvec(plan, [sa.Dyadic(1)] * 4)
        assert printed == [float(v.to_fraction()) for v in exact]


class TestBench:
    def test_reproducible_and_has_baselines(self, tmp_path, capsys):
        args = ["bench", "--shapes", "4x16", "--bits", "4", "--samples", "2",
                "--seed", "5", "--format", "json"]
        code, out1, _ = run(capsys, *args)
        assert code == 0
        code, out2, _ = run(capsys, *args)
        assert out1 == out2
        rows = json.loads(out1)
        shapes = [r["shape"] for r in rows]
        assert "4x16" in shapes
        assert "baseline(binary)" in shapes and "baseline(csd)" in shapes
        base = next(r for r in rows if r["shape"] == "baseline(binary)")
        assert base["adds_per_entry"] == pytest.approx(1.5)

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "bench", "--shapes", "4x16", "--bits",
                           "2", "--samples", "1", "--format", "csv")
        assert code == 0
        header = out.splitlines()[0]
        assert header.startswith("shape,bits,adds_per_entry")

    def test_worker_pool_matches_serial(self, capsys):
        args = ["bench", "--shapes", "4x16,3x8", "--bits", "2,4",
                "--samples", "2", "--seed", "9", "--format", "csv"]
        code, serial, _ = run(capsys, *args, "--jobs", "1")
        assert code == 0
        code, pooled, _ = run(capsys, *args, "--jobs", "2")
        assert code == 0
        assert pooled == serial

    def test_uniform_adaptive_is_one_stage_for_any_jobs(self, capsys):
        args = ["bench", "--shapes", "8x64,6x32", "--bits", "4,8",
                "--target", "uniform", "--adaptive", "--samples", "2",
                "--seed", "3", "--format", "json"]
        code, serial, _ = run(capsys, *args, "--jobs", "1")
        assert code == 0
        code, pooled, _ = run(capsys, *args, "--jobs", "2")
        assert code == 0
        assert pooled == serial
        rows = [r for r in json.loads(serial) if r["samples"]]
        assert len(rows) == 4
        assert all(r["mean_stages"] == 1 for r in rows)

    def test_unreachable_sample_names_its_cell(self, capsys):
        code, out, err = run(capsys, "bench", "--shapes", "6x32,4x16",
                             "--bits", "6,10", "--target", "uniform",
                             "--adaptive", "--samples", "2", "--seed", "3")
        assert code == 4 and out == ""
        assert err.startswith("error: cell 6x32 at 6 bits, sample 0: "
                              "accuracy unreachable: column 4 stuck")
        assert len(err.splitlines()) == 1


class TestAnalyze:
    def test_asymptote(self, capsys):
        code, out, _ = run(capsys, "analyze", "--asymptote", "--rate", "1")
        assert code == 0
        assert float(out.strip()) == 0.25

    def test_cdf_curves_steepen(self, capsys):
        code, out, _ = run(capsys, "analyze", "--fig", "cdf", "--rate",
                           "0.5", "--K", "4,256,65536", "--points", "101")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r,K4,K256,K65536"
        rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
        below = [r for r in rows if abs(r[0] - 0.4) < 5e-3][0]
        above = [r for r in rows if abs(r[0] - 0.6) < 5e-3][0]
        # mass concentrates toward the step at 0.5 as K grows
        assert below[1] > below[2] > below[3]
        assert above[1] < above[2] < above[3]

    def test_lower_bound_curve(self, capsys):
        code, out, _ = run(capsys, "analyze", "--fig", "lb", "--N", "5",
                           "--K", "32", "--stages", "3", "--samples", "3",
                           "--seed", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "s,lower_bound,simulated,stderr"
        assert len(lines) == 4
        for ln in lines[1:]:
            s, lb, sim, err = ln.split(",")
            assert float(sim) >= 0.9 * float(lb)

    def test_total_error_curves(self, capsys):
        code, out, _ = run(capsys, "analyze", "--fig", "total", "--rates",
                           "0.5,1", "--K", "16,256")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "K,rate,total_error,total_error_pow_1_over_R"
        assert len(lines) == 5


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["bench", "--shapes", "16y"], ["bench", "--shapes", "16"],
        ["bench", "--bits", "2,x"], ["bench", "--bits", ","],
        ["analyze", "--fig", "total", "--rates", "0.5,x"],
        ["analyze", "--fig", "cdf", "--K", "8,y"]])
    def test_malformed_lists_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["decompose"], ["decompose", "--adaptive"], ["bench"],
        ["bench", "--adaptive"]])
    def test_overflowing_bits_exit_2(self, tmp_path, capsys, argv):
        # used to end in an OverflowError traceback from threshold()
        if argv[0] == "decompose":
            mat = tmp_path / "m.csv"
            matio.save_matrix_csv(mat, np.eye(4))
            argv += ["--matrix", str(mat), "--out", str(tmp_path / "p.json")]
        else:
            argv += ["--shapes", "4x16", "--samples", "1"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--bits", str(10 ** 310)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err == "usage error: target_bits must be in [1, 537]\n"

    @pytest.mark.parametrize("stages, last_line", [
        (str(10 ** 20), "usage error: --stages must be in [0, 4096]"),
        (str(10 ** 9), "usage error: --stages must be in [0, 4096]"),
        ("-1", "usage error: --stages must be in [0, 4096]"),
        ("2.5", "shiftadd decompose: error: argument --stages: invalid int "
                "value: '2.5'")])
    def test_huge_or_non_integer_stage_count_exit_2(self, tmp_path, capsys,
                                                    stages, last_line):
        # 10**20 used to end in an OverflowError traceback, and 10**9 asked
        # for an 8 GB list of sparsities
        mat = tmp_path / "m.csv"
        matio.save_matrix_csv(mat, np.eye(4))
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "--matrix", str(mat), "--out",
                  str(tmp_path / "p.json"), "--stages", stages])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == last_line
        assert len(err) == 1 or err[0].startswith("usage: shiftadd")
        assert not (tmp_path / "p.json").exists()

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_bench_needs_a_sample(self, capsys, samples):
        # used to print nan cells with numpy RuntimeWarnings and exit 0
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--shapes", "4x16", "--bits", "4", "--samples",
                  samples])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err == "usage error: --samples must be at least 1\n"
        assert captured.out == ""

    def test_analyze_checks_arguments_before_writing(self, tmp_path, capsys):
        argv = ["analyze", "--fig", "lb", "--N", "1", "--K", "8",
                "--stages", "2"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        path = tmp_path / "lb.csv"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(path)])
        assert exc.value.code == 2
        assert not path.exists()
