"""End-to-end command-line behavior."""

import json

import numpy as np
import pytest

import shiftadd as sa
from shiftadd import matio
from shiftadd.cli import main

from helpers import exact_matvec, wide_mantissa_plan


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
        stage = sa.Pow2Matrix(4, 4, tuple(((k, sa.SignedPow2(1, 0)),)
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
        stage = sa.Pow2Matrix(4, 4, tuple(((k, sa.SignedPow2(1, 0)),)
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
