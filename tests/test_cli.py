"""End-to-end command-line behavior."""

import json
import math

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

    @pytest.mark.parametrize("metadata", [[1, 2], None])
    def test_non_object_metadata_exits_3(self, tmp_path, capsys, metadata):
        code, out, err = self._apply_doc(
            tmp_path, capsys, lambda doc: doc.update(metadata=metadata))
        assert code == 3 and out == ""
        assert "metadata must be a JSON object" in err

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

    @pytest.mark.parametrize("codebook, message", [
        ({"kind": "gaussian", "rows": 2, "cols": 4, "seed": 3},
         "unknown codebook kind 'gaussian'"),
        ({"stage_sparsity": -5}, "stage_sparsity must be >= 0"),
        *[({"kind": kind, "rows": 2, "cols": 4, **fields}, message)
          for kind in ("mailman", "two-sparse")
          for fields, message in (
              ({"factors": [[[[i, 1, 0]] for i in range(4)]]},
               "takes no factors"),
              ({"stage_sparsity": 2}, "takes no stage_sparsity"))],
        # B1 reads the 2 input wires: a row 2 is a wire nothing writes
        ({"factors": [[[[0, 1, 0]], [[1, 1, 0]], [[0, 1, 0], [2, 1, 0]], []],
                      [[[i, 1, 0]] for i in range(4)]]},
         "row index 2 out of range")],
        ids=["gaussian-kind", "negative-stage-sparsity", "mailman-factors",
             "mailman-stage-sparsity", "two-sparse-factors",
             "two-sparse-stage-sparsity", "dead-codebook-row"])
    def test_refused_codebook_exits_3(self, tmp_path, capsys, codebook,
                                      message):
        cb = sa.make_codebook("self-designing", 2, 4, seed=3, aux="gaussian")
        doc = json.loads(sa.serialize(sa.DecompositionPlan(2, 4, cb, ())))
        doc["codebook"] = codebook if "kind" in codebook else \
            {**doc["codebook"], **codebook}
        plan_path = tmp_path / "p.json"
        plan_path.write_text(json.dumps(doc))
        vec = tmp_path / "x.csv"
        vec.write_text("1,0\n" * 4)
        code, out, err = run(capsys, "apply", "--plan", str(plan_path),
                             "--vector", str(vec))
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("entry", [[0.9, 1, 0], [0, 1.0, -1.0]])
    def test_float_plan_entry_exits_3(self, tmp_path, capsys, entry):
        def edit(doc):
            doc["stages"][0][0][0] = entry
        code, _, err = self._apply_doc(tmp_path, capsys, edit)
        assert code == 3
        assert "integer" in err

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["stages"][0][0][0].__setitem__(1, True),
         "integer triples: true and false are not integers"),
        (lambda doc: doc.update(version=True), "plan version True"),
        (lambda doc: doc.update(rows=True),
         "plan field rows must be an integer, got True")],
        ids=["entry-sign", "version", "rows"])
    def test_boolean_plan_field_exits_3(self, tmp_path, capsys, edit,
                                        message):
        # each true used to load as 1
        code, out, err = self._apply_doc(tmp_path, capsys, edit)
        assert code == 3 and out == ""
        assert err.startswith("error: ") and message in err

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


    def test_apply_writes_inf_beyond_the_float_range(self, tmp_path,
                                                     capsys):
        # 2**63 and 2**62 entries on inputs of 2**1023: both outputs are
        # beyond float64, one of each sign; the exact columns stand and the
        # decimal column holds what round-to-nearest gives
        stage = pow2matrix(4, 4, tuple(
            ((i, sa.SignedPow2(s, e)),)
            for i, (s, e) in enumerate([(1, 63), (1, 63), (-1, 63),
                                        (1, 62)])))
        plan = sa.DecompositionPlan(2, 4, sa.make_codebook("mailman", 2, 4),
                                    (stage,))
        plan_path = tmp_path / "p.json"
        plan_path.write_bytes(sa.serialize(plan))
        vec = tmp_path / "x.csv"
        vec.write_text("1,1023\n" * 4)
        exact = exact_matvec(plan, [sa.Dyadic(1, 1023)] * 4)
        want = [f"{v.mantissa},{v.exponent},{d}"
                for v, d in zip(exact, ("inf", "-inf"))]
        assert [v.mantissa > 0 for v in exact] == [True, False]
        # both exponents exceed what load_vector reads: one warning line,
        # with the outputs and the exit code as they are
        warning = ("warning: 2 of 2 outputs have an exponent outside "
                   "[-1074, 1023]: written exactly, they do not load back "
                   "as a vector")
        assert [v.exponent for v in exact] == [1085, 1085]
        code, out, err = run(capsys, "apply", "--plan", str(plan_path),
                             "--vector", str(vec))
        assert code == 0
        assert out.splitlines() == want
        assert [line for line in err.splitlines()
                if line.startswith("warning:")] == [warning]
        path = tmp_path / "y.csv"
        code, out, err = run(capsys, "apply", "--plan", str(plan_path),
                             "--vector", str(vec), "--out", str(path))
        assert code == 0 and out == ""
        assert path.read_text().splitlines()[1:] == want
        assert warning in err.splitlines()
        # the written file is refused as a vector, as the warning says
        code, _, err = run(capsys, "apply", "--plan", str(plan_path),
                           "--vector", str(path))
        assert code == 3 and "exponent 1085" in err
        # in range, apply warns of nothing
        vec.write_text("1,0\n" * 4)
        code, _, err = run(capsys, "apply", "--plan", str(plan_path),
                           "--vector", str(vec))
        assert code == 0 and "warning" not in err


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

    def test_md_format(self, capsys):
        code, out, _ = run(capsys, "bench", "--shapes", "4x16", "--bits",
                           "2", "--samples", "1", "--format", "md")
        assert code == 0
        lines = out.splitlines()
        assert lines[:2] == [
            "| shape | bits | adds_per_entry | stderr | samples | "
            "mean_stages |", "|---|---|---|---|---|---|"]
        assert len(lines) == 5
        assert all(ln.startswith("| ") and ln.endswith(" |")
                   and ln.count(" | ") == 5 for ln in lines[2:])

    def test_out_file_equals_stdout(self, tmp_path, capsys):
        args = ["bench", "--shapes", "4x16", "--bits", "2,4", "--samples",
                "2", "--seed", "4"]
        code, out, _ = run(capsys, *args)
        assert code == 0
        path = tmp_path / "table.csv"
        assert run(capsys, *args, "--out", str(path)) == (0, "", "")
        assert path.read_text() == out

    def test_wide_bits_keep_their_baselines(self, capsys):
        # used to end in an OverflowError traceback from 4.0 ** 519, with
        # no row printed
        code, out, err = run(capsys, "bench", "--shapes", "2x4", "--bits",
                             "520", "--samples", "1", "--max-stages", "0",
                             "--format", "json")
        assert code == 4
        rows = json.loads(out)
        assert [(r["shape"], r["bits"]) for r in rows] == [
            ("baseline(binary)", 520), ("baseline(csd)", 520)]
        assert rows[1]["adds_per_entry"] == pytest.approx(
            519 * math.log(4.0, 28.0) + 1.0)
        assert err.startswith("error: cell 2x4 at 520 bits, sample 0: ")

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
        # cell 1 (6x32 at 10 bits) finishes; cells 0, 2 and 3 cannot reach
        # their accuracy, and the table still holds the finished cell
        args = ["bench", "--shapes", "6x32,4x16", "--bits", "6,10",
                "--target", "uniform", "--adaptive", "--samples", "2",
                "--seed", "3", "--format", "json"]
        code, out, err = run(capsys, *args, "--jobs", "1")
        assert code == 4
        assert run(capsys, *args, "--jobs", "2") == (code, out, err)
        rows = json.loads(out)
        assert [(r["shape"], r["bits"]) for r in rows] == [
            ("6x32", 10), ("baseline(binary)", 6), ("baseline(csd)", 6),
            ("baseline(binary)", 10), ("baseline(csd)", 10)]
        assert rows[0]["samples"] == 2 and rows[0]["mean_stages"] == 1
        lines = err.splitlines()
        assert len(lines) == 3
        for line, cell in zip(lines, ("6x32 at 6", "4x16 at 6",
                                      "4x16 at 10")):
            assert line.startswith(f"error: cell {cell} bits, sample 0: "
                                   f"accuracy unreachable: column ")
        assert lines[0].startswith("error: cell 6x32 at 6 bits, sample 0: "
                                   "accuracy unreachable: column 4 stuck")


class TestAnalyze:
    def test_asymptote(self, capsys):
        code, out, _ = run(capsys, "analyze", "--fig", "asymptote", "--rate",
                           "1")
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

    def test_out_file_equals_stdout(self, tmp_path, capsys):
        args = ["analyze", "--fig", "lb", "--N", "5", "--K", "32",
                "--stages", "3", "--samples", "3", "--seed", "2"]
        code, out, _ = run(capsys, *args)
        assert code == 0
        path = tmp_path / "lb.csv"
        assert run(capsys, *args, "--out", str(path)) == (0, "", "")
        assert path.read_text() == out


# each ranged option with one value out of its range, and the one line
# that refuses it
RANGE_CASES = [
    (["decompose", "--bits", "0"], "--bits must be in [1, 537]"),
    (["decompose", "--bits", "538"], "--bits must be in [1, 537]"),
    (["decompose", "--stages", "-1"], "--stages must be in [1, 4096]"),
    (["decompose", "--stages", "0"], "--stages must be in [1, 4096]"),
    (["decompose", "--stages", "1", "--stage-sparsity", "-1"],
     "--stage-sparsity must be at least 0"),
    (["decompose", "--bits", "8", "--max-stages", "4097"],
     "--max-stages must be in [0, 4096]"),
    (["decompose", "--stages", "1", "--seed", "-1"],
     "--seed must be at least 0"),
    (["bench", "--bits", "4,538"], "--bits must be in [1, 537]"),
    (["bench", "--max-stages", "-1"], "--max-stages must be in [0, 4096]"),
    (["bench", "--seed", "-1"], "--seed must be at least 0"),
    (["bench", "--samples", "0"], "--samples must be at least 1"),
    (["bench", "--jobs", "0"], "--jobs must be at least 1"),
    (["bench", "--shapes", "0x4"], "--shapes sizes must be at least 1"),
    (["bench", "--shapes", "4x16,4x0"],
     "--shapes sizes must be at least 1"),
    (["analyze", "--fig", "cdf", "--rate", "0"],
     "--rate must be positive and finite"),
    (["analyze", "--fig", "total", "--rates", "1,inf"],
     "--rates must be positive and finite"),
    # positive and finite, but log2(K)/rate, the derived row count, is not
    (["analyze", "--fig", "cdf", "--rate", "1e-320"],
     "--rate is too small for --K 16: the row count log2(K)/rate overflows"),
    (["analyze", "--fig", "total", "--rates", "1,1e-320"],
     "--rates is too small for --K 16: the row count log2(K)/rate "
     "overflows"),
    (["analyze", "--fig", "lb", "--N", "1"], "--N must be at least 2"),
    (["analyze", "--fig", "cdf", "--K", "16,0"], "--K must be at least 1"),
    (["analyze", "--fig", "cdf", "--points", "0"],
     "--points must be at least 1"),
    (["analyze", "--fig", "lb", "--stages", "-1"],
     "--stages must be at least 0"),
    (["analyze", "--fig", "lb", "--samples", "0"],
     "--samples must be at least 1"),
    (["analyze", "--fig", "lb", "--seed", "-1"],
     "--seed must be at least 0"),
    (["quantize", "--budget", "-1"], "--budget must be at least 0"),
    (["quantize", "--mode", "binary", "--budget", "0"],
     "--budget must be at least 1 with --mode binary")]


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
        assert err == "usage error: --bits must be in [1, 537]\n"

    @pytest.mark.parametrize("stages, last_line", [
        (str(10 ** 20), "usage error: --stages must be in [1, 4096]"),
        (str(10 ** 9), "usage error: --stages must be in [1, 4096]"),
        ("-1", "usage error: --stages must be in [1, 4096]"),
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

    @pytest.mark.parametrize("command", ["decompose", "bench"])
    def test_gaussian_codebook_is_no_choice(self, tmp_path, capsys, command):
        # the Gaussian matrix is no codebook kind; --aux and --target keep it
        argv = [command, "--codebook", "gaussian", "--bits", "4"]
        if command == "decompose":
            mat = tmp_path / "m.csv"
            matio.save_matrix_csv(mat, np.eye(4))
            argv += ["--matrix", str(mat), "--out", str(tmp_path / "p.json")]
        else:
            argv += ["--shapes", "4x16", "--samples", "1"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid choice: 'gaussian'" in capsys.readouterr().err
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

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_bench_needs_a_worker(self, capsys, jobs):
        # used to run serially and exit 0
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--shapes", "4x16", "--bits", "4", "--samples",
                  "1", "--jobs", jobs])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err == "usage error: --jobs must be at least 1\n"
        assert captured.out == ""

    def test_lower_bound_curve_needs_a_sample(self, tmp_path, capsys):
        # used to print nan rows with two RuntimeWarnings and exit 0
        path = tmp_path / "lb.csv"
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--fig", "lb", "--N", "4", "--K", "16",
                  "--stages", "2", "--samples", "0", "--out", str(path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err == "usage error: --samples must be at least 1\n"
        assert captured.out == "" and not path.exists()

    @pytest.mark.parametrize("argv, message", [
        # a ZeroDivisionError traceback, exit 1
        (["--fig", "cdf", "--K", "16", "--rate", "0"],
         "--rate must be positive and finite"),
        (["--fig", "total", "--K", "16", "--rates", "0"],
         "--rates must be positive and finite"),
        # rows for a negative rate, exit 0
        (["--fig", "total", "--K", "16", "--rates", "0.5,-1"],
         "--rates must be positive and finite"),
        (["--fig", "asymptote", "--rate", "nan"],
         "--rate must be positive and finite"),
        # "math domain error"
        (["--fig", "cdf", "--K", "16,0"], "--K must be at least 1"),
        (["--fig", "cdf", "--points", "0"], "--points must be at least 1"),
        # the library's parameter names, matrix_samples and n_stages
        (["--fig", "lb", "--stages", "-1"], "--stages must be at least 0"),
        (["--fig", "lb", "--N", "1"], "--N must be at least 2")])
    def test_analyze_names_an_out_of_range_option(self, tmp_path, capsys,
                                                  argv, message):
        path = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            main(["analyze", *argv, "--out", str(path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err == f"usage error: {message}\n"
        assert captured.out == "" and not path.exists()

    @pytest.mark.parametrize("argv, message", [
        ([], "the following arguments are required: --fig"),
        (["--fig", "asymptote", "--asymptote"],
         "unrecognized arguments: --asymptote")],
        ids=["no-fig", "asymptote-flag"])
    def test_analyze_needs_a_figure(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    @pytest.mark.parametrize("flags, message", [
        # ran two fixed stages
        (["--adaptive", "--stages", "2"], "--adaptive needs --bits"),
        (["--adaptive"], "--adaptive needs --bits"),
        # ignored --stages and ran to the accuracy of 8 bits
        (["--bits", "8", "--stages", "2"],
         "--stages cannot be combined with --bits"),
        (["--bits", "8", "--adaptive", "--stages", "1"],
         "--stages cannot be combined with --bits")])
    def test_decompose_refuses_contradictory_schedules(self, tmp_path, capsys,
                                                       flags, message):
        mat = tmp_path / "m.csv"
        matio.save_matrix_csv(mat, np.random.default_rng(702)
                              .standard_normal((4, 16)))
        path = tmp_path / "p.json"
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "--matrix", str(mat), "--out", str(path),
                  *flags])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err == f"usage error: {message}\n"
        assert captured.out == "" and not path.exists()

    @pytest.mark.parametrize("flags, message", [
        # each ran the same codebook and stages as without the option
        (["--codebook", "mailman", "--aux", "gaussian", "--stages", "1"],
         "--aux is used only by --codebook self"),
        (["--codebook", "two-sparse", "--aux", "target", "--bits", "4"],
         "--aux is used only by --codebook self"),
        (["--codebook", "mailman", "--seed", "5", "--stages", "1"],
         "--seed is used only by --codebook self"),
        (["--codebook", "two-sparse", "--seed", "0", "--bits", "4"],
         "--seed is used only by --codebook self"),
        # designed the codebook on the target, which no seed draws
        (["--seed", "5", "--stages", "2"],
         "--seed is used only with --aux gaussian"),
        (["--aux", "target", "--seed", "5", "--stages", "2"],
         "--seed is used only with --aux gaussian"),
        # ran one fixed stage
        (["--stages", "1", "--max-stages", "7"],
         "--max-stages is used only with --bits"),
        (["--codebook", "two-sparse", "--aux", "gaussian", "--seed", "5",
          "--stages", "1", "--max-stages", "7"],
         "--max-stages is used only with --bits")],
        ids=["mailman-aux", "two-sparse-aux", "mailman-seed",
             "two-sparse-seed", "self-seed", "target-aux-seed",
             "stages-max-stages", "all-three"])
    def test_decompose_refuses_an_option_its_run_ignores(self, tmp_path,
                                                         capsys, flags,
                                                         message):
        mat = tmp_path / "m.csv"
        matio.save_matrix_csv(mat, np.random.default_rng(703)
                              .standard_normal((4, 16)))
        path = tmp_path / "p.json"
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "--matrix", str(mat), "--out", str(path),
                  *flags])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err == f"usage error: {message}\n"
        assert captured.out == "" and not path.exists()

    @pytest.mark.parametrize("flags, seed", [
        (["--codebook", "mailman", "--stages", "1"], 0),
        (["--codebook", "two-sparse", "--bits", "4", "--max-stages", "9"], 0),
        (["--stages", "2"], 0),
        (["--aux", "gaussian", "--seed", "5", "--bits", "4"], 5)])
    def test_decompose_records_the_seed(self, tmp_path, capsys, flags, seed):
        target = np.random.default_rng(704).standard_normal((4, 16))
        mat = tmp_path / "m.csv"
        matio.save_matrix_csv(mat, target)
        path = tmp_path / "p.json"
        code, _, _ = run(capsys, "decompose", "--matrix", str(mat),
                         "--out", str(path), *flags)
        assert code == 0
        plan = sa.deserialize(path.read_bytes())
        assert plan.metadata["seed"] == seed
        if "--aux" in flags:
            assert plan.codebook == sa.make_codebook(
                "self-designing", 4, 16, seed=seed, aux="gaussian")

    @pytest.mark.parametrize("argv, message", RANGE_CASES,
                             ids=[" ".join(argv) for argv, _ in RANGE_CASES])
    def test_every_range_names_its_option(self, tmp_path, capsys, argv,
                                          message):
        mat = tmp_path / "m.csv"
        matio.save_matrix_csv(mat, np.eye(4))
        path = tmp_path / "out"
        command, *flags = argv
        # a valid command line before the one bad value
        base = {"decompose": ["--matrix", str(mat), "--out", str(path)],
                "bench": ["--shapes", "4x16", "--bits", "4", "--samples", "1",
                          "--out", str(path)],
                "analyze": ["--K", "16", "--stages", "2", "--samples", "2",
                            "--points", "11", "--out", str(path)],
                "quantize": ["0.5"]}[command]
        with pytest.raises(SystemExit) as exc:
            main([command, *base, *flags])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err == f"usage error: {message}\n"
        assert message.startswith(flags[-2])
        assert captured.out == "" and not path.exists()

    @pytest.mark.parametrize("argv, message", [
        # printed the K=16 curve alone, exit 0
        (["--fig", "lb", "--K", "16,64"], "--K takes one value with --fig lb"),
        # these derive N from the rate
        (["--fig", "cdf", "--N", "4"], "--N is used only by --fig lb"),
        (["--fig", "total", "--N", "4"], "--N is used only by --fig lb"),
        (["--fig", "asymptote", "--N", "4"], "--N is used only by --fig lb")],
        ids=["lb-K", "cdf-N", "total-N", "asymptote-N"])
    def test_analyze_refuses_an_option_its_figure_ignores(self, tmp_path,
                                                          capsys, argv,
                                                          message):
        path = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--stages", "2", "--samples", "2", *argv,
                  "--out", str(path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err == f"usage error: {message}\n"
        assert captured.out == "" and not path.exists()

    @pytest.mark.parametrize("argv, callee, message, line", [
        (["bench", "--shapes", "4x16", "--bits", "4", "--samples", "1"],
         "shiftadd.cli.make_codebook",
         "Unable to allocate 8.00 EiB for an array with shape "
         "(1048576, 1099511627776) and data type float64", None),
        (["analyze", "--fig", "cdf", "--K", "16"],
         "shiftadd.analysis.angle_error_cdf", "", "out of memory")],
        ids=["bench", "analyze"])
    def test_out_of_memory_is_one_line(self, capsys, monkeypatch, argv,
                                       callee, message, line):
        # used to end in a MemoryError traceback, exit 1
        def no_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(callee, no_memory)
        code, out, err = run(capsys, *argv)
        assert code == 4
        assert out == "" and err == f"error: {line or message}\n"

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
