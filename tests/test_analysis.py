"""Performance model: beta CDF, angle/total error, bounds, Monte-Carlo."""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import shiftadd as sa
from shiftadd.analysis import total_error_from_angle
from shiftadd.pow2matrix import advance_effective


def test_import_leaves_scipy_special_and_integrate_unloaded():
    # scipy is loaded by the analysis functions that need it, not on import
    code = ("import sys, shiftadd\n"
            "mods = ('scipy.special', 'scipy.integrate')\n"
            "print(sorted(m for m in mods if m in sys.modules))\n"
            "shiftadd.total_error(4, 16)\n"
            "print(sorted(m for m in mods if m in sys.modules))\n")
    src = str(Path(sa.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines() == [
        "[]", "['scipy.integrate', 'scipy.special']"]


def test_every_export_resolves():
    assert all(hasattr(sa, name) for name in sa.__all__)
    for gone in ("csd_baseline_apply", "AngleErrorModel", "reg_inc_beta",
                 "rho2_cdf", "mailman_dense", "fit_column", "FitResult"):
        assert gone not in sa.__all__ and not hasattr(sa, gone)


def _identifiers(path):
    """``(identifier, owner)`` for every name and attribute read in the
    module at ``path``, ``owner`` being the top-level def or class it lies
    in, else None."""
    out = set()
    for stmt in ast.parse(path.read_text()).body:
        owner = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                out.add((node.id, owner))
            elif isinstance(node, ast.Attribute):
                out.add((node.attr, owner))
    return out


def test_every_export_has_a_caller():
    # an export that only its own tests reach is surface to remove; the
    # exempt names are references the tests compare the package against
    root = Path(__file__).resolve().parents[1]
    package = set().union(*(
        _identifiers(path) for path in (root / "src" / "shiftadd").glob("*.py")
        if path.name != "__init__.py"))
    bench = {name for path in (root / "perfbench").glob("*.py")
             for name, _ in _identifiers(path)}
    references = {"baseline_apply", "simulate_angle_error",
                  "binary_distortion_oracle", "csd_distortion_oracle"}
    uncalled = [name for name in sa.__all__
                if name not in references | bench
                and not any(n == name and owner != name
                            for n, owner in package)]
    assert uncalled == []


class TestRho2Cdf:
    """The CDF of the squared correlation against one codeword, ``B(1/2,
    (N-1)/2, r)``: at K = 1 the angle error is ``1 - rho**2``, so it is
    ``1 - angle_error_cdf(N, 1, 1 - r)``."""

    @staticmethod
    def cdf(n, r):
        return 1 - sa.angle_error_cdf(n, 1, 1 - np.asarray(r))

    def test_closed_form_n3(self):
        r = np.linspace(0, 1, 21)
        assert np.allclose(self.cdf(3, r), np.sqrt(r), atol=1e-12)

    def test_valid_cdf(self):
        for n in (2, 3, 8, 33):
            r = np.linspace(0, 1, 101)
            c = self.cdf(n, r)
            assert c[0] == 0.0 and c[-1] == pytest.approx(1.0, abs=1e-12)
            assert np.all(np.diff(c) >= -1e-15)

    def test_arcsine_case(self):
        assert self.cdf(2, 0.5) == pytest.approx(0.5, abs=1e-12)
        with pytest.raises(ValueError, match="two dimensions"):
            self.cdf(1, 0.5)


class TestAngleErrorCdf:
    def test_k1_closed_form(self):
        r = np.linspace(0, 1, 31)
        assert np.allclose(sa.angle_error_cdf(3, 1, r), 1 - np.sqrt(1 - r),
                           atol=1e-12)

    def test_limits_and_monotonicity(self):
        r = np.linspace(0, 1, 201)
        c = sa.angle_error_cdf(5, 32, r)
        assert c[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(c) >= -1e-14)

    def test_larger_codebooks_dominate(self):
        r = np.linspace(0.001, 0.999, 99)
        for k in (1, 2, 8, 64, 1024):
            a = sa.angle_error_cdf(9, k, r)
            b = sa.angle_error_cdf(9, k + 1, r)
            assert np.all(b >= a - 1e-14)

    def test_sharpens_at_rate_threshold(self):
        # CDF concentrates around 4**-R as K grows at fixed rate 1/2
        step = sa.asymptotic_threshold(0.5)
        lo, hi = [], []
        for k in (4, 256, 65536):
            n = round(math.log2(k) / 0.5)
            lo.append(sa.angle_error_cdf(n, k, step - 0.1))
            hi.append(sa.angle_error_cdf(n, k, step + 0.1))
        assert lo[0] > lo[1] > lo[2]
        assert hi[0] < hi[1] < hi[2]
        assert lo[-1] < 0.02 and hi[-1] > 0.98


class TestMeanSqAngleError:
    def test_closed_forms(self):
        assert sa.mean_sq_angle_error(3, 1) == pytest.approx(2 / 3, rel=1e-8)
        assert sa.mean_sq_angle_error(2, 1) == pytest.approx(1 / 2, rel=1e-8)

    def test_decreasing_in_k(self):
        vals = [sa.mean_sq_angle_error(8, k) for k in (2, 8, 64, 256, 4096)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_large_k_stays_finite_and_positive(self):
        v = sa.mean_sq_angle_error(16, 2 ** 20)
        assert 0.0 < v < 1.0

    def test_matches_simulation_mean(self):
        samples = sa.simulate_angle_error(6, 16, 20000, seed=42)
        se = samples.std(ddof=1) / math.sqrt(len(samples))
        assert abs(samples.mean() - sa.mean_sq_angle_error(6, 16)) <= 3 * se


class TestTotalError:
    def test_formula_points(self):
        assert total_error_from_angle(0.0) == pytest.approx(1 / 27)
        assert total_error_from_angle(1.0) == pytest.approx(1.0)
        assert total_error_from_angle(0.25) == pytest.approx(7.5 / 27)

    def test_range(self):
        for n, k in [(2, 2), (4, 16), (8, 256), (12, 4096)]:
            assert 1 / 27 <= sa.total_error(n, k) <= 1.0

    def test_lower_bound(self):
        eps = sa.total_error(8, 256)
        assert sa.distortion_lower_bound(8, 256, 0) == pytest.approx(eps)
        assert sa.distortion_lower_bound(8, 256, 2) == pytest.approx(eps ** 3)
        assert 0.25 ** 3 == 0.015625  # the arithmetic the bound applies
        with pytest.raises(ValueError):
            sa.distortion_lower_bound(8, 256, -1)


class TestAsymptote:
    def test_values(self):
        assert sa.asymptotic_threshold(1.0) == 0.25
        assert sa.asymptotic_threshold(0.5) == 0.5
        assert sa.asymptotic_threshold(2.0) == pytest.approx(1 / 16)
        with pytest.raises(ValueError):
            sa.asymptotic_threshold(0.0)


class TestDesignPoint:
    def test_code_rate(self):
        assert sa.code_rate(8, 256) == 1.0
        assert sa.code_rate(16, 1024) == 0.625

    def test_functions_agree(self):
        # at (N, K) = (8, 256): the mean is the integral of the CDF's tail,
        # and the total error and the bound are built from it
        r = np.linspace(0.0, 1.0, 20001)
        tail = 1.0 - sa.angle_error_cdf(8, 256, r)
        mean = sa.mean_sq_angle_error(8, 256)
        assert np.trapezoid(tail, r) == pytest.approx(mean, rel=1e-4)
        assert sa.total_error(8, 256) == total_error_from_angle(mean)
        assert sa.distortion_lower_bound(8, 256, 3) == \
            sa.total_error(8, 256) ** 4


class TestSimulation:
    def test_angle_error_dkw_band(self):
        trials = 20000
        samples = sa.simulate_angle_error(3, 1, trials, seed=7)
        emp_hi = np.arange(1, trials + 1) / trials
        ref = 1 - np.sqrt(1 - samples)
        dev = max(np.max(np.abs(emp_hi - ref)),
                  np.max(np.abs(emp_hi - 1 / trials - ref)))
        assert dev <= 1.36 / math.sqrt(trials)

    def test_reproducible(self):
        a = sa.simulate_angle_error(4, 8, 500, seed=3)
        b = sa.simulate_angle_error(4, 8, 500, seed=3)
        assert np.array_equal(a, b)

    def test_decomposition_curve(self):
        s, mean, err = sa.simulate_decomposition(5, 32, 4, seed=11,
                                                 matrix_samples=4)
        assert list(s) == [1, 2, 3, 4]
        assert np.all(np.diff(mean) < 0)
        lb = np.array([sa.distortion_lower_bound(5, 32, int(v)) for v in s])
        assert np.all(mean >= 0.95 * lb)

    def test_decomposition_equals_fixed_plans(self):
        # the same draws fitted one unit-sparsity stage at a time, each
        # codebook rolled forward stage by stage
        n, k, stages, samples, seed = 5, 32, 3, 3, 21
        s, mean, err = sa.simulate_decomposition(n, k, stages, seed, samples)
        rng = np.random.default_rng(seed)
        per = np.empty((samples, stages))
        for m in range(samples):
            target = rng.standard_normal((n, k))
            eff = sa.gaussian_build(n, k, int(rng.integers(2 ** 62)))
            for ell in range(stages):
                eff = advance_effective(eff, sa.fit_stage(target, eff, 1))
                diff = target - eff
                per[m, ell] = np.mean(np.sum(diff * diff, axis=0)
                                      / np.sum(target * target, axis=0))
        assert list(s) == [1, 2, 3]
        assert mean.tobytes() == per.mean(axis=0).tobytes()
        assert err.tobytes() == (per.std(axis=0, ddof=1)
                                 / math.sqrt(samples)).tobytes()

    def test_decomposition_zero_stages_is_unit_distortion(self):
        s, mean, err = sa.simulate_decomposition(4, 16, 0)
        assert list(s) == [0] and list(mean) == [1.0]

    @pytest.mark.parametrize("samples", [0, -3])
    def test_decomposition_needs_a_matrix_sample(self, samples):
        # used to return nan means with numpy RuntimeWarnings
        with pytest.raises(ValueError, match="matrix_samples"):
            sa.simulate_decomposition(4, 16, 2, matrix_samples=samples)
