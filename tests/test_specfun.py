import math

import mpmath
import numpy as np
import pytest

from fracspline import specfun
from fracspline.specfun import ConvergenceError, PoleError, binomial_row, kummer_1f1


class TestGenBinomial:
    @pytest.mark.parametrize("n,k", [(5, 2), (7, 0), (7, 7), (12, 5)])
    def test_integer_cases(self, n, k):
        assert binomial_row(n, k)[k] == math.comb(n, k)

    def test_integer_alpha_truncates(self):
        row = binomial_row(3, 11)
        assert row[4] == 0.0
        assert row[11] == 0.0

    @pytest.mark.parametrize("alpha", [3.5, 2.5, -0.5, 4.5, 0.3])
    @pytest.mark.parametrize("k", [0, 1, 3, 8])
    def test_real_alpha_against_mpmath(self, alpha, k):
        ref = float(mpmath.binomial(alpha, k))
        assert binomial_row(alpha, k)[k] == pytest.approx(ref, rel=1e-13, abs=1e-300)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            binomial_row(3.5, -1)


T_VALUES = (0.1, 0.5, 0.9, 1.0)


class TestKummer:
    def test_at_zero(self):
        assert kummer_1f1(1.0, 1.5, 0.0) == pytest.approx(1.0)

    def test_closed_form_1_2(self):
        # 1F1(1, 2, z) = (e^z - 1)/z
        for z in (0.3, 2.0, -1.7, 1j * 2.5):
            ref = (mpmath.e**z - 1) / z if isinstance(z, complex) else (math.exp(z) - 1) / z
            got = kummer_1f1(1.0, 2.0, z)
            assert abs(got - complex(ref)) < 1e-12 * max(1.0, abs(complex(ref)))

    @pytest.mark.parametrize("gamma_", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("t", T_VALUES)
    def test_imaginary_argument_against_mpmath(self, gamma_, t):
        # the argument pattern of the Example-2 forcing
        z = 1j * math.pi * t
        ref = complex(mpmath.hyp1f1(1.0, 2.0 - gamma_, z))
        got = kummer_1f1(1.0, 2.0 - gamma_, z)
        assert type(got) is complex
        assert abs(got - ref) <= 1e-12 * abs(ref)
        # one array holding every t: each element stops at its own
        # convergence, so it is the scalar result bit for bit
        column = kummer_1f1(1.0, 2.0 - gamma_, 1j * math.pi * np.array(T_VALUES)[:, None])
        assert column.shape == (len(T_VALUES), 1)
        assert column[T_VALUES.index(t), 0] == got

    @pytest.mark.parametrize("b", [0.0, -1.0, -3.0])
    def test_pole_in_b(self, b):
        with pytest.raises(PoleError):
            kummer_1f1(1.0, b, 0.5)

    def test_large_argument_guard(self):
        # an array is refused when any element is out of range
        for z in (80.0, np.array([0.5, 80.0])):
            with pytest.raises(ValueError):
                kummer_1f1(1.0, 1.5, z)

    def test_term_cap(self, monkeypatch):
        # an array fails when any element has not converged
        monkeypatch.setattr(specfun, "KUMMER_MAX_TERMS", 4)
        for z in (30.0, np.array([0.0, 30.0])):
            with pytest.raises(ConvergenceError):
                kummer_1f1(1.0, 1.5, z)

    def test_series_bounds_are_not_keywords(self):
        for keyword, value in (("rel_tol", 1e-10), ("max_terms", 4), ("max_abs_z", 100.0)):
            with pytest.raises(TypeError, match=keyword):
                kummer_1f1(1.0, 1.5, 0.5, **{keyword: value})
