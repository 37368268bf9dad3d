import math

import mpmath
import pytest

from fracspline.specfun import binomial_row


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

