import numpy as np
import pytest
from scipy.special import sph_harm_y


def _dense_sht(values, scheme):
    """forward_sht by one dense square solve, for cross-checking.

    Y_l^m comes from scipy, which shares no Legendre recurrence with the package, at every
    sample point for each coefficient (l, m) at l(l+1)/2 + m. Cubic in the point count, so
    only sensible at small band limits.
    """
    L = scheme.bandlimit
    l = np.repeat(np.arange(0, L, 2), np.arange(1, 2 * L, 4))
    m = np.arange(len(l)) - l * (l + 1) // 2
    matrix = sph_harm_y(l, m, scheme.theta[:, None], scheme.phi[:, None])
    return np.linalg.solve(matrix, np.asarray(values, dtype=complex))


@pytest.fixture
def dense_sht():
    return _dense_sht
