import numpy as np
import pytest

from fockbench import connection as cn


@pytest.fixture
def pinv_fill_in(monkeypatch):
    """``fill_in`` with each pointwise least squares solved by the
    pseudo-inverse (cutoff 1e-12) in place of the normal equations, on the
    unitary systems taken as one block of all points: the oracle the normal
    equations are checked against."""

    def pinv(mats, rhs, context, first=0):
        return (np.linalg.pinv(mats, rcond=1e-12) @ rhs[..., None])[..., 0]

    def solve(phi, h):
        with monkeypatch.context() as mp:
            mp.setattr(cn, "_solve_batched", pinv)
            mp.setattr(cn, "_BLOCK", phi.chart.nx * phi.chart.ny)
            return cn.fill_in(phi, h)

    return solve
