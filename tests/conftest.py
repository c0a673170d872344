"""Shared numeric oracles for the test suite."""

import numpy as np
import pytest

from mvre import autodiff as ad


def central_difference(f, params: dict[str, ad.Tensor], h: float = 1e-5) -> dict[str, np.ndarray]:
    """Gradient of scalar f() w.r.t. every entry of every parameter.

    Perturbs one entry at a time and re-evaluates the full computation;
    independent of the reverse-mode path it checks.
    """
    out = {}
    for name, p in params.items():
        g = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            with ad.no_grad():
                f_plus = float(f().data)
            flat[i] = orig - h
            with ad.no_grad():
                f_minus = float(f().data)
            flat[i] = orig
            gflat[i] = (f_plus - f_minus) / (2.0 * h)
        out[name] = g
    return out


def max_relative_error(analytic: dict[str, np.ndarray],
                       numeric: dict[str, np.ndarray]) -> float:
    """Per-array sup-norm discrepancy, normalized by the larger gradient scale."""
    worst = 0.0
    for name in analytic:
        a, n = analytic[name], numeric[name]
        denom = max(np.abs(a).max(initial=0.0), np.abs(n).max(initial=0.0), 1e-8)
        worst = max(worst, float(np.abs(a - n).max(initial=0.0)) / denom)
    return worst


def assert_grads_close(f, params: dict[str, ad.Tensor], tol: float = 1e-4, h: float = 1e-5):
    loss = f()
    analytic = ad.grad(loss, params)
    numeric = central_difference(f, params, h=h)
    err = max_relative_error(analytic, numeric)
    assert err < tol, f"max relative gradient error {err:.3e} >= {tol}"


def scalar_cosine(a: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    """Cosine of two 1-D tensors as one scalar node: the engine's former op.

    ``ad.cosine_pairs`` and the losses built on it must reproduce a graph of
    these nodes bit for bit, in value and gradient.
    """
    na, nb = np.linalg.norm(a.data), np.linalg.norm(b.data)
    c = 1.0 if np.array_equal(a.data, b.data) else float(a.data @ b.data) / (na * nb)

    def backward(g):
        a._accumulate(g * (b.data / (na * nb) - c * a.data / (na * na)))
        b._accumulate(g * (a.data / (na * nb) - c * b.data / (nb * nb)))

    return ad._make(np.asarray(c), (a, b), backward)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
