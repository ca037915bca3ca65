import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_hermitian(dim, rng, real=False):
    a = rng.standard_normal((dim, dim))
    if not real:
        a = a + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


def random_two_state(rng, scale=1.0):
    from floqsens import TwoStateModel
    x_u, z_u, x_d, z_d = rng.uniform(-2 * scale, 2 * scale, size=4)
    return TwoStateModel.from_components(x_u, z_u, x_d, z_d)


def near_crossing(model, taus, bound=1e-3):
    """Mask of the taus where |cos(E(tau)/2)| < bound: within about 2 bound
    of a true level crossing E = pi, where F = y^2 / q is 0/0 at the limit."""
    from floqsens import cos_floquet_phase
    q = np.maximum(0.5 * (1.0 + cos_floquet_phase(model, np.asarray(taus, dtype=float))), 0.0)
    return np.sqrt(q) < bound
