"""The field contract: arrays keep the field they arrive in.

A real model runs the whole chain (gramians, balancing, selection, bounds)
in real arithmetic and returns float64; the Ginzburg-Landau chain is
complex and stays complex128.  A real model and its complex copy with zero
imaginary parts select the same subsets.
"""

import numpy as np
import pytest

from balsel import balancing, gramian, models, selection, statespace

DOMAINS = ["continuous", "discrete"]


def chain(m, r):
    """Gramians, balanced modes, selection and the four bounds of `m`."""
    grams = gramian.compute_gramians(m)
    bal = balancing.balance(grams, r)
    sel = selection.select_subsets(m.c, m.b, bal.psi_r, bal.phi_r)
    bounds = [
        selection.sensor_state_error_bound(m.c, bal.psi_r, bal.hankel),
        selection.actuator_state_error_bound(m.b, bal.phi_r, bal.hankel),
        selection.sensor_logdet_lower_bound(m.c, bal.psi_r, bal.hankel, sel.gamma),
        selection.actuator_logdet_lower_bound(m.b, bal.phi_r, bal.hankel, sel.beta),
    ]
    return grams, bal, sel, bounds


def complex_copy(m):
    return statespace.StateSpaceModel(m.a + 0j, m.b + 0j, m.c + 0j, time_domain=m.time_domain)


@pytest.mark.parametrize("domain", DOMAINS)
def test_real_model_stays_real(domain):
    m = models.random_stable_system(20, 9, 7, seed=3, time_domain=domain)
    assert m.a.dtype == m.b.dtype == m.c.dtype == np.float64
    grams, bal, sel, bounds = chain(m, 4)
    arrays = [grams.w_c, grams.w_o, bal.psi_r, bal.phi_r, bal.hankel,
              sel.r_diag_sensors, sel.r_diag_actuators]
    assert all(x.dtype == np.float64 for x in arrays)
    assert all(type(v) is float for v in bounds)


def test_ginzburg_landau_chain_stays_complex():
    pipe = models.gl_pipeline(models.GinzburgLandauParams(n=16), r=3)
    controller = pipe["controller"].controller_model
    bal = pipe["balanced"]
    arrays = [*pipe["plant"], controller.a, controller.b, controller.c, bal.psi_r,
              bal.phi_r, pipe["closed_loop"].a]
    assert all(x.dtype == np.complex128 for x in arrays)


@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("seed", range(5))
def test_complex_copy_selects_the_same(domain, seed):
    m = models.random_stable_system(24, 10, 8, seed=seed, time_domain=domain)
    real, cplx = chain(m, 5), chain(complex_copy(m), 5)
    assert real[2].gamma.tolist() == cplx[2].gamma.tolist()
    assert real[2].beta.tolist() == cplx[2].beta.tolist()
    pairs = [
        (real[0].w_c, cplx[0].w_c),
        (real[0].w_o, cplx[0].w_o),
        (real[1].hankel, cplx[1].hankel),
        (real[2].r_diag_sensors, cplx[2].r_diag_sensors),
        (real[2].r_diag_actuators, cplx[2].r_diag_actuators),
        (real[3], cplx[3]),
    ]
    for x, y in pairs:
        np.testing.assert_allclose(x, y, rtol=1e-10, atol=0)
