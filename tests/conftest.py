import numpy as np
import pytest

from volexec.cost import MarketParams
from volexec.grids import build_grid
from volexec.strategies import Strategy
from volexec.volume import GbmVolumeModel, arcsine_profile, constant_profile


@pytest.fixture
def market():
    # low-vol reference market used throughout
    return MarketParams(kappa=0.1, kappa_tilde=0.02, sigma_tilde=0.1, s0=100.0)


@pytest.fixture
def market_hi():
    # same impact coefficients, doubled volatility
    return MarketParams(kappa=0.1, kappa_tilde=0.02, sigma_tilde=0.2, s0=100.0)


@pytest.fixture
def gbm_model():
    return GbmVolumeModel(v0=1.0, mu=-0.02, sigma=0.2, rho=0.0)


@pytest.fixture
def grid200():
    return build_grid(1.0, 200)


@pytest.fixture
def grid500():
    return build_grid(1.0, 500)


@pytest.fixture
def arcsine500(grid500):
    return arcsine_profile(grid500)


@pytest.fixture
def const200(grid200):
    return constant_profile(grid200, 1.0)


def make_twap(grid, Phi=1.0):
    return Strategy(grid=grid, zeta=np.full(len(grid), Phi / grid.T), Phi=Phi)


@pytest.fixture
def twap200(grid200):
    return make_twap(grid200)


def decompose(price, vol, zeta, Phi, tau, market):
    """Test oracle: the realized cost's permanent/temporary/price-risk
    decomposition written straight from interval averages, path by path
    (zeta may carry a path axis).  Returns (total, permanent, temporary,
    price_risk), each broadcast over the leading path axes."""
    zbar = 0.5 * (zeta[..., 1:] + zeta[..., :-1])
    psi = np.concatenate(
        [np.zeros(zbar.shape[:-1] + (1,)), np.cumsum(tau * zbar, axis=-1)], axis=-1
    )
    temp_node = market.kappa_tilde * zeta / vol
    permanent = market.kappa * psi[..., -1] ** 2 / 2.0
    temporary = np.sum(tau * 0.5 * (temp_node[..., 1:] + temp_node[..., :-1]) * zbar, axis=-1)
    phi_raw = Phi - psi
    phi_bar = 0.5 * (phi_raw[..., 1:] + phi_raw[..., :-1])
    price_risk = price[..., -1] * phi_raw[..., -1] - np.sum(
        phi_bar * np.diff(price, axis=-1), axis=-1
    )
    return permanent + temporary + price_risk, permanent, temporary, price_risk


def inverse_turnover_covariance(model, times):
    """Test oracle: the dense matrix Cov(1/v_s, 1/v_t) of the lognormal model,
    v0^-2 exp(-(mu - sigma^2)(s + t)) (exp(sigma^2 min(s, t)) - 1)."""
    t = np.asarray(times, dtype=float)
    m = model.mu - model.sigma**2
    outer_min = np.minimum(t[:, None], t[None, :])
    outer_sum = t[:, None] + t[None, :]
    return np.exp(-m * outer_sum) * np.expm1(model.sigma**2 * outer_min) / model.v0**2
