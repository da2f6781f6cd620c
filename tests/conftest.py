from unittest import mock

import numpy as np
import pytest

from volexec import cost, montecarlo
from volexec.cost import MarketParams
from volexec.errors import SolverFailureError
from volexec.grids import build_grid, trapz_weights
from volexec.montecarlo import _joint_block
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


def joint_paths(cfg):
    """Test oracle: every (price, turnover) path of a simulation config, shape
    (n_paths, n+1), as the Monte Carlo pass draws them; deterministic
    turnover rows are a read-only broadcast of the profile."""
    return _joint_block(cfg, 0, cfg.n_paths)


def antithetic_paths(cfg):
    """Test oracle: the paths of an antithetic pass, its n_paths/2 drawn
    paths followed by their twins, which are built from the same normals
    negated."""
    draw = montecarlo._normal_block
    half = cfg.n_paths // 2
    price, vol = _joint_block(cfg, 0, half)
    with mock.patch.object(montecarlo, "_normal_block", lambda *a, **k: -draw(*a, **k)):
        twin_price, twin_vol = _joint_block(cfg, 0, half)
    return np.concatenate([price, twin_price]), np.concatenate([vol, twin_vol])


def perturbed_cost_weights(size, pair=False):
    """Test fault: cost._cost_weights with size * Phi added to the middle
    weight of the direct form, which the identity check on the weights must
    catch.  With pair=True as much is taken from the next weight, so only
    one price increment's weight changes."""
    build = cost._cost_weights

    def perturbed(zeta, Phi, tau, market):
        risk, direct, *rest = build(zeta, Phi, tau, market)
        direct = direct.copy()
        mid = direct.shape[-1] // 2
        direct[..., mid] += size * Phi
        if pair:
            direct[..., mid + 1] -= size * Phi
        return (risk, direct, *rest)

    return perturbed


def task_fault(seed, first, *args, **kwargs):
    """Test fault: montecarlo._normal_block failing every task of a pass,
    its message naming the task's first path."""
    raise ValueError(f"task at {first}")


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


def dense_quadratic_hessian(d, k, w):
    """Test oracle: the optimizer's rate-space model as a dense matrix,
    diag(d) + k T with T[i, j] = sum_{m <= min(i, j)} w_m, the Hessian of
    1/2 sum d z^2 + 1/2 k sum_m w_m x_m^2 for the inventory x_m = sum_{i >= m} z_i."""
    cw = np.cumsum(w[:-1])
    idx = np.arange(cw.size)
    return np.diag(d) + k * cw[np.minimum(idx[:, None], idx[None, :])]


def dense_kkt_step(H, b, tau, Phi, fixed):
    """Test oracle: min 1/2 z'Hz - b'z s.t. tau * sum(z) = Phi, with the
    `fixed` coordinates pinned at zero, by one dense (n+1) x (n+1) KKT solve.
    Returns (z, nu)."""
    free = ~fixed
    nf = int(free.sum())
    if nf == 0:
        raise SolverFailureError("all decision variables pinned at zero")
    M = np.zeros((nf + 1, nf + 1))
    M[:nf, :nf] = H[np.ix_(free, free)]
    M[:nf, nf] = tau
    M[nf, :nf] = tau
    rhs = np.concatenate([b[free], [Phi]])
    try:
        sol = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as e:
        raise SolverFailureError(f"KKT system is singular: {e}") from e
    z = np.zeros(b.size)
    z[free] = sol[:nf]
    return z, float(sol[nf])


def dense_qp_rates(profile, lam, market, Phi):
    """Test oracle: interval rates of the deterministic optimum from a dense
    KKT active set, assembled in the cumulative-sold form (Hessian diagonal
    plus 2 lam sigma_tilde^2 tau^2 S, S[i, j] = sum_{m > max(i, j)} w_m, and
    the price-risk gradient at z = 0 as the linear term): O(n^2) memory and
    O(n^3) time."""
    grid = profile.grid
    n, tau = grid.n_steps, grid.tau
    vbar = 0.5 * (profile.v[1:] + profile.v[:-1])
    w = trapz_weights(n, tau)
    H = 2.0 * market.kappa_tilde * tau * np.diag(1.0 / vbar)
    cw = np.cumsum(w[1:][::-1])[::-1]
    idx = np.arange(n)
    H += 2.0 * lam * market.sigma_tilde**2 * tau**2 * cw[np.maximum(idx[:, None], idx[None, :])]
    b = 2.0 * lam * market.sigma_tilde**2 * tau * Phi * cw
    z = dense_active_set(H, b, tau, Phi)[0]
    return z * (Phi / (tau * z.sum()))


def dense_active_set(H, b, tau, Phi):
    """Test oracle: min 1/2 z'Hz - b'z s.t. tau * sum(z) = Phi and z >= 0 by
    dense KKT steps: violating bounds are pinned, and a pinned bound with a
    negative multiplier is released, one at a time (Nocedal & Wright,
    section 16.5).  Returns (z, nu, fixed)."""
    n = b.size
    fixed = np.zeros(n, dtype=bool)
    for _ in range(max(n, 8)):
        z, nu = dense_kkt_step(H, b, tau, Phi, fixed)
        violating = z < -1e-12 * Phi / (tau * n)
        if violating.any():
            fixed |= violating
            continue
        z[z < 0.0] = 0.0
        grad = H @ z - b
        active = np.where(fixed)[0]
        if active.size:
            mult = grad[active] + tau * nu
            worst = int(np.argmin(mult))
            if mult[worst] < -1e-12 * max(1.0, float(np.abs(grad).max())):
                fixed[active[worst]] = False
                continue
        return z, nu, fixed
    raise SolverFailureError("dense reference QP did not converge")
