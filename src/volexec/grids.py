"""Uniform time grids on [0, T], node quadrature and the CSV writer."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _frozen(a: np.ndarray) -> np.ndarray:
    """A read-only contiguous float copy; the caller's array stays writeable."""
    out = np.array(a, dtype=float, order="C")
    out.setflags(write=False)
    return out


def _integral(value, name: str) -> int:
    """value as an int; ValueError unless it is integral (an int, a numpy int
    or an integral float), so that a count is never truncated."""
    n = int(value)
    if n != value:
        raise ValueError(f"{name} must be an integer, got {value}")
    return n


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_i = i*T/n with n+1 nodes, shared by every curve object."""

    T: float
    n_steps: int
    nodes: np.ndarray = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        if not (self.T > 0.0 and np.isfinite(self.T)):
            raise ValueError(f"horizon must be positive and finite, got {self.T}")
        object.__setattr__(self, "n_steps", _integral(self.n_steps, "n_steps"))
        if self.n_steps < 2:
            raise ValueError(f"need at least 2 steps, got {self.n_steps}")
        object.__setattr__(self, "nodes", _frozen(np.linspace(0.0, self.T, self.n_steps + 1)))

    @property
    def tau(self) -> float:
        return self.T / self.n_steps

    def __len__(self) -> int:
        return self.n_steps + 1


def build_grid(T: float, n_steps: int) -> TimeGrid:
    """Uniform grid on [0, T] with n_steps intervals."""
    return TimeGrid(T=float(T), n_steps=n_steps)


def require_same_grid(a: TimeGrid, b: TimeGrid, what: str = "curves") -> None:
    if a != b:  # TimeGrid equality compares T and n_steps, not the nodes
        raise ValueError(
            f"{what} live on different grids: (T={a.T}, n={a.n_steps}) vs (T={b.T}, n={b.n_steps})"
        )


def cumtrapz(y: np.ndarray, tau: float) -> np.ndarray:
    """Cumulative trapezoid of node samples; result[0] = 0, same length as y."""
    y = np.asarray(y, dtype=float)
    out = np.empty_like(y)
    out[0] = 0.0
    np.cumsum(0.5 * tau * (y[1:] + y[:-1]), out=out[1:])
    return out


def trapz(y: np.ndarray, tau: float) -> float:
    """Composite trapezoid of node samples on the uniform grid."""
    y = np.asarray(y, dtype=float)
    return float(tau * (0.5 * (y[0] + y[-1]) + y[1:-1].sum()))


def trapz_weights(n_steps: int, tau: float) -> np.ndarray:
    """Node weights of the composite trapezoid rule (tau/2, tau, ..., tau, tau/2)."""
    w = np.full(n_steps + 1, tau)
    w[0] = w[-1] = 0.5 * tau
    return w


def interval_means(v: np.ndarray) -> np.ndarray:
    """The mean of each interval's two node samples, each halved before the
    sum, so it is finite for any finite v: the bits of
    0.5 * (v[1:] + v[:-1]) wherever the samples, their sums and their means
    are all normal numbers."""
    return 0.5 * v[1:] + 0.5 * v[:-1]


def interval_rates_to_nodes(rates: np.ndarray) -> np.ndarray:
    """Node samples whose trapezoid integral matches the piecewise-constant one exactly.

    Endpoints copy the adjacent interval, interior nodes average the two
    neighbors; the composite trapezoid sum then telescopes to tau * sum(rates).
    """
    rates = np.asarray(rates, dtype=float)
    out = np.empty(rates.size + 1)
    out[0] = rates[0]
    out[-1] = rates[-1]
    out[1:-1] = 0.5 * (rates[:-1] + rates[1:])
    return out


def derivative(y: np.ndarray, tau: float) -> np.ndarray:
    """d/dt of node samples: central differences, second-order one-sided at the ends."""
    y = np.asarray(y, dtype=float)
    if y.size < 3:
        raise ValueError("derivative needs at least 3 nodes")
    d = np.empty_like(y)
    d[1:-1] = (y[2:] - y[:-2]) / (2.0 * tau)
    d[0] = (-3.0 * y[0] + 4.0 * y[1] - y[2]) / (2.0 * tau)
    d[-1] = (3.0 * y[-1] - 4.0 * y[-2] + y[-3]) / (2.0 * tau)
    return d


def write_csv(path, header, columns) -> None:
    """Write equal-length columns under a header, one row per entry, every
    value as %.17g (integers print as integers, doubles round-trip exactly)."""
    row = ",".join(["{:.17g}"] * len(header)) + "\n"
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        f.writelines(row.format(*r) for r in zip(*(np.asarray(c).tolist() for c in columns)))
