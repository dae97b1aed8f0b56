"""Change-point priors and discrete mixing measures.

A prior here is a distribution of the change point ``nu`` over the integers:
a lump ``q = P(nu <= -1)`` (the change was already in effect before the data
started) plus a pmf ``pi_k = P(nu = k)`` on k = 0, 1, 2, ...  The tail
``Pi(n) = sum_{k>=n} pi_k`` enters every mixture-Shiryaev update, so both the
pmf and the tail are computed from closed forms and must stay consistent to
high accuracy.

Two families are shipped: a geometric prior, whose tail decays at exponential
rate ``mu = -log(1 - rho)``, and a polynomial-tail family with ``mu = 0``.
They exercise the two tail regimes that matter for the asymptotic delay of
the mixture rules.  A point-mass prior is provided for degenerate sanity
checks.

Mixing measures over the post-change parameter space are discrete: a list of
atoms with positive weights summing to one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class ChangePrior:
    """Distribution of the change point, immutable after construction.

    ``log_pmf`` and ``log_tail`` are vectorized callables over nonnegative
    integer arrays; ``tail`` is a scalar convenience.  ``mu`` is the
    exponential tail rate lim (1/n)|log Pi(n)| (0 for heavy tails, +inf for
    finite support), ``mean`` is sum k*pi_k (may be +inf) and ``b`` is
    sum_{k>=1} pi_k = Pi(1).
    """

    name: str
    q: float
    mu: float
    mean: float
    b: float
    log_pmf_fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    log_tail_fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def log_pmf(self, k) -> np.ndarray:
        return self.log_pmf_fn(np.asarray(k, dtype=np.int64))

    def log_tail(self, n) -> np.ndarray:
        return self.log_tail_fn(np.asarray(n, dtype=np.int64))

    def tail(self, n) -> np.ndarray:
        return np.exp(self.log_tail(n))

    def log_pmf_array(self, horizon: int) -> np.ndarray:
        """log pi_k for k = 0 .. horizon-1."""
        return self.log_pmf(np.arange(horizon))

    def log_tail_array(self, horizon: int) -> np.ndarray:
        """log Pi(n) for n = 0 .. horizon."""
        return self.log_tail(np.arange(horizon + 1))

    def sample(self, rng: np.random.Generator) -> int:
        """Draw nu from the prior restricted to k >= 0 (mass renormalized by 1-q).

        Consumes exactly one uniform; see ``inverse_cdf``.
        """
        return int(self.inverse_cdf(np.array([rng.random()]))[0])

    def inverse_cdf(self, u) -> np.ndarray:
        """nu for each uniform in ``u``, from the prior restricted to k >= 0.

        Inverse-cdf on the tail: the smallest k with Pi(k+1)/(1-q) <= u,
        located by exponential search + bisection on the closed-form tail
        (heavy tails can put u's quantile at astronomically large k, so a
        linear walk is not an option).  All elements search at once, and
        each probes the same k in the same order as a search of its own.
        A quantile past the int64 range raises ``OverflowError``.
        """
        log_1mq = math.log1p(-self.q)
        # math.log, not np.log: the two can differ in the last bit; u = 0 is
        # a probability-zero edge, moved to the smallest positive double
        target = np.array(
            [math.log(x if x > 0.0 else 5e-324) + log_1mq for x in np.ravel(u).tolist()]
        )
        nu = np.zeros(target.size, dtype=np.int64)
        todo = np.flatnonzero(self.log_tail(1) > target)
        target = target[todo]
        lo = np.zeros(todo.size, dtype=np.int64)  # invariant: log_tail(lo + 1) > target
        hi = np.ones(todo.size, dtype=np.int64)
        grow = np.arange(todo.size)
        while grow.size:
            grow = grow[self.log_tail(hi[grow] + 1) > target[grow]]
            if grow.size and hi[grow].max() >= 2**62:
                raise OverflowError("prior quantile beyond the int64 range")
            lo[grow] = hi[grow]
            hi[grow] *= 2
        split = np.flatnonzero(hi - lo > 1)
        while split.size:
            mid = (lo[split] + hi[split]) // 2
            above = self.log_tail(mid + 1) > target[split]
            lo[split[above]] = mid[above]
            hi[split[~above]] = mid[~above]
            split = split[hi[split] - lo[split] > 1]
        nu[todo] = hi
        return nu.reshape(np.shape(u))


# family kernels live at module level (with bound parameters via partial) so
# priors pickle cleanly into worker processes


def _geom_log_pmf(k, log_1mq, log_rho, log_1mrho):
    return log_1mq + log_rho + k * log_1mrho


def _geom_log_tail(n, log_1mq, log_1mrho):
    return log_1mq + n * log_1mrho


def geometric_prior(rho: float, q: float = 0.0) -> ChangePrior:
    """Geometric change-point prior: pi_k = (1-q) * rho * (1-rho)^k.

    Tail Pi(n) = (1-q)(1-rho)^n, so the tail exponent is mu = -log(1-rho)
    and the mean is (1-q)(1-rho)/rho.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must be in (0, 1), got {rho}")
    if not 0.0 <= q < 1.0:
        raise ValueError(f"q must be in [0, 1), got {q}")
    log_1mq = math.log1p(-q)
    log_rho = math.log(rho)
    log_1mrho = math.log1p(-rho)
    return ChangePrior(
        name="geometric",
        q=q,
        mu=-log_1mrho,
        mean=(1.0 - q) * (1.0 - rho) / rho,
        b=(1.0 - q) * (1.0 - rho),
        log_pmf_fn=partial(_geom_log_pmf, log_1mq=log_1mq, log_rho=log_rho, log_1mrho=log_1mrho),
        log_tail_fn=partial(_geom_log_tail, log_1mq=log_1mq, log_1mrho=log_1mrho),
    )


def _poly_log_pmf(k, c, log_1mq, log_norm):
    return log_1mq - c * np.log(k + 2.0) - log_norm


def _poly_log_tail(n, c, log_1mq, log_norm):
    # the normaliser cancels before log(1 - q) is added, so Pi(0) = 1 - q exactly
    return log_1mq + (log_hurwitz_zeta(c, n + 2.0) - log_norm)


# (2j)! / B_2j for j = 1 .. 12, B the Bernoulli numbers: the Euler-Maclaurin
# terms of log_hurwitz_zeta divide by these
_EM_DIVISORS = np.array([
    12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1892437580.3183792, 74724249600.0,
    -2950130727918.164, 116467828143500.67, -4597978722407473.0, 1.8152105401943546e17,
    -7.166165256175667e18,
])
_EM_DIRECT = 9  # terms summed one by one before the Euler-Maclaurin remainder


def log_hurwitz_zeta(c: float, a) -> np.ndarray:
    """log zeta(c, a) = log sum_{k>=0} (a + k)^-c for c > 1 and a >= 1, elementwise.

    Taken in the log domain, so it stays finite where zeta(c, a) is below the
    smallest float: log zeta(c, a) = -c log a + log S, S = sum_k (1 + k/a)^-c,
    whose first term is 1.  S is its first _EM_DIRECT terms plus the
    Euler-Maclaurin remainder at w = a + _EM_DIRECT,

        (1 + _EM_DIRECT/a)^-c (w/(c-1) + 1/2 + sum_j (c)_{2j-1} w^{1-2j} B_2j/(2j)!),

    (c)_m the rising factorial, whose truncation error stays near 1e-20 of S:
    either w is large beside c or the factor in front is tiny.  Against a 50-digit
    sum, the log is within 2e-15 relative for c in [1.01, 1074] and a in
    [2, 9e18]; at a = 2, against scipy's zeta, it is within 1e-15 of
    max(1, |log zeta|) for c in [1.0001, 1022], where scipy's is a normal float.
    """
    a = np.asarray(a, dtype=float)
    direct = np.exp(-c * np.log1p(np.arange(_EM_DIRECT) / a[..., None])).sum(axis=-1)
    w = a + _EM_DIRECT
    rising = np.cumprod(c + np.arange(2 * _EM_DIVISORS.size - 1))[::2]  # (c)_1, (c)_3, ...
    odd_powers = w[..., None] ** -np.arange(1, 2 * _EM_DIVISORS.size, 2)
    remainder = w / (c - 1.0) + 0.5 + (odd_powers * (rising / _EM_DIVISORS)).sum(axis=-1)
    return -c * np.log(a) + np.log(direct + np.exp(-c * np.log1p(_EM_DIRECT / a)) * remainder)


def heavy_tail_prior(c_exponent: float, q: float = 0.0) -> ChangePrior:
    """Polynomial-tail prior: pi_k proportional to (k+2)^(-c), normalized.

    The tail is computed from the Hurwitz zeta function,
    Pi(n) = (1-q) * zeta(c, n+2) / zeta(c, 2), which keeps pmf and tail
    consistent.  The normalizer, the tail, the mean and b all take zeta in
    the log domain (``log_hurwitz_zeta``), so they stay finite and accurate
    where zeta itself is below the smallest normal float, and Pi(0) = 1 - q
    exactly.  c must be below 1075, where 2^-c, and so zeta(c, 2) in floats,
    is 0.  The tail rate mu is zero; the mean is finite only for c > 2.
    """
    if not c_exponent > 1.0:
        raise ValueError(f"c_exponent must exceed 1 for normalizability, got {c_exponent}")
    if not 0.0 <= q < 1.0:
        raise ValueError(f"q must be in [0, 1), got {q}")
    c = float(c_exponent)
    if c >= 1075.0:  # the first term 2^-c of zeta(c, 2) is below the smallest float
        raise ValueError(f"c_exponent must be below about 1075, where zeta(c, 2) is 0; got {c:g}")
    log_norm = float(log_hurwitz_zeta(c, 2.0))  # log sum_{m>=2} m^-c
    log_1mq = math.log1p(-q)
    log_tail = partial(_poly_log_tail, c=c, log_1mq=log_1mq, log_norm=log_norm)
    mean = math.inf
    if c > 2.0:
        # sum_{m>=3} (m-2) m^-c = zeta(c-1, 3) - 2 zeta(c, 3), each term a ratio
        # to the normalizer; every m-th summand of the first is at least 3/2 of
        # the second's, so the difference loses at most two bits
        ratio = [math.exp(log_hurwitz_zeta(s, 3.0) - log_norm) for s in (c - 1.0, c)]
        mean = (1.0 - q) * (ratio[0] - 2.0 * ratio[1])

    return ChangePrior(
        name="heavy_tail",
        q=q,
        mu=0.0,
        mean=mean,
        b=math.exp(log_tail(np.int64(1))),
        log_pmf_fn=partial(_poly_log_pmf, c=c, log_1mq=log_1mq, log_norm=log_norm),
        log_tail_fn=log_tail,
    )


def _point_log_pmf(k, k0):
    return np.where(k == k0, 0.0, -np.inf)


def _point_log_tail(n, k0):
    return np.where(n <= k0, 0.0, -np.inf)


def point_mass_prior(k0: int = 0) -> ChangePrior:
    """Degenerate prior pi_{k0} = 1 (finite support; tail hits zero past k0).

    The tail exponent is +inf by convention; only useful for degenerate
    sanity checks of downstream machinery.
    """
    if k0 < 0:
        raise ValueError(f"k0 must be nonnegative, got {k0}")
    return ChangePrior(
        name="point_mass",
        q=0.0,
        mu=math.inf,
        mean=float(k0),
        b=1.0 if k0 >= 1 else 0.0,
        log_pmf_fn=partial(_point_log_pmf, k0=k0),
        log_tail_fn=partial(_point_log_tail, k0=k0),
    )


@dataclass(frozen=True)
class Cp2Report:
    """Partial-sum diagnostic for the log-moment summability of a prior.

    A finite value of sum_k pi_k |log pi_k|^r cannot be proven numerically;
    this records the partial sum up to the horizon together with the last
    summand.  A decreasing summand below 1e-8 at the horizon is flagged as
    consistent with summability; it is a surrogate, not a proof.
    """

    partial_sum: float
    last_summand: float
    summand_decreasing: bool
    consistent: bool
    r: float
    horizon: int


def check_cp2_partial(prior: ChangePrior, r: float, horizon: int) -> Cp2Report:
    """Partial sum of pi_k |log pi_k|^r over k <= horizon, with diagnostics."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    k = np.arange(horizon + 1)
    log_p = prior.log_pmf(k)
    with np.errstate(invalid="ignore"):
        summand = np.where(
            np.isfinite(log_p), np.exp(log_p) * np.abs(log_p) ** r, 0.0
        )
    last = float(summand[-1])
    mid = float(summand[horizon // 2])
    decreasing = last <= mid or last == 0.0
    return Cp2Report(
        partial_sum=float(summand.sum()),
        last_summand=last,
        summand_decreasing=decreasing,
        consistent=decreasing and last < 1e-8,
        r=r,
        horizon=horizon,
    )


MAX_ATOMS = 100_000  # a grid has fewer atoms: the engine's alarm bound is proven for those


class GridTooLarge(ValueError):
    """A grid of MAX_ATOMS atoms or more; ``field`` names the argument at fault."""

    def __init__(self, field: str, n_atoms: float):
        super().__init__(
            f"the grid would have {n_atoms:.6g} atoms; at most {MAX_ATOMS - 1} are allowed"
        )
        self.field = field


@dataclass(frozen=True)
class MixingGrid:
    """Discrete mixing measure: parameter atoms with positive weights.

    ``atoms`` has shape (n_atoms, dim); ``log_weights`` has shape (n_atoms,)
    with exp summing to one.
    """

    atoms: np.ndarray
    log_weights: np.ndarray

    def __post_init__(self):
        atoms = np.atleast_2d(np.asarray(self.atoms, dtype=float))
        logw = np.asarray(self.log_weights, dtype=float)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "log_weights", logw)
        if atoms.shape[0] != logw.shape[0]:
            raise ValueError("atoms and log_weights must have matching length")
        if not np.all(np.isfinite(logw)):
            raise ValueError("all mixing weights must be strictly positive")
        total = np.exp(logw).sum()
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"mixing weights must sum to 1, got {total!r}")
        seen = {tuple(row) for row in atoms}
        if len(seen) != atoms.shape[0]:
            raise ValueError("mixing atoms must be pairwise distinct")
        if atoms.shape[0] >= MAX_ATOMS:
            raise GridTooLarge("atoms", atoms.shape[0])
        atoms.setflags(write=False)
        logw.setflags(write=False)

    @property
    def size(self) -> int:
        return self.atoms.shape[0]

    @property
    def dimension(self) -> int:
        return self.atoms.shape[1]

    def theta_vector(self, theta) -> np.ndarray:
        """The parameter vector for an atom index or an explicit vector.

        An index must lie in [0, size): negative ones do not count from the
        end, and booleans are not indexes.  A vector needs ``dimension``
        finite entries; off-grid vectors are allowed.
        """
        if isinstance(theta, (bool, np.bool_)):
            raise ValueError("expected an atom index or a vector, not a boolean")
        if isinstance(theta, (int, np.integer)):
            if not 0 <= theta < self.size:
                raise ValueError(f"atom index out of range: {theta} is not in [0, {self.size})")
            return self.atoms[int(theta)]
        vec = np.atleast_1d(np.asarray(theta, dtype=float))
        if vec.shape != (self.dimension,):
            raise ValueError(f"expected {self.dimension} components, got shape {vec.shape}")
        if not np.isfinite(vec).all():
            raise ValueError("expected finite components")
        return vec

    def sample_index(self, rng: np.random.Generator) -> int:
        """Draw an atom index according to the weights (one uniform)."""
        return int(self.inverse_cdf(np.array([rng.random()]))[0])

    def inverse_cdf(self, u) -> np.ndarray:
        """The atom index for each uniform in ``u``."""
        csum = np.cumsum(np.exp(self.log_weights))
        return np.searchsorted(csum, u, side="right").clip(0, self.size - 1)


def grid_from_atoms(atoms, weights=None) -> MixingGrid:
    """Build a grid from explicit atoms; equal weights when none are given."""
    atoms = np.atleast_2d(np.asarray(atoms, dtype=float))
    if atoms.ndim != 2:
        raise ValueError("atoms must be a (n_atoms, dim) array")
    n = atoms.shape[0]
    if weights is None:
        logw = np.full(n, -math.log(n))
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (n,):
            raise ValueError("weights must match the number of atoms")
        if np.any(w <= 0.0):
            raise ValueError("all mixing weights must be strictly positive")
        logw = np.log(w)
    return MixingGrid(atoms=atoms, log_weights=logw)


def uniform_grid(lower, upper, counts) -> MixingGrid:
    """Tensor-product grid with equal weights.

    Each axis i carries ``counts[i]`` equally spaced points from lower[i] to
    upper[i] inclusive; a count of 1 collapses the axis to lower[i] (and then
    lower[i] == upper[i] is allowed).  The counts' product must be below
    MAX_ATOMS.
    """
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    counts = np.atleast_1d(np.asarray(counts, dtype=float))
    if not (lower.shape == upper.shape == counts.shape):
        raise ValueError("lower, upper, counts must have the same dimension")
    if not np.all(np.isfinite(counts) & (counts == np.round(counts))):
        raise ValueError("counts must be whole numbers")
    if np.any(counts < 1):
        raise ValueError("counts must be >= 1")
    for lo, hi, c in zip(lower, upper, counts):
        if c > 1 and not lo < hi:
            raise ValueError("lower must be < upper on axes with count > 1")
        if c == 1 and lo > hi:
            raise ValueError("lower must be <= upper")
    if np.prod(counts) >= MAX_ATOMS:  # before a count could overflow an int
        raise GridTooLarge("counts", np.prod(counts))
    axes = [np.linspace(lo, hi, int(c)) for lo, hi, c in zip(lower, upper, counts)]
    atoms = np.array(list(itertools.product(*axes)), dtype=float)
    return grid_from_atoms(atoms)
