"""Bootstrap confidence intervals and resampling-count distributions.

Shot-level observables arrive grouped by circuit, with the same number
of shots for every circuit.  Aggregate resampling pools every shot and
resamples the pool; double resampling first resamples circuits, then shots
within each chosen circuit, which widens the interval when the per-circuit
means genuinely differ.  Intervals are reflected percentile intervals at
one sigma.  The analytic distributions of how often a fixed shot is drawn
under each scheme are exposed for direct comparison with Monte Carlo
frequencies, and a synthetic experiment model drives coverage studies of
both interval constructions.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_SIGMA_LO = 15.865
_SIGMA_HI = 84.135

COVERAGE_CSV_HEADER = "model,mu,method,coverage,n_experiments,seed"


@dataclass(frozen=True)
class ShotTable:
    """Shot-level observable values, one row per circuit, equal shots per circuit."""

    circuits: np.ndarray  # (circuits, shots)

    def __post_init__(self):
        if len(self.circuits) == 0:
            raise ValueError("shot table has no circuits")
        rows = [np.asarray(c, dtype=float) for c in self.circuits]
        for i, arr in enumerate(rows):
            if arr.ndim != 1 or arr.size == 0:
                raise ValueError(f"circuit {i} has no shots")
            if not np.isfinite(arr).all():
                raise ValueError(f"circuit {i} contains non-finite values")
        if len({arr.size for arr in rows}) > 1:
            raise ValueError("every circuit needs the same number of shots")
        object.__setattr__(self, "circuits", np.stack(rows))

    @classmethod
    def from_matrix(cls, mat) -> "ShotTable":
        mat = np.asarray(mat, dtype=float)
        if mat.ndim != 2:
            raise ValueError("expected a circuits x shots matrix")
        return cls(mat)

    def pooled(self) -> np.ndarray:
        return self.circuits.reshape(-1)


@dataclass(frozen=True)
class BootCI:
    """Reflected one-sigma percentile interval [2f - q_hi, 2f - q_lo]."""

    estimate: float
    lo: float
    hi: float
    q_lo: float
    q_hi: float
    method: str
    r: int

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def covers(self, value: float) -> bool:
        return self.lo <= value <= self.hi


def _resample_aggregate(pooled: np.ndarray, r: int, rng) -> np.ndarray:
    m = pooled.size
    out = np.empty(r)
    chunk = max(1, int(5_000_000 // max(m, 1)))
    for start in range(0, r, chunk):
        stop = min(r, start + chunk)
        idx = rng.integers(0, m, size=(stop - start, m))
        out[start:stop] = pooled[idx].mean(axis=1)
    return out


def _resample_double(table: ShotTable, r: int, rng) -> np.ndarray:
    mat = table.circuits
    j, p = mat.shape
    out = np.empty(r)
    chunk = max(1, int(2_000_000 // max(j * p, 1)))
    for start in range(0, r, chunk):
        stop = min(r, start + chunk)
        ids = rng.integers(0, j, size=(stop - start, j))
        cols = rng.integers(0, p, size=(stop - start, j, p))
        out[start:stop] = mat[ids[:, :, None], cols].mean(axis=(1, 2))
    return out


def _percentiles(x: np.ndarray, pcts) -> list:
    """np.percentile(x, pcts) for finite x, bit for bit, by one sort.

    The same arithmetic as percentile's default linear rule, without the
    np.unique call that imports numpy.ma on first use (10-16 ms).
    """
    s = np.sort(x)
    last = s.size - 1
    out = []
    for p in pcts:
        v = last * (p / 100)  # >= 0, so int() is the floor
        # at the last index numpy's neighbours are both index -1, gamma v + 1
        lo, t = (int(v), v - int(v)) if v < last else (last, v + 1)
        a, b = s[lo], s[min(lo + 1, last)]
        d = b - a
        out.append(b - d * (1 - t) if t >= 0.5 else a + d * t)
    return out


def bootstrap_ci(table: ShotTable, method: str = "aggregate",
                 r: int = 1000, seed=0) -> BootCI:
    """Bootstrap the pooled mean of a shot table.

    Aggregate resampling treats shots as one pool; double resampling draws
    circuits with replacement and then shots within each drawn circuit.
    Each chunk of resamples is averaged in one call.  The returned interval
    reflects the raw one-sigma quantiles about the point estimate.
    """
    if method not in ("aggregate", "double"):
        raise ValueError(f"unknown method {method!r}")
    if r < 100:
        raise ValueError("need at least 100 resamples")
    pooled = table.pooled()
    rng = np.random.default_rng(seed)
    fhat = float(pooled.mean())
    if method == "aggregate":
        boots = _resample_aggregate(pooled, r, rng)
    else:
        boots = _resample_double(table, r, rng)
    q_lo, q_hi = _percentiles(boots, (_SIGMA_LO, _SIGMA_HI))
    return BootCI(estimate=fhat, lo=2.0 * fhat - q_hi, hi=2.0 * fhat - q_lo,
                  q_lo=float(q_lo), q_hi=float(q_hi), method=method, r=r)


def p_aggregate(k: int, n_s: int) -> float:
    """Probability a fixed shot appears k times in a pooled resample of n_s."""
    if n_s < 1:
        raise ValueError("need at least one shot")
    if not 0 <= k <= n_s:
        raise ValueError(f"count {k} outside [0, {n_s}]")
    from scipy import stats as sps
    return float(sps.binom.pmf(k, n_s, 1.0 / n_s))


def p_double(k: int, n_jobs: int, n_per: int) -> float:
    """Probability a fixed shot appears k times under double resampling.

    Conditioned on the shot's parent circuit being drawn j times in the
    outer stage, the shot is then drawn binomially over j * n_per tries at
    rate 1 / n_per; the per-copy counts convolve into a single binomial for
    each j, so the sum over per-copy partitions collapses to a mixture of
    binomials weighted by the outer draw distribution.
    """
    if n_jobs < 1 or n_per < 1:
        raise ValueError("need at least one circuit and one shot")
    if not 0 <= k <= n_jobs * n_per:
        raise ValueError(f"count {k} outside [0, {n_jobs * n_per}]")
    from scipy import stats as sps
    j = np.arange(n_jobs + 1)
    outer = sps.binom.pmf(j, n_jobs, 1.0 / n_jobs)
    inner = sps.binom.pmf(k, j * n_per, 1.0 / n_per)
    return float(np.sum(outer * inner))


@dataclass(frozen=True)
class ExperimentModel:
    """Synthetic per-circuit fidelities and shot-level observables.

    Each circuit draws an error rate from a normal with relative spread mu
    about base_eps, mapped to a fidelity (1 - eps)^n_gates with eps clipped
    to [0, 1].  Shot values then come from the observable: "xeb" mixes a
    size-biased exponential (mean 1, for the faithful fraction) with a
    plain exponential (mean 0 after the shift), "mb" is a Bernoulli hit
    indicator.  Either way a shot's conditional mean equals the fidelity.
    """

    mu: float
    base_eps: float
    n_gates: int
    observable: str = "xeb"

    def __post_init__(self):
        if not (np.isfinite(self.mu) and self.mu >= 0.0):
            raise ValueError("mu must be finite and nonnegative")
        if not 0.0 <= self.base_eps <= 1.0:
            raise ValueError("base_eps must lie in [0, 1]")
        if self.n_gates < 0:
            raise ValueError("n_gates must be nonnegative")
        if self.observable not in ("xeb", "mb"):
            raise ValueError(f"unknown observable {self.observable!r}")

    def fidelity(self, eps) -> np.ndarray:
        return (1.0 - np.clip(eps, 0.0, 1.0)) ** self.n_gates

    def draw_fidelities(self, rng, size: int) -> np.ndarray:
        if self.mu == 0.0:
            return np.full(size, float(self.fidelity(self.base_eps)))
        eps = rng.normal(self.base_eps, self.mu * self.base_eps, size=size)
        return self.fidelity(eps)

    def draw_shots(self, rng, f: float, shots: int) -> np.ndarray:
        if self.observable == "mb":
            return (rng.random(shots) < f).astype(float)
        faithful = rng.random(shots) < f
        vals = np.where(faithful, rng.gamma(2.0, 1.0, size=shots),
                        rng.exponential(1.0, size=shots))
        return vals - 1.0

    def grand_mean(self) -> float:
        """Population mean of the observable, by quadrature over eps."""
        if self.mu == 0.0 or self.base_eps == 0.0:
            return float(self.fidelity(self.base_eps))
        from scipy import stats as sps
        from scipy.integrate import quad
        sigma = self.mu * self.base_eps
        below = sps.norm.cdf(-self.base_eps / sigma)  # clipped to eps = 0, F = 1
        hi = min(1.0, self.base_eps + 12.0 * sigma)
        body, _ = quad(
            lambda e: sps.norm.pdf(e, self.base_eps, sigma) * (1.0 - e) ** self.n_gates,
            0.0, hi, limit=200)
        return float(below + body)


@dataclass(frozen=True)
class CoverageResult:
    observable: str
    mu: float
    aggregate: float
    double: float
    n_experiments: int
    seed: int | None

    def csv_rows(self) -> list[str]:
        seed = "" if self.seed is None else str(self.seed)
        return [
            f"{self.observable},{self.mu!r},aggregate,{self.aggregate!r},"
            f"{self.n_experiments},{seed}",
            f"{self.observable},{self.mu!r},double,{self.double!r},"
            f"{self.n_experiments},{seed}",
        ]


def coverage(model: ExperimentModel, n_experiments: int, circuits: int = 50,
             shots: int = 20, r: int = 300, seed=0) -> CoverageResult:
    """Fraction of simulated experiments whose CI contains the model mean."""
    if n_experiments < 1 or circuits < 1 or shots < 1:
        raise ValueError("sizes must be positive")
    truth = model.grand_mean()
    rng = np.random.default_rng(seed)
    hits = {"aggregate": 0, "double": 0}
    for _ in range(n_experiments):
        fs = model.draw_fidelities(rng, circuits)
        table = ShotTable(tuple(model.draw_shots(rng, f, shots) for f in fs))
        for method in ("aggregate", "double"):
            ci = bootstrap_ci(table, method=method, r=r,
                              seed=int(rng.integers(2 ** 32)))
            if ci.covers(truth):
                hits[method] += 1
    return CoverageResult(
        observable=model.observable, mu=model.mu,
        aggregate=hits["aggregate"] / n_experiments,
        double=hits["double"] / n_experiments,
        n_experiments=n_experiments,
        seed=seed if isinstance(seed, int) else None)
