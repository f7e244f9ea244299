"""Fidelity estimators and benchmarking fits.

Three independent estimates of circuit fidelity are supported: linear
cross-entropy from samples against exact output probabilities, return
probability of mirrored circuits, and a gate-counting prediction built from
component benchmarks.  A logistic fit backs out how a component error rate
grows with register size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError


@dataclass
class XebResult:
    value: float
    n_samples: int
    rescaled: np.ndarray  # 2^n * P(x_j) per sample


def _outcomes(samples, size: int) -> np.ndarray:
    """samples as an array of outcome indices, each in [0, size)."""
    x = np.asarray(samples)
    if x.size == 0:
        raise ValueError("need at least one sample")
    if x.dtype.kind not in "iu" or x.min() < 0 or x.max() >= size:
        raise ValueError(f"samples must be integer outcome indices in [0, {size})")
    return x


def xeb(samples, probs) -> XebResult:
    """Linear cross-entropy fidelity estimate: the mean of 2^n P(x_j), minus one.

    samples are the outcome indices x_j; probs, indexed by outcome, is the
    ideal output distribution, of length 2^n.
    """
    probs = np.asarray(probs, dtype=float)
    n = probs.size.bit_length() - 1
    if probs.ndim != 1 or probs.size != 2 ** n:
        raise ValueError(f"probs must have length 2^n, got {probs.size}")
    x = _outcomes(samples, probs.size)
    rescaled = 2 ** n * probs[x]
    return XebResult(float(rescaled.mean() - 1.0), x.size, rescaled)


def mb_hits(samples, initial_bits: str) -> np.ndarray:
    """Per-shot mirror return indicator, whose mean is the return probability.

    A shot scores 1.0 where its outcome index is int(initial_bits, 2).
    """
    x = _outcomes(samples, 2 ** len(initial_bits))
    return (x == int(initial_bits, 2)).astype(float)


@dataclass(frozen=True)
class GateCountParams:
    """Component benchmarks feeding the gate-counting fidelity model.

    delta is the depth shift applied only when comparing against estimators
    that lack boundary layers' worth of noise.
    """

    eps_2q: float
    p_spam: float
    eps_mem: float = 0.0
    delta: float = 1.12

    def __post_init__(self):
        for name in ("eps_2q", "p_spam", "eps_mem"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")


# measured component benchmarks used throughout as defaults
REFERENCE_PARAMS = GateCountParams(
    eps_2q=15.7e-4,
    p_spam=14.7e-4,
    eps_mem=4.0e-4,
)


def effective_2q_infidelity(params: GateCountParams, n: int) -> float:
    """Process-level error per gate slot: (5/4) eps_2q + 2 * (3/2) eps_mem.

    The 5/4 converts average two-qubit infidelity to process infidelity;
    each gate slot carries one layer of memory error on both qubits, with
    3/2 converting the single-qubit average infidelity.  The rate is the
    same for every register size n.
    """
    return 1.25 * params.eps_2q + 3.0 * params.eps_mem


def gate_counting(params: GateCountParams, n: int, d: float,
                  apply_shift: bool = False) -> float:
    """Predicted fidelity (1 - eps(n))^{n(d - delta)/2} (1 - p_spam)^n."""
    delta = params.delta if apply_shift else 0.0
    eps = effective_2q_infidelity(params, n)
    slots = n * (d - delta) / 2.0
    if slots < 0:
        raise ValueError("depth below the comparison shift")
    return (1.0 - eps) ** slots * (1.0 - params.p_spam) ** n


def verifiable_depth(eps: float, tau_q: float, t_q: float, n: int) -> float:
    """Largest depth whose fidelity stays resolvable in quantum runtime t_q.

    Sampling time grows like tau_q * exp(eps n d), so the usable depth is
    ln(t_q / tau_q) / (eps n).  Real valued; callers floor it.
    """
    if not all(map(math.isfinite, (eps, tau_q, t_q))):
        raise ValueError("eps, tau_q, and t_q must be finite")
    if eps <= 0 or tau_q <= 0 or n <= 0:
        raise ValueError("eps, tau_q, and n must be positive")
    if t_q < tau_q:
        raise ValueError("total time budget is below the per-shot time")
    return math.log(t_q / tau_q) / (eps * n)


def fit_logistic(sizes, values) -> tuple[float, float, float]:
    """Fit values(n) = A / (1 + exp(-k (n - n0))); returns (A, n0, k)."""
    x = np.asarray(sizes, dtype=float)
    y = np.asarray(values, dtype=float)
    if x.shape != y.shape or x.size < 3:
        raise FitError("need at least three points for a logistic fit")
    if np.ptp(y) < 1e-12 * max(1.0, abs(y.mean())):
        raise FitError("constant data; logistic rate is degenerate")

    def model(n, a, n0, k):
        return a / (1.0 + np.exp(-k * (n - n0)))

    from scipy.optimize import curve_fit
    spread = max(np.ptp(x), 1.0)
    p0 = (float(y.max()) * 1.05, float(x.mean()), 4.0 / spread)
    try:
        popt, _ = curve_fit(model, x, y, p0=p0, maxfev=20000,
                            bounds=([0.0, x.min() - 2 * spread, 1e-6],
                                    [np.inf, x.max() + 2 * spread, np.inf]),
                            xtol=1e-14, ftol=1e-14, gtol=1e-14)
    except (RuntimeError, ValueError) as exc:
        raise FitError(f"logistic fit failed: {exc}") from exc
    a, n0, k = (float(v) for v in popt)
    if k < 1e-5:
        raise FitError("fitted logistic rate is degenerate")
    return a, n0, k
