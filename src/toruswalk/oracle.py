"""Dense small-torus oracles: brute-force references for the fast paths.

For torus sides up to 16 the full L^2-state chain fits comfortably in
memory, so occupation probabilities, resolvent values, and hitting-time
transforms can be computed by dense linear algebra with no Fourier
shortcuts.  These are the independent references the spectral engine is
tested against; they must stay free of any code shared with it.
scipy.linalg is imported inside the functions that solve, so importing
the package (and the CLI) loads no scipy.

The walk holds for an exponential time of mean one and then jumps by a
kernel draw, wrapped onto the torus.  Generator Q = P - I where P is
the one-step matrix of the wrapped kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import JumpKernel
from .torus import TorusSpec, index_of, point_of, wrap

MAX_SIDE = 16
RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class DenseChain:
    """Dense one-step matrix of a wrapped kernel on a small torus."""

    spec: TorusSpec
    kernel_label: str
    P: np.ndarray

    def __post_init__(self) -> None:
        n = self.spec.n_points
        if self.P.shape != (n, n):
            raise ValueError("one-step matrix has the wrong shape")
        rows = self.P.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > 1e-12:
            raise ValueError("one-step matrix rows must sum to one")

    @property
    def generator(self) -> np.ndarray:
        return self.P - np.eye(self.spec.n_points)


def dense_chain(kernel: JumpKernel, spec: TorusSpec) -> DenseChain:
    """Build the L^2 x L^2 one-step matrix by direct mass placement."""
    if spec.L > MAX_SIDE:
        raise ValueError(f"dense oracle is limited to side {MAX_SIDE}, got {spec.L}")
    if kernel.M > spec.L:
        raise ValueError(f"kernel range {kernel.M} exceeds torus side {spec.L}")
    n = spec.n_points
    P = np.zeros((n, n))
    all_points = point_of(np.arange(n), spec)
    for jump, mass in zip(kernel.points, kernel.masses):
        targets = index_of(wrap(all_points + jump, spec.L), spec)
        P[np.arange(n), targets] += mass
    return DenseChain(spec=spec, kernel_label=kernel.label, P=P)


def dense_heat(chain: DenseChain, t: float) -> np.ndarray:
    """Occupation probabilities from the origin at time t, length L^2.

    Matrix exponential of t * (P - I), origin row.  scipy's expm is the
    scaled-squaring Pade method.
    """
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    origin = int(index_of(np.zeros(2, dtype=np.int64), chain.spec))
    import scipy.linalg

    probs = scipy.linalg.expm(t * chain.generator)[origin]
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-9:
        raise ArithmeticError(f"dense heat row sums to {total}, not 1")
    return probs


def dense_green(chain: DenseChain, lam: float) -> np.ndarray:
    """Resolvent column g(x) = integral of exp(-lam*s) P_x(X_s = origin) ds.

    Solves (lam*I - Q) g = e_origin and verifies the residual.
    """
    if lam <= 0:
        raise ValueError(f"resolvent parameter must be positive, got {lam}")
    n = chain.spec.n_points
    origin = int(index_of(np.zeros(2, dtype=np.int64), chain.spec))
    A = lam * np.eye(n) - chain.generator
    b = np.zeros(n)
    b[origin] = 1.0
    import scipy.linalg

    g = scipy.linalg.solve(A, b)
    residual = float(np.max(np.abs(A @ g - b)))
    if residual > RESIDUAL_TOL:
        raise ArithmeticError(f"dense resolvent residual {residual} exceeds {RESIDUAL_TOL}")
    return g


def dense_laplace_hit(chain: DenseChain, lam: float) -> np.ndarray:
    """Hitting-time transform F(x) = E_x exp(-lam * H) for the origin.

    The origin is absorbing with F = 1; off the origin the one-jump
    decomposition gives (1 + lam) F(x) = sum_y P(x, y) F(y).  Solved as
    a dense linear system with a residual check.
    """
    if lam <= 0:
        raise ValueError(f"transform parameter must be positive, got {lam}")
    n = chain.spec.n_points
    origin = int(index_of(np.zeros(2, dtype=np.int64), chain.spec))
    others = np.array([i for i in range(n) if i != origin])
    A = (1.0 + lam) * np.eye(n - 1) - chain.P[np.ix_(others, others)]
    b = chain.P[others, origin].copy()
    import scipy.linalg

    f_others = scipy.linalg.solve(A, b)
    residual = float(np.max(np.abs(A @ f_others - b)))
    if residual > RESIDUAL_TOL:
        raise ArithmeticError(f"dense hitting-transform residual {residual} exceeds {RESIDUAL_TOL}")
    F = np.empty(n)
    F[origin] = 1.0
    F[others] = f_others
    if np.any(f_others <= 0.0) or np.any(f_others >= 1.0):
        raise ArithmeticError("hitting transform left (0, 1) off the origin")
    return F
