"""SDE coefficient bundles dX = b(X) dt + sigma(X) dW and reference models.

All evaluators are pure functions accepting scalars or numpy arrays
elementwise.  The scalar setting d = m = 1 is assumed throughout.

``ou_model`` and ``sine_model`` also carry a fused Euler step (see
:class:`EulerStep`), which computes x + b(x) dt + sigma(x) dW in place, bit
for bit as the generic step of :func:`schemes.euler_scan` does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidArgumentError

__all__ = [
    "SdeModel",
    "EulerStep",
    "OuMoments",
    "ou_model",
    "sine_model",
    "constant_model",
    "ou_exact_moments",
]

Evaluator = Callable[[np.ndarray], np.ndarray]
# step(x, dt, dw, out): out = x + b(x) dt + sigma(x) dw(), where dw() returns
# the increment row; out may be x itself
StepFn = Callable[[np.ndarray, float, Callable[[], np.ndarray], np.ndarray], None]


@dataclass(frozen=True)
class EulerStep:
    """An in-place Euler step fused for the evaluators ``b`` and ``sigma``.

    ``make(m)`` allocates the step's (m,) buffers and returns a
    :data:`StepFn` for rows of m values.  The step keeps the generic step's
    order of operations, (x + b(x) dt) + sigma(x) dW with the increment row
    fetched after the coefficients, so its output is bitwise that of the
    generic step.  ``euler_scan`` runs it only while the model's ``b`` and
    ``sigma`` are these very objects, so a model whose coefficients were
    replaced (``dataclasses.replace``) takes the generic step.
    """

    b: Evaluator
    sigma: Evaluator
    make: Callable[[int], StepFn]


@dataclass(frozen=True)
class SdeModel:
    """Drift, diffusion and their first derivatives.

    Constructing the dataclass directly performs no validation, which the
    tests use for deliberately degenerate dynamics (b = sigma = 0 and the
    like).
    """

    b: Evaluator
    sigma: Evaluator
    db: Evaluator
    dsigma: Evaluator
    xi0: float
    name: str = "custom"
    constant_sigma: bool = False  # lets harnesses skip vanishing terms
    params: dict = field(default_factory=dict)  # constructor parameters, for closed forms
    euler_step: EulerStep | None = None  # a fused step for b and sigma; None: the generic one


def ou_model(theta: float, sigma: float, xi0: float) -> SdeModel:
    """Ornstein-Uhlenbeck: b(x) = -theta x, constant diffusion.

    Linear drift has bounded derivatives and a constant sigma > 0 is
    uniformly nondegenerate, so every smoothness and nondegeneracy
    requirement holds with c = sigma.
    """
    if not theta > 0 or not sigma > 0:
        raise InvalidArgumentError(f"need theta > 0 and sigma > 0, got {theta!r}, {sigma!r}")
    th, sg = float(theta), float(sigma)

    def b(x):
        return -th * x

    def diffusion(x):
        return sg + 0.0 * x

    def make(m: int) -> StepFn:
        buf = np.empty(m)

        def step(x, dt, dw, out):
            np.multiply(x, -th, out=buf)
            np.multiply(buf, dt, out=buf)
            np.add(x, buf, out=out)
            # sigma(x) is sg at every finite x; at a non-finite x the sum is
            # NaN already, as the generic step's sigma(x) = NaN makes it
            np.multiply(dw(), sg, out=buf)
            np.add(out, buf, out=out)

        return step

    return SdeModel(
        b=b,
        sigma=diffusion,
        db=lambda x: -th + 0.0 * x,
        dsigma=lambda x: 0.0 * x,
        xi0=float(xi0),
        name="ou",
        constant_sigma=True,
        params={"theta": th, "sigma": sg, "xi0": float(xi0)},
        euler_step=EulerStep(b, diffusion, make),
    )


def sine_model(a: float, c: float, xi0: float) -> SdeModel:
    """Bounded nonlinear test bed: b(x) = -sin x, sigma(x) = c + a sin x.

    Requires c > |a| > 0 so that sigma stays in [c - |a|, c + |a|] away
    from zero.
    """
    if not abs(a) > 0 or not c > abs(a):
        raise InvalidArgumentError(f"need c > |a| > 0, got a={a!r}, c={c!r}")
    af, cf = float(a), float(c)

    def b(x):
        return -np.sin(x)

    def sigma(x):
        return cf + af * np.sin(x)

    def make(m: int) -> StepFn:
        s, drift = np.empty(m), np.empty(m)

        def step(x, dt, dw, out):
            np.sin(x, out=s)  # once for both coefficients
            np.multiply(s, -dt, out=drift)  # s (-dt) is (-s) dt bit for bit
            np.add(x, drift, out=out)
            np.multiply(s, af, out=s)
            np.add(s, cf, out=s)
            np.multiply(s, dw(), out=s)
            np.add(out, s, out=out)

        return step

    return SdeModel(
        b=b,
        sigma=sigma,
        db=lambda x: -np.cos(x),
        dsigma=lambda x: af * np.cos(x),
        xi0=float(xi0),
        name="sine",
        params={"a": af, "c": cf, "xi0": float(xi0)},
        euler_step=EulerStep(b, sigma, make),
    )


def constant_model(drift: float, diffusion: float, xi0: float) -> SdeModel:
    """Constant coefficients; requires |diffusion| > 0 for nondegeneracy.

    No fused step: one would turn the generic step's NaN at x = +-inf into
    +-inf.
    """
    if not abs(diffusion) > 0:
        raise InvalidArgumentError("constant diffusion must be nonzero")
    bf, sf = float(drift), float(diffusion)
    return SdeModel(
        b=lambda x: bf + 0.0 * x,
        sigma=lambda x: sf + 0.0 * x,
        db=lambda x: 0.0 * x,
        dsigma=lambda x: 0.0 * x,
        xi0=float(xi0),
        name="constant",
        constant_sigma=True,
        params={"drift": bf, "diffusion": sf, "xi0": float(xi0)},
    )


@dataclass(frozen=True)
class OuMoments:
    mean1: float
    mean2: float
    cov: float


def ou_exact_moments(
    theta: float, sigma: float, xi0: float, t1: float, t2: float
) -> OuMoments:
    """Closed-form OU statistics for a deterministic start:

        E X(t)          = xi0 exp(-theta t)
        Cov(X(t1),X(t2)) = sigma^2/(2 theta) exp(-theta (t2-t1)) (1 - exp(-2 theta t1))

    for 0 <= t1 <= t2.
    """
    if not theta > 0 or not sigma > 0:
        raise InvalidArgumentError("need theta > 0 and sigma > 0")
    if t1 < 0 or t1 > t2:
        raise InvalidArgumentError(f"need 0 <= t1 <= t2, got {t1!r}, {t2!r}")
    mean1 = xi0 * np.exp(-theta * t1)
    mean2 = xi0 * np.exp(-theta * t2)
    cov = sigma**2 / (2 * theta) * np.exp(-theta * (t2 - t1)) * (1 - np.exp(-2 * theta * t1))
    return OuMoments(float(mean1), float(mean2), float(cov))
