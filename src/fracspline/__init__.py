"""Fractional-spline collocation / cubic-spline Galerkin solver for the
time-fractional diffusion equation on a space-time cylinder."""

from .bspline import DEFAULT_TAIL_TOL, FractionalBSpline

__version__ = "0.1.0"

# The kernels are plain NumPy; the name stays for callers that record it.
KERNEL_BACKEND = "numpy"

__all__ = [
    "DEFAULT_TAIL_TOL",
    "FractionalBSpline",
    "KERNEL_BACKEND",
    "__version__",
]
