"""Backend-selectable numeric kernels for the measurement planes.

The columnar plane reduces recoding and grouping to a handful of dense
integer-array operations (gathers, mixed-radix packing, bincounts).  This
package provides those operations behind one small interface with two
interchangeable backends:

* the **numpy backend** (:class:`~repro.kernels.columnar.NumpyKernels`) —
  vectorized gathers/``np.unique``/``bincount``; the scale path that makes
  full-lattice k-sweeps on 1M+ rows take seconds;
* the **python backend** (:class:`~repro.kernels.columnar.PythonKernels`) —
  pure-stdlib loops over ``array('q')`` codes; always available, used
  automatically when numpy is not installed.

Both backends are **bit-identical by contract**: identical group labels
(canonical sorted-rank numbering), sizes, representatives, minimums and
value counts for identical inputs — pinned by
``tests/test_kernel_equivalence.py`` and the plane-equivalence goldens.
Selection happens once at import: numpy when importable, overridable with
``REPRO_KERNELS=python`` (force the fallback) or ``REPRO_KERNELS=numpy``
(fail fast when numpy is missing).

:mod:`repro.kernels.prng` holds the counter-based RNG whose scalar and
vectorized twins produce identical streams, which is what keeps the
synthetic data generators byte-identical with and without numpy.
"""

from __future__ import annotations

import contextlib
import os
from typing import Iterator

try:  # pragma: no cover - trivially environment-dependent
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover
    HAVE_NUMPY = False

from .columnar import PythonKernels, pack_columns

_FORCED = os.environ.get("REPRO_KERNELS", "").strip().lower()
if _FORCED and _FORCED not in ("numpy", "python"):
    raise RuntimeError(
        f"REPRO_KERNELS must be 'numpy' or 'python', got {_FORCED!r}"
    )
if _FORCED == "numpy" and not HAVE_NUMPY:
    raise RuntimeError("REPRO_KERNELS=numpy but numpy is not importable")

if HAVE_NUMPY and _FORCED != "python":
    from .columnar import NumpyKernels

    _ACTIVE = NumpyKernels()
else:
    _ACTIVE = PythonKernels()


def active():
    """The process-wide kernel backend (chosen once at import)."""
    return _ACTIVE


def backend_name() -> str:
    """Name of the active backend: ``"numpy"`` or ``"python"``."""
    return _ACTIVE.name


@contextlib.contextmanager
def force_backend(name: str) -> Iterator[None]:
    """Temporarily swap the active backend (tests only).

    Production code must never call this: the backend is a process-wide
    constant so cached partitions/labels always share one representation.
    The kernel-equivalence tests use it to drive both implementations
    through the same plane surfaces.
    """
    global _ACTIVE
    if name == "numpy":
        if not HAVE_NUMPY:
            raise RuntimeError("numpy backend requested but numpy is missing")
        from .columnar import NumpyKernels

        replacement = NumpyKernels()
    elif name == "python":
        replacement = PythonKernels()
    else:
        raise ValueError(f"unknown kernel backend {name!r}")
    previous = _ACTIVE
    _ACTIVE = replacement
    try:
        yield
    finally:
        _ACTIVE = previous


__all__ = [
    "HAVE_NUMPY",
    "active",
    "backend_name",
    "force_backend",
    "pack_columns",
    "PythonKernels",
]
