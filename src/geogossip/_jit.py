"""JIT plumbing: numba acceleration with an interpreted fallback.

Set the environment variable ``GEOGOSSIP_DISABLE_NUMBA=1`` before import to
skip compilation entirely and run the same kernel bodies as plain Python on
numpy arrays.  The hier and boyd tick kernels read pre-drawn rows of uniforms
and take no generator; the geo kernel still draws from a
``numpy.random.Generator``, whose bit stream is identical compiled or not.
Results therefore do not depend on which path is active.
"""

import os

NUMBA_DISABLED = os.environ.get("GEOGOSSIP_DISABLE_NUMBA", "0") not in ("", "0")

if not NUMBA_DISABLED:
    try:
        from numba import njit as _njit
    except ImportError:  # numba is the optional `jit` extra
        NUMBA_DISABLED = True

if NUMBA_DISABLED:
    def maybe_njit(*args, **kwargs):
        """Identity decorator standing in for numba.njit."""
        def wrap(func):
            func.py_func = func
            return func
        if len(args) == 1 and callable(args[0]) and not kwargs:
            return wrap(args[0])
        return wrap
else:
    def maybe_njit(*args, **kwargs):
        """numba.njit with caching disabled (the geo kernel takes a
        Generator argument)."""
        if len(args) == 1 and callable(args[0]) and not kwargs:
            return _njit(args[0])
        return _njit(*args, **kwargs)
