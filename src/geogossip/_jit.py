"""JIT plumbing: numba acceleration with an interpreted fallback.

Set the environment variable ``GEOGOSSIP_DISABLE_NUMBA=1`` before import to
skip compilation entirely and run the same kernel bodies as plain Python on
numpy arrays.  The tick kernels take no random generator: they read rows of
uniforms drawn beforehand, so both paths see the same inputs and results do
not depend on which path is active.
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
        """numba.njit with its default options (no compile cache)."""
        if len(args) == 1 and callable(args[0]) and not kwargs:
            return _njit(args[0])
        return _njit(*args, **kwargs)
