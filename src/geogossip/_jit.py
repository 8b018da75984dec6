"""Backend marker kept for the benchmark harness.

Every kernel is plain Python over numpy; there is no compiled backend.
`perfbench/run.py` (its run manifest) and `perfbench/workloads.py`
(`warm_jit`) still import this constant.  The benchmark-only change that
drops those two readers (ROADMAP item 4) deletes this module.
"""

NUMBA_DISABLED = True
