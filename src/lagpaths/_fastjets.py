"""Kept only for ``perfbench/child.py env``, which reads ``HAVE_NUMBA``.

The package has one jet route, the generic one in ``taylor.time_jets_fast``;
nothing in ``lagpaths`` imports this module.  It goes once the benchmark's
environment probe stops reading it.
"""

HAVE_NUMBA = False
