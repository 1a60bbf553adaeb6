"""Lagrangian-path laboratory for inviscid fluid models.

Self-contained particle dynamics for five incompressible models (2D Euler,
SQG, IPM, 2D Boussinesq, 3D Euler), an exact rational verification layer for
the combinatorial identities behind time-analyticity of the paths, a closed
symbolic algebra for the singular kernels and their derivatives, and a
high-order Taylor time stepper with radius-of-analyticity estimation.

Importing the package loads none of its modules; import the ones you use
(``from lagpaths import dynamics``), so that a command loads only what it
runs.
"""

__version__ = "0.1.0"
