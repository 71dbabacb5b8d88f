"""Regularized point charges on Minkowski space.

Submodules:
  minkowski       four-vectors, metric, eigentime worldline catalog
  retarded        retarded-time solver, light-cone kinematics
  regularization  Gauss panel rule, bump profile, mollifiers, Heaviside families
  fields          generating function Phi and its d'Alembertian split
  association     weak-limit pairings against test functions
  selfenergy      rest-frame self-energies, divergence bounds, renormalization
  distalg         exact rewrite algebra for 1D distributions + numeric oracle
  cli             command-line front end
"""

__version__ = "0.1.0"
