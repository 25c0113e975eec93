"""Intersection curves of level-set surfaces in the first Heisenberg group.

The package computes, at desk scale, the intersection of two surfaces given
as level sets with independent horizontal normals: it builds the intrinsic
graph of one surface over a vertical subgroup, follows the characteristic
flow of the graph function, traces the zero set of the other surface along a
monotone family of characteristics, and lifts the result back to the group.
Every analytic formula involved ships with a numeric cross-check.
"""

# The public names live in each module's __all__; errors has none, so its
# exception classes come through as its public names.
from .characteristics import *
from .errors import *
from .flowtrace import *
from .hgroup import *
from .hsurface import *
from .intersect import *

__version__ = "0.1.0"
