"""Combinatorial computation of the Lusztig-Vogan bijection for GL_n.

The forward map is available in two equivalent forms (integer sequences and
weight diagrams), the inverse works clump by clump on dominant weights, and
the oracle module verifies minimality, uniqueness, and the round trips by
brute force at desk scale.  The public surface is `lvbij.__all__`, the
modules' own `__all__` lists in the order below.
"""

from . import core, diagram_algorithm, diagrams, inverse_algorithm, oracle, seq_algorithm
from .core import *
from .diagrams import *
from .seq_algorithm import *
from .diagram_algorithm import *
from .inverse_algorithm import *
from .oracle import *

__all__ = [*core.__all__, *diagrams.__all__, *seq_algorithm.__all__,
           *diagram_algorithm.__all__, *inverse_algorithm.__all__, *oracle.__all__]

__version__ = "0.1.0"
