"""Chain and Komori block algebras: structure, factorizations, checks.

The package models many-valued algebras in two regimes: finite carrier
tables checked exhaustively, and symbolic products of chain and Komori
blocks whose infinitesimal coordinates range over all integers.  On top
of the element-level operations it builds ideals and radicals, quotients
and ideal subalgebras, the perfect/semisimple factorization with its
universal properties, the classification of surjections as trivial or
central coverings, commutators of ideals with witnessing squares, term
identities, and the unit-interval construction from lattice-ordered
groups.
"""

from .core import *
from .ideals import *
from .morphisms import *
from .catalog import *
from .pretorsion import *
from .galois import *
from .galois2 import *
from .terms import *
from .mundici import *

# each module's __all__ declares its public names and the package
# republishes them; importing a submodule bound its name here
__all__ = [
    *core.__all__,
    *ideals.__all__,
    *morphisms.__all__,
    *catalog.__all__,
    *pretorsion.__all__,
    *galois.__all__,
    *galois2.__all__,
    *terms.__all__,
    *mundici.__all__,
]

__version__ = "0.1.0"
