"""Surface codes from combinatorial surfaces with open and closed boundaries.

The package models cellulations of compact surfaces whose boundary edges are
typed open or closed, computes their relative F2 homology and CSS code
parameters (n, k, certified d), constructs the boundary-type-swapping dual,
and generates the planar hole architectures whose overhead n/(k d^2)
approaches 1.

Each layer module's ``__all__`` is where its public names are declared; the
package re-exports every one of them, and its own ``__all__`` is theirs in
layer order, after ``__version__``.
"""

from . import arch, code, dual, errors, f2, homology, surface, svg
from .arch import *
from .code import *
from .dual import *
from .errors import *
from .f2 import *
from .homology import *
from .surface import *
from .svg import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += surface.__all__
__all__ += f2.__all__
__all__ += homology.__all__
__all__ += dual.__all__
__all__ += code.__all__
__all__ += arch.__all__
__all__ += svg.__all__
__all__ += errors.__all__
