"""Exact upper bounds for finite subgroups of GL_n and PGL_n over number
fields, plus a verifiable ledger that composes them into the order bound
24 103 053 950 976 000 for birational automorphism groups of rational
threefolds over Q.

Each submodule declares its public names in its own __all__; the package
republishes them, and the submodules are public too.
"""

from .exactnum import *
from .totient import *
from .cyclotomic import *
from .bounds import *
from .diophantine import *
from .ledger import *

# Importing a submodule also binds its name here.
_SUBMODULES = (exactnum, totient, cyclotomic, bounds, diophantine, ledger)
__all__ = ([module.__name__.rpartition(".")[2] for module in _SUBMODULES]
           + [name for module in _SUBMODULES for name in module.__all__])
__version__ = "0.1.0"
