"""Spectral laboratory for an integrable shifted-Lax PDE on the circle.

The package revolves around Hardy-space coefficient vectors
(:class:`~cslab.hardy.HardyCoeffs`): ``lax`` builds and diagonalizes the
Lax operator and checks its exact identities, ``waves`` carries the
closed-form traveling-wave families, ``finitegap`` handles rational
potentials (residue conditions, classification, spectral inversion),
``evolve`` integrates the flow and the Lax eigenbasis along it, and
``fixtures``/``verify`` hold the worked examples and the acceptance
criteria.  The ``cslab`` console script fronts all of it.

The public API is the union of the modules' ``__all__`` lists, in the
order of ``_MODULES``; this file names no function or class itself.
"""
import importlib

from .errors import *
from .hardy import *
from .lax import *
from .waves import *
from .finitegap import *
from .evolve import *
from .fixtures import *
from .verify import *

__version__ = "0.1.0"

_MODULES = ("errors", "hardy", "lax", "waves", "finitegap", "evolve",
            "fixtures", "verify")

# import_module, not ``from . import evolve``: after the star imports
# ``cslab.evolve`` is the function, which a re-import would pick up; and
# __package__, since this file can be imported under its own name.
__all__ = [name for m in _MODULES
           for name in importlib.import_module(f".{m}", __package__).__all__]
