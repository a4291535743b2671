"""Data-driven modal decomposition with certified residuals.

Snapshot matrices go in; Ritz pairs, refined vectors, and data-driven
residual certificates come out.  The pipelines never form or require the
underlying operator; the verify module builds synthetic operators with
known spectra to audit everything end to end.

The package re-exports exactly the names each module lists in its own
``__all__``; a name is made public there and nowhere else.
"""

from .errors import *
from .matrixio import *
from .snapshots import *
from .inner import *
from .pod import *
from .ritz import *
from .variants import *
from .weighted import *
from .verify import *
from . import errors, matrixio, snapshots, inner, pod, ritz, variants, weighted, verify

__version__ = "0.1.0"

__all__ = [name for module in (errors, matrixio, snapshots, inner, pod, ritz, variants, weighted, verify)
           for name in module.__all__]
