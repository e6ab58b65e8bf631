"""Traffic-style trace calculus on tensor matrix spaces.

Linear graphs and their trace forms, the set-partition Möbius calculus that
relates elementary and injective traces, decomposition of permutation-
invariant states, exact large-N limits of Haar word tensors on cacti, and a
reproducible Monte-Carlo harness that measures the asymptotic freeness of
tensor products of Haar unitaries under non-tracial states. The `tensortraffic`
command runs each of these; the names below are the library entry points
of the README example, and the exceptions every call may raise.
"""

__version__ = "0.1.0"

from .errors import (IllConditionedError, InvalidArgumentError,
                     NumericalFailureError, ResourceLimitError,
                     TensorTrafficError)
from .graphs import LinearGraph
from .operands import TensorOperand
from .traces import graph_trace, injective_graph_trace
from .haar import haar_limit_injective
