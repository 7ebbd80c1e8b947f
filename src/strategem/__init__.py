"""Strategy combinators for generic traversal of algebraic terms.

The package is layered: `effects` provides the contexts computations run
in, `terms` the universal term representation, `strategies` the two
strategy kinds and their basic combinators, `themes` the reusable
traversal schemes, `minilang` a small functional language registered for
traversal, `analyses` worked operations over it and `cli` the strategem
command.  The package namespace holds what the first four list in
`__all__`; the last three are imported as modules of their own.
"""

from . import effects, strategies, terms, themes
from .effects import *
from .strategies import *
from .terms import *
from .themes import *

__all__ = effects.__all__ + strategies.__all__ + terms.__all__ + themes.__all__
