"""Sets of natural numbers recognized by finite automata over base-p digit words.

The library covers the constructive toolkit around such sets: positional
encoding, automaton normal forms, per-state length-set periodicity, uniformly
nonempty/empty interval witnesses, a complete syndeticity decision with an
explicit gap bound, and nested-interval certificates separating automata over
multiplicatively independent bases.
"""

from .automata import (
    Dfa,
    RecognizableSet,
    accepts,
    complete,
    enumerate_elements,
    equivalent,
    example1,
    member,
    minimize,
    product,
    restrict_to_canonical,
    right_dense,
    trim,
)
from .errors import (
    FiniteSetError,
    InsufficientDataError,
    PreconditionError,
    RecsetError,
    SearchCapExceededError,
    ValidationError,
)
from .fileformat import (
    document_from_set,
    dumps_automaton,
    loads_automaton,
    read_automaton,
    set_from_document,
    write_automaton,
)
from .lengths import (
    UltimatePeriod,
    cofinite_threshold,
    length_profile,
)
from .numeration import (
    KroneckerWitness,
    decode,
    encode,
    kronecker_witness,
    mult_independent,
    verify_kronecker,
)
from .witnesses import (
    Finite,
    IntervalWitness,
    NotSyndetic,
    Syndetic,
    cross_base_refute,
    empty_interval_witness,
    gap_scan,
    nonempty_interval_witness,
    syndetic_decide,
    verify_contradiction,
    verify_interval_witness,
)

__version__ = "0.1.0"
