"""Project-invariant registries consumed by the lint rules.

These are the *whole-project* facts that do not fit in per-line comment
markers: which API boundaries must hand out read-only arrays, which
attribute names are frozen by construction, and what counts as a lock
constructor.  Editing this file is how an invariant is added, widened, or
retired — the rules themselves stay generic.
"""

from __future__ import annotations

# -- read-only hand-out contract (REP103) ------------------------------------

#: Functions whose returned arrays cross an API boundary and must be
#: frozen (``writeable=False``) before hand-out.  Keyed by
#: (path suffix, dotted qualname); the rule requires each to contain at
#: least one freeze operation (``setflags(write=False)``,
#: ``x.flags.writeable = False``, or a call to a FREEZER_HELPERS member)
#: and flags registry drift when the function disappears.
HANDOUT_FUNCTIONS = {
    ("repro/graph/csr.py", "CSRGraph.__post_init__"),
    ("repro/graph/csr.py", "CSRGraph.to_scipy"),
    ("repro/featurestore/storage.py", "open_feature_layout"),
    ("repro/featurestore/store.py", "FeatureStore.gather"),
    ("repro/featurestore/store.py", "FeatureStore.matrix"),
    ("repro/featurestore/hotset.py", "HotSetCache.gather"),
}

#: Helper names whose invocation counts as freeze evidence inside a
#: registered hand-out function.
FREEZER_HELPERS = {
    "_frozen_rows",
    "_frozen_view",
    "_freeze",
}

#: Attribute names that are frozen at construction (graph/csr.py seals
#: them in ``__post_init__``).  In-place stores through these attributes
#: anywhere in the tree are REP103 violations.
FROZEN_ATTRS = {
    "indptr",
    "indices",
    "edge_ids",
}

# -- lock constructors (REP101/REP102) ---------------------------------------

#: Call names that create a mutex / condition.  ``threading.Lock()`` et
#: al. are recognized structurally; these cover the sanitizer factories.
LOCK_FACTORY_NAMES = {
    "make_lock",
    "make_condition",
}

THREADING_LOCK_CTORS = {
    "Lock",
    "RLock",
    "Condition",
}
