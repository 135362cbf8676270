"""vertexcuts: succinct data structures for global vertex-cut queries.

Given an undirected graph G and a parameter f, the structures here answer
"is F a vertex cut of G?" for any F with |F| <= f:

- :mod:`vertexcuts.graph` -- graph type, brute-force ground truth, sparse
  certificates, terminal-expander verification.
- :mod:`vertexcuts.connectivity` -- f-failure connectivity oracle; queries
  only read it, so structures may be queried from several threads.
- :mod:`vertexcuts.detectors` -- the specialized terminal cut detectors.
- :mod:`vertexcuts.decomposition` -- left/right splitting, the LR tree, and
  the cut-respecting terminal-expander decomposition.
- :mod:`vertexcuts.oracle` -- the assembled vertex cut oracle (general,
  f-connected, and hit-miss variants).
- :mod:`vertexcuts.labels` -- the vertex cut labeling scheme.
- :mod:`vertexcuts.generators` -- seeded graph generators, including the
  space-lower-bound families and the OV/OuMv reduction graphs.
"""

from .graph import (Graph, component_labels, components, is_cut_bruteforce,
                    is_f_connected, is_terminal_expander, min_vertex_cut_size,
                    separates_terminals, sparsify)
from .connectivity import FailureConnectivityOracle, build_conn_oracle
from .oracle import OracleMode, VertexCutOracle, build_oracle

__all__ = [
    "Graph", "component_labels", "components", "is_cut_bruteforce",
    "is_f_connected", "is_terminal_expander", "min_vertex_cut_size",
    "separates_terminals", "sparsify",
    "FailureConnectivityOracle", "build_conn_oracle",
    "OracleMode", "VertexCutOracle", "build_oracle",
]

__version__ = "0.1.0"
