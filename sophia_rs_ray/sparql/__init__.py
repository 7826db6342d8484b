"""SPARQL-algebra subset compiled to Ray Data operator DAGs.

The reference evaluates SPARQL by recursive iterators over in-memory
index scans (``sparql/src/exec.rs:125-181``); here each algebra node
becomes a Dataset transformation (SURVEY §3.3): pattern scans are
filtered ``map_batches`` over the NT triple table, joins are hash joins
on shared-variable columns, FILTER/Extend are batch expression
evaluations, GROUP BY is a groupby shuffle, ORDER BY sorts on an
order-preserving encoded key, and property-path closure runs through
``functions.components.transitive_closure``.

Bindings table convention: one ``large_string`` column per variable
holding the canonical-NT term text; null = unbound.
"""

from .algebra import (  # noqa: F401
    BGP, Distinct, Exists, Extend, Filter, GraphPattern, Group, InlineData,
    Join, LeftJoin, Minus, OrderBy, PathPattern, Project, Slice, Union,
    evaluate,
)
from .expr import (  # noqa: F401
    Const, FnCall, Var, ebv, eval_expr_batch, value_of,
)
from .parser import (  # noqa: F401
    AskQuery, ConstructQuery, DescribeQuery, SelectQuery, SparqlParseError,
    parse_query,
)
from .run import ask, construct, describe, select, sparql  # noqa: F401
