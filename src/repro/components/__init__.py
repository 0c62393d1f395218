"""Subject components, all self-testable (t-spec embedded, BIT inherited).

Importing this package attaches each component's embedded t-spec as its
``__tspec__`` attribute (see :mod:`repro.components.specs`) and then
*discovers* the component classes (:mod:`repro.components.catalog`) —
``COMPONENTS`` and the component names in ``__all__`` are derived from the
scan, never hand-maintained, so the scenario registry's builtin entries
can be tested to cover exactly this set.

The submodules are compiled with loop budgets (:mod:`repro.core.budget`),
so the mutation sandbox bounds their loops without a tracer.
"""

from ..core.budget import install_budgeted_package

install_budgeted_package(__path__)

from .product import DATABASE, ProductDatabase, reset_database  # noqa: E402
from . import specs  # noqa: F401  (side effect: attach __tspec__)
from .warehouse import WAREHOUSE_ASSEMBLY, WAREHOUSE_ROLES, build_warehouse_assembly
from .specs import (
    ACCOUNT_SPEC,
    OBLIST_SPEC,
    OBLIST_TYPE_MODEL,
    PRODUCT_SPEC,
    PROVIDER_SPEC,
    SORTABLE_OBLIST_SPEC,
    STACK_SPEC,
)
from .catalog import (
    component_by_name,
    discover_components,
    setup_for,
    type_model_for,
)

#: name → class for every self-testable component in this package,
#: discovered by scanning the package modules (sorted by name).
COMPONENTS = discover_components()

# The discovered components become module attributes and exports — the
# classic `from repro.components import BoundedStack` keeps working, but
# the list can no longer drift from what the modules actually define.
globals().update(COMPONENTS)

_STATIC_EXPORTS = [
    "ACCOUNT_SPEC",
    "COMPONENTS",
    "DATABASE",
    "OBLIST_SPEC",
    "OBLIST_TYPE_MODEL",
    "PRODUCT_SPEC",
    "PROVIDER_SPEC",
    "ProductDatabase",
    "SORTABLE_OBLIST_SPEC",
    "STACK_SPEC",
    "WAREHOUSE_ASSEMBLY",
    "WAREHOUSE_ROLES",
    "build_warehouse_assembly",
    "component_by_name",
    "discover_components",
    "reset_database",
    "setup_for",
    "type_model_for",
]

__all__ = sorted(_STATIC_EXPORTS + list(COMPONENTS))
