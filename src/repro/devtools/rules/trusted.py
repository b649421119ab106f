"""R3 ``trusted-constructor``: ``Trace._trusted`` is not a public door.

``Trace._trusted`` (PR 1) skips the validating constructor — no dtype
coercion, no sortedness check, no length cross-check — and exists only
so *invariant-preserving* transforms (a transform whose output provably
satisfies the Trace invariants because its input did) avoid re-paying
validation on hot paths.  Any other caller can materialize a Trace that
violates the invariants every downstream kernel assumes, and the
failure surfaces far from the cause (wrong features, corrupt stores).

The allowlist is explicit and short; growing it is a reviewed decision
(add the module here, in this rule), not a local convenience.  Callers
outside it must use the validating ``Trace(...)`` constructor.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.devtools.lint import FileContext, Rule, register_rule

#: Modules whose transforms provably preserve Trace invariants:
#: trace.py (the class itself + its slicing/merge helpers) and store.py
#: (zero-copy rebuilds of columns that were validated chunk-by-chunk at
#: write time).  Grow this list only with a transform whose output
#: invariants follow from its input's.
ALLOWED_MODULES = (
    "repro/traffic/trace.py",
    "repro/storage/store.py",
)


def _check(ctx: FileContext) -> Iterator[tuple[int, int, str]]:
    if ctx.in_package and ctx.rel in ALLOWED_MODULES:
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Attribute) and node.attr == "_trusted":
            yield (
                node.lineno,
                node.col_offset,
                "Trace._trusted skips invariant validation and is reserved "
                "for the allowlisted invariant-preserving modules "
                f"({', '.join(ALLOWED_MODULES)}); use the validating "
                "Trace(...) constructor here",
            )


register_rule(
    Rule(
        name="trusted-constructor",
        code="R3",
        summary="Trace._trusted only in allowlisted invariant-preserving modules",
        invariant=(
            "the unchecked fast constructor (PR 1) is confined to "
            "transforms whose outputs provably satisfy Trace invariants"
        ),
        check=_check,
    )
)
