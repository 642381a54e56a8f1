"""Step 2: propagation within the view object.

Section 5.3 decomposes each island relation's key into the part
inherited from its parent and the complement ``A_j``; only the
complement is accessible at the child's level, and "a change to A_j has
to be propagated down to R_j's children in the dependency island".

We implement propagation uniformly for every single-connection tree
edge: in a replacement's *new* instance, each child tuple's connecting
attributes are rewritten to match its parent tuple's (new) connecting
values. For island children that is exactly the inherited-key
propagation; for peninsulas it rewrites the system-maintained foreign
key; for referenced relations it keeps the child aligned with the
parent's (possibly updated) reference attributes. Composite
multi-connection edges (Figure 3) cannot be propagated at the instance
level — the intermediate relations are not part of the object — and are
reconciled during global validation instead.

The rule itself is :meth:`CompiledNode.inherit
<repro.core.updates.compiled.CompiledNode.inherit>`, applied by VO-R
while it aligns old and new; :func:`propagate_within_object` applies it
to a whole instance on its own. It returns a rewritten instance (tuples
that already agree are shared, not copied); the caller's original is
left untouched.
"""

from __future__ import annotations

from repro.core.dependency_island import analyze_island
from repro.core.instance import Instance
from repro.core.view_object import ViewObjectDefinition

__all__ = ["propagate_within_object"]


def propagate_within_object(
    view_object: ViewObjectDefinition, new_instance: Instance
) -> Instance:
    """Rewrite connecting attributes downward; return a new Instance."""
    from repro.core.updates.compiled import CompiledProgram

    program = CompiledProgram(view_object, analyze_island(view_object))
    return Instance(
        view_object, program.propagated(program.root, new_instance.root)
    )
