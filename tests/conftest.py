"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

from ogkernel.kernel import TraceNode


def _rejudge(thm, path: tuple[int, ...], judgment) -> None:
    """Give `thm` a trace whose node at `path` (child positions from the root)
    records `judgment`: that node and every node above it are rebuilt, and the
    new root is installed in the theorem behind the kernel's back."""

    def rebuilt(node: TraceNode, path: tuple[int, ...]) -> TraceNode:
        if not path:
            return TraceNode(node.kind, node.label, judgment, node.children, node.payload)
        i, *rest = path
        children = (*node.children[:i], rebuilt(node.children[i], rest), *node.children[i + 1 :])
        return TraceNode(node.kind, node.label, node.judgment, children, node.payload)

    thm._node = rebuilt(thm.node, path)


@pytest.fixture
def rejudge():
    """`rejudge(thm, path, judgment)`: tamper with one recorded judgment of a
    theorem's trace; trace nodes are tuples, so the path to it is rebuilt."""
    return _rejudge
