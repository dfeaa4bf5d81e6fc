"""The in-order map that `analysis.sweep` runs its curves through.

Every curve runs in this process: a warm channel integration takes about
a millisecond, less than a worker pool costs to start and feed. The map
stays a module of its own only because `perfbench/` hooks
`parallel.ordered_map` and `analysis.ordered_map` by name and expects one
call per sweep. Deleting this module waits for the change that lets
`perfbench/` drop that binding (ROADMAP items 7 and 9).
"""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def ordered_map(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """fn over items, in order, in this process."""
    return [fn(item) for item in items]
