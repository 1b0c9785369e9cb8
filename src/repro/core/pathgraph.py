"""Path graphs: the controller's cacheable routing subgraphs (Section 4.3).

A path graph bundles, for one (source switch, destination switch) pair:

* the **primary path** -- one randomized shortest path;
* **local detours** -- every switch that can replace at most ``s``
  consecutive primary hops with a detour at most ``s + ε`` long
  (Algorithm 1 in the paper);
* a **backup path** -- a short path sharing as few links as possible
  with the primary, computed by re-running shortest path with primary
  links made expensive.

Hosts cache the whole subgraph: single link failures are routed around
with a local detour, correlated failures fall back to the backup path,
and only when the whole subgraph is dead does a host re-query the
controller.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Set, Tuple

from ..topology.graph import SSSPTree, SwitchIndex, Topology

__all__ = ["PathGraph", "backup_path", "build_path_graph", "detour_vertices", "primary_and_backup"]

#: Cost multiplier applied to primary-path links when computing the
#: backup path: high enough that reuse only happens when unavoidable.
BACKUP_LINK_PENALTY = 1000.0


@dataclass(frozen=True, slots=True)
class PathGraph:
    """The result of :func:`build_path_graph`.  Its ``mask`` holds bits of
    the topology's :class:`~repro.topology.graph.SwitchIndex`, so it names
    the same switches in every topology sharing that index (the view's
    copies, shards and replicas); equality compares masks, not indexes."""

    src_switch: str
    dst_switch: str
    primary: Tuple[str, ...]
    backup: Optional[Tuple[str, ...]]
    #: The switches cached (primary + detours + backup): their bits ORed.
    mask: int
    #: Induced edges as (switch, port, switch, port) tuples.
    edges: Tuple[Tuple[str, int, str, int], ...]
    s: int
    epsilon: int
    #: The index ``mask`` was built in.
    index: SwitchIndex = field(compare=False, repr=False)

    @property
    def nodes(self) -> Set[str]:
        """The switches ``mask`` names."""
        return self.index.switches_in(self.mask)

    @property
    def size(self) -> int:
        """Number of switches cached -- the Figure 12 metric."""
        return self.mask.bit_count()

    @property
    def num_edges(self) -> int:
        return len(self.edges)


def detour_vertices(
    topology: Topology,
    primary: Sequence[str],
    s: int,
    epsilon: int,
    level_masks: Optional[Callable[[str], Sequence[int]]] = None,
) -> Set[str]:
    """Algorithm 1's detour switches by name: :func:`_detour_mask` decoded."""
    mask = _detour_mask(topology, primary, s, epsilon, level_masks)
    return topology.index.switches_in(mask)


def _detour_mask(
    topology: Topology, primary: Sequence[str], s: int, epsilon: int,
    level_masks: Optional[Callable[[str], Sequence[int]]],
) -> int:
    """Algorithm 1: the switch bits of all "s-step, ε-good" local detours.

    Walks the primary path in strides of ``s/2``; for each window
    ``(a, b) = (p_i, p_{i+s})`` it collects every switch ``x`` with
    ``dist(a, x) + dist(x, b) <= s + ε``: in switch bits, the union over
    ``r`` of ``a``'s level ``r`` and ``b``'s ball of radius ``s + ε - r``.

    ``level_masks`` substitutes a memoized source -> level-mask provider
    (e.g. the path service's shared ``SSSPTree.masks``) for a fresh
    search per window end.
    """
    if s < 1:
        raise ValueError(f"detour window s must be >= 1, got {s}")
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    budget = s + epsilon
    levels_of = level_masks or (lambda source: topology.sssp_tree(source).masks)
    found = 0
    length = len(primary)
    step = max(1, s // 2)
    i = 0
    while i < length - 1:
        rings_a = levels_of(primary[i])
        rings_b = levels_of(primary[min(i + s, length - 1)])
        ball, balls = 0, []
        for ring in rings_b[: budget + 1]:
            ball |= ring
            balls.append(ball)
        last = len(balls) - 1
        for r, ring in enumerate(rings_a[: budget + 1]):
            found |= ring & balls[min(budget - r, last)]
        i += step
    return found


def backup_path(
    topology: Topology,
    primary: Sequence[str],
    rng: Optional[random.Random] = None,
) -> Optional[List[str]]:
    """A short path sharing as few cables as possible with ``primary``:
    the shortest-path search re-run with every primary cable (parallel
    ones included) priced at :data:`BACKUP_LINK_PENALTY`, so reuse
    happens only where there is no redundancy (Section 4.3).  None when
    it cannot differ.

    When ``dst`` is D < penalty hops away without a primary cable, that
    penalised Dijkstra is a level-order BFS over the graph with every
    primary hop cut, up to D's level.  A switch at depth d < penalty
    only has unpenalised parents, at depth d - 1: a penalised relaxation
    only sets a tentative >= penalty, which the first cheap one resets
    (parents included) and never ties.  Pushing such tentatives uses up
    counter values but never reorders the cheap pushes, and none pops
    before ``dst``.  So the pop order, every parent list's contents and
    order, and each ``rng.choice`` of the walk-back are the Dijkstra's.
    Only when the primary's cables separate src from dst (or D reaches
    the penalty) does the penalised search itself run.
    """
    if len(primary) < 2:
        return None
    src, dst = primary[0], primary[-1]
    hops = list(zip(primary, primary[1:]))
    tree = topology.sssp_tree(src, avoid=hops, stop=dst)
    if tree.dist.get(dst, BACKUP_LINK_PENALTY) < BACKUP_LINK_PENALTY:
        return tree.path_to(dst, rng=rng)
    costs = {
        link.key(): BACKUP_LINK_PENALTY
        for here, there in hops
        for link in topology.links_between(here, there)
    }
    backup = topology.shortest_switch_path(src, dst, rng=rng, link_costs=costs)
    return None if backup == list(primary) else backup


def primary_and_backup(
    topology: Topology,
    src_switch: str,
    dst_switch: str,
    rng: Optional[random.Random] = None,
    tree: Optional[SSSPTree] = None,
) -> Tuple[Optional[List[str]], Optional[List[str]]]:
    """One randomized shortest path and its :func:`backup_path`;
    ``(None, None)`` when unreachable.  ``rng`` is drawn from by the
    primary walk-back first, then by the backup's."""
    primary = topology.shortest_switch_path(
        src_switch, dst_switch, rng=rng, tree=tree
    )
    if primary is None:
        return None, None
    return primary, backup_path(topology, primary, rng)


def build_path_graph(
    topology: Topology,
    src_switch: str,
    dst_switch: str,
    s: int = 2,
    epsilon: int = 1,
    rng: Optional[random.Random] = None,
    tree: Optional[SSSPTree] = None,
    level_masks: Optional[Callable[[str], Sequence[int]]] = None,
) -> Optional[PathGraph]:
    """Build the path graph for a switch pair; None when unreachable.

    ``tree`` (an :class:`~repro.topology.graph.SSSPTree` rooted at
    ``src_switch``) and ``level_masks`` (a memoized source -> level-mask
    provider) let the controller's path service share shortest-path work
    across queries; both must come from ``topology`` itself.  The backup
    path always runs a fresh search because the cables it avoids are
    this primary's.
    """
    primary, backup = primary_and_backup(topology, src_switch, dst_switch, rng, tree)
    if primary is None:
        return None

    mask = topology.index.mask_of(primary + (backup or []))
    if len(primary) > 1:
        mask |= _detour_mask(topology, primary, s, epsilon, level_masks)

    return PathGraph(
        src_switch=src_switch,
        dst_switch=dst_switch,
        primary=tuple(primary),
        backup=tuple(backup) if backup else None,
        mask=mask,
        edges=tuple(sorted(topology.links_within(mask))),
        s=s,
        epsilon=epsilon,
        index=topology.index,
    )
