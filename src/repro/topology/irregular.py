"""Random irregular topology generators.

The paper's experiments (§4) use irregular switch-based networks generated as
follows:

* each switch has 8 ports;
* "in order to simulate physical proximity of connected switches, switches
  were randomly selected from points on an integer lattice and connected only
  to adjacent lattice points.  Thus, at most 4 ports per switch were used for
  connections to other switches";
* "in order to maximize the probability of contention between messages, each
  switch was connected to only one processor".

:class:`IrregularLatticeGenerator` reproduces that recipe.  Because the
authors' concrete random instances were never published, the generator takes
an explicit seed so that every experiment in this repository is exactly
reproducible.  A second generator, :func:`random_irregular_network`, produces
irregular networks from a random-graph model (useful for property-based tests
that want more varied degree distributions than the lattice model allows).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from .network import Network

__all__ = [
    "IrregularLatticeGenerator",
    "lattice_irregular_network",
    "random_irregular_network",
]


@dataclass(slots=True)
class IrregularLatticeGenerator:
    """Generate irregular networks following the paper's lattice recipe.

    Parameters
    ----------
    num_switches:
        Number of switches (the paper uses 128 and 256).
    ports_per_switch:
        Port budget per switch; the paper uses 8.
    max_interswitch_ports:
        Maximum number of ports used for switch-to-switch links (the lattice
        has 4 neighbours, hence the paper's "at most 4").
    processors_per_switch:
        Number of processors attached to each switch; the paper uses 1.
    occupancy:
        Fraction of lattice points that carry a switch.  Lower occupancy
        produces sparser, more irregular networks.  The lattice side length
        is derived from ``num_switches`` and ``occupancy``.
    """

    num_switches: int
    ports_per_switch: int = 8
    max_interswitch_ports: int = 4
    processors_per_switch: int = 1
    occupancy: float = 0.66

    def __post_init__(self) -> None:
        if self.num_switches < 2:
            raise ConfigurationError("need at least two switches")
        if not 0.05 < self.occupancy <= 1.0:
            raise ConfigurationError("occupancy must be in (0.05, 1.0]")
        if self.max_interswitch_ports < 2:
            raise ConfigurationError("max_interswitch_ports must be at least 2")
        if self.ports_per_switch < self.max_interswitch_ports + self.processors_per_switch:
            raise ConfigurationError(
                "ports_per_switch must accommodate inter-switch links and processors"
            )

    # ------------------------------------------------------------------
    def generate(self, seed: int | np.random.Generator = 0) -> Network:
        """Generate one random irregular network.

        The construction places switches on random distinct points of a
        square integer lattice, links lattice-adjacent switches (respecting
        the inter-switch port budget) and finally adds a minimal number of
        extra links between nearest points of distinct connected components
        so that the result is always connected.
        """
        rng = np.random.default_rng(seed) if not isinstance(seed, np.random.Generator) else seed
        side = max(2, math.ceil(math.sqrt(self.num_switches / self.occupancy)))
        points = self._sample_points(rng, side)
        network = Network(
            ports_per_switch=self.ports_per_switch,
            name=f"irregular-lattice-{self.num_switches}",
        )
        coord_to_switch: dict[tuple[int, int], int] = {}
        for index, (x, y) in enumerate(points):
            switch = network.add_switch(f"s{index}")
            coord_to_switch[(x, y)] = switch

        interswitch_degree = [0] * self.num_switches
        self._link_lattice_neighbours(network, coord_to_switch, interswitch_degree, rng)
        self._stitch_components(network, points, coord_to_switch, interswitch_degree)

        for switch in list(network.switches()):
            for p in range(self.processors_per_switch):
                suffix = "" if self.processors_per_switch == 1 else f"_{p}"
                network.add_processor(switch, f"p{switch}{suffix}")
        network.require_connected()
        return network

    # ------------------------------------------------------------------
    def _sample_points(self, rng: np.random.Generator, side: int) -> list[tuple[int, int]]:
        total = side * side
        if total < self.num_switches:
            side = math.ceil(math.sqrt(self.num_switches))
            total = side * side
        chosen = rng.choice(total, size=self.num_switches, replace=False)
        return [(int(c % side), int(c // side)) for c in chosen]

    def _link_lattice_neighbours(
        self,
        network: Network,
        coord_to_switch: dict[tuple[int, int], int],
        interswitch_degree: list[int],
        rng: np.random.Generator,
    ) -> None:
        coords = list(coord_to_switch)
        order = rng.permutation(len(coords))
        for idx in order:
            x, y = coords[idx]
            a = coord_to_switch[(x, y)]
            for dx, dy in ((1, 0), (0, 1)):
                nbr = (x + dx, y + dy)
                if nbr not in coord_to_switch:
                    continue
                b = coord_to_switch[nbr]
                if interswitch_degree[a] >= self.max_interswitch_ports:
                    break
                if interswitch_degree[b] >= self.max_interswitch_ports:
                    continue
                network.connect(a, b)
                interswitch_degree[a] += 1
                interswitch_degree[b] += 1

    def _stitch_components(
        self,
        network: Network,
        points: list[tuple[int, int]],
        coord_to_switch: dict[tuple[int, int], int],
        interswitch_degree: list[int],
    ) -> None:
        """Join disconnected switch components with nearest-point links.

        The paper does not describe how disconnected instances were handled;
        joining components with the geometrically shortest extra link is the
        most conservative completion (it preserves the "physical proximity"
        property the lattice placement is meant to model).
        """
        components = self._switch_components(network)
        while len(components) > 1:
            base = components[0]
            best: tuple[float, int, int] | None = None
            for other in components[1:]:
                for a in base:
                    ax, ay = points[a]
                    for b in other:
                        bx, by = points[b]
                        if (
                            interswitch_degree[a] >= self.max_interswitch_ports
                            or interswitch_degree[b] >= self.max_interswitch_ports
                        ):
                            continue
                        d = (ax - bx) ** 2 + (ay - by) ** 2
                        if best is None or d < best[0]:
                            best = (d, a, b)
            if best is None:
                # All port budgets exhausted at the frontier; relax the
                # inter-switch limit for the stitching link only.
                a = min(base)
                b = min(components[1])
            else:
                _, a, b = best
            network.connect(a, b)
            interswitch_degree[a] += 1
            interswitch_degree[b] += 1
            components = self._switch_components(network)

    @staticmethod
    def _switch_components(network: Network) -> list[list[int]]:
        # ``remaining`` holds switches only, so membership in it is also the
        # switch test (processors are never pushed).
        remaining = set(network.switches())
        components: list[list[int]] = []
        while remaining:
            start = min(remaining)  # repro-lint: disable=R1 -- min over a set of ints is order-independent
            stack = [start]
            comp = {start}
            while stack:
                u = stack.pop()
                for v in network.neighbors(u):
                    if v in remaining and v not in comp:
                        comp.add(v)
                        stack.append(v)
            comp_sorted = sorted(comp)
            components.append(comp_sorted)
            remaining -= comp
        return components


def lattice_irregular_network(
    num_switches: int,
    seed: int = 0,
    ports_per_switch: int = 8,
    occupancy: float = 0.66,
) -> Network:
    """Convenience wrapper building one paper-style irregular network."""
    generator = IrregularLatticeGenerator(
        num_switches=num_switches,
        ports_per_switch=ports_per_switch,
        occupancy=occupancy,
    )
    return generator.generate(seed)


def random_irregular_network(
    num_switches: int,
    extra_links: int = 0,
    seed: int = 0,
    ports_per_switch: int | None = None,
    processors_per_switch: int = 1,
) -> Network:
    """Generate a connected random irregular network (random-tree-plus-chords).

    The construction first builds a random spanning tree over the switches
    (guaranteeing connectivity), then adds ``extra_links`` random chords,
    then attaches ``processors_per_switch`` processors to every switch.
    This model is not the paper's lattice model; it exists for unit and
    property-based tests that need small, highly varied irregular topologies.
    """
    if num_switches < 1:
        raise ConfigurationError("need at least one switch")
    rng = np.random.default_rng(seed)
    network = Network(ports_per_switch=ports_per_switch, name=f"random-irregular-{num_switches}")
    for i in range(num_switches):
        network.add_switch(f"s{i}")
    switches = network.switches()
    # Random spanning tree: connect node i to a uniformly random earlier node.
    for i in range(1, num_switches):
        j = int(rng.integers(0, i))
        network.connect(switches[i], switches[j])
    # Random chords.
    attempts = 0
    added = 0
    while added < extra_links and attempts < 50 * max(1, extra_links):
        attempts += 1
        a, b = rng.choice(num_switches, size=2, replace=False)
        a, b = int(a), int(b)
        if network.has_channel(switches[a], switches[b]):
            continue
        if ports_per_switch is not None and (
            network.degree(switches[a]) >= ports_per_switch
            or network.degree(switches[b]) >= ports_per_switch
        ):
            continue
        network.connect(switches[a], switches[b])
        added += 1
    for switch in switches:
        for p in range(processors_per_switch):
            suffix = "" if processors_per_switch == 1 else f"_{p}"
            network.add_processor(switch, f"p{switch}{suffix}")
    return network
