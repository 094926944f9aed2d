"""Permuting a spec's colors changes nothing the pipeline reports.

The graph does not depend on the order of its colors, so on the SNF route
the pages, the convergence result and the table of a spec must equal those
of any reordering.  The relation reads no h or k, so it also holds at ranks
1, 2, 5 and 6, where there is no closed form, and it catches a Koszul
builder whose layout depends on the color order.
"""

import random

from kgraph_ktheory.kgraph import ColorKind, ColorSpec, GraphSpec, Involution
from kgraph_ktheory.spectral import compute_ktheory


def _seeded_specs(rng, rank, involution, count):
    for _ in range(count):
        kinds = [rng.choice(list(ColorKind)) for _ in range(rank)]
        kinds[rng.randrange(rank)] = ColorKind.OFF_DIAGONAL
        sizes = [rng.randint(2, 60) for _ in range(rank)]
        yield GraphSpec(tuple(map(ColorSpec, kinds, sizes)), involution)


def test_permuting_colors_leaves_the_pipeline_result_unchanged():
    rng = random.Random(8)
    for rank in range(1, 7):
        for involution in Involution:
            for spec in _seeded_specs(rng, rank, involution, 10):
                base = compute_ktheory(spec)
                orders = [list(reversed(range(rank))), rng.sample(range(rank), rank)]
                for order in orders:
                    permuted = compute_ktheory(
                        GraphSpec(tuple(spec.colors[i] for i in order), involution)
                    )
                    assert permuted.real == base.real, (spec, order)
                    assert permuted.cplx == base.cplx, (spec, order)
                    assert permuted.convergence == base.convergence, (spec, order)
                    assert permuted.table == base.table, (spec, order)
