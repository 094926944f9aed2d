"""The GCD route for E^2 rows against the SNF route, and which commands use it.

The GCD route evaluates the gcds the closed forms of ``families`` are made
of, so only ``compute`` may use it; these tests hold it to whole-pipeline
equality with the SNF route and pin ``compute`` off the SNF path.
"""

import random
from itertools import chain, product

import pytest

from kgraph_ktheory import spectral
from kgraph_ktheory.cli import Command, EXIT_OK, JobSpec, run
from kgraph_ktheory.kgraph import ColorKind, ColorSpec, GraphSpec, Involution
from kgraph_ktheory.spectral import E2Route, compute_ktheory

from helpers import scalar_gcds, spec_with_gcds


def _grid(rank, sizes):
    """Every D/T pattern with a crossing color, every size, both involutions."""
    for kinds in product(ColorKind, repeat=rank):
        if ColorKind.OFF_DIAGONAL not in kinds:
            continue
        for chosen in product(sizes, repeat=rank):
            for inv in Involution:
                yield GraphSpec(tuple(map(ColorSpec, kinds, chosen)), inv)


def _random_spec(rng, rank, max_bits):
    kinds = [rng.choice(list(ColorKind)) for _ in range(rank)]
    kinds[rng.randrange(rank)] = ColorKind.OFF_DIAGONAL
    sizes = [rng.randint(2, 2 ** rng.randint(1, max_bits)) for _ in range(rank)]
    return GraphSpec(tuple(map(ColorSpec, kinds, sizes)), rng.choice(list(Involution)))


def _assert_routes_agree(spec):
    snf = compute_ktheory(spec)
    assert compute_ktheory(spec, route=E2Route.GCD) == snf, spec


def test_routes_agree_on_the_acceptance_grids():
    # pages, shadow page, certificates, extension records and table alike
    for spec in chain(_grid(3, range(2, 7)), _grid(4, range(2, 5))):
        _assert_routes_agree(spec)


def test_routes_agree_on_seeded_rank5_and_rank6_specs():
    rng = random.Random(56)
    for rank in (5, 6):
        for _ in range(12):
            _assert_routes_agree(_random_spec(rng, rank, 20))


def test_routes_agree_on_rank5_and_rank6_specs_with_each_gcd_shape():
    # The seeded specs above all have h = k = 1; here h = 1, k = 1 and h, k > 1.
    rng = random.Random(5656)
    for rank in (5, 6):
        for involution in ("trivial", "swap"):
            for h, k in ((1, 7), (3, 1), (5, 9), (27, 11)):
                spec = spec_with_gcds(rng, rank, involution, h, k)
                assert scalar_gcds(spec) == (h, k)
                _assert_routes_agree(spec)


def test_routes_agree_on_huge_sizes():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def specs(draw):
        rank = draw(st.integers(1, 4))
        kinds = draw(st.lists(st.sampled_from(list(ColorKind)), min_size=rank, max_size=rank))
        kinds[draw(st.integers(0, rank - 1))] = ColorKind.OFF_DIAGONAL
        sizes = draw(st.lists(st.integers(2, 10**30), min_size=rank, max_size=rank))
        return GraphSpec(tuple(map(ColorSpec, kinds, sizes)), draw(st.sampled_from(list(Involution))))

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(specs())
    def check(spec):
        _assert_routes_agree(spec)

    check()


def test_compute_never_reaches_the_snf_path(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("compute reached the SNF route")

    spectral._row_homology.cache_clear()
    monkeypatch.setattr(spectral, "koszul_complex", refuse)
    monkeypatch.setattr(spectral, "homology_all", refuse)
    # h = 3 and k = 5, so every row is nonzero and d_5 stays uncertified
    sizes = (2, 17, 8, 32, 23, 38)
    doc = {
        "colors": [{"kind": kind, "size": size} for kind, size in zip("TTDTDD", sizes)],
        "involution": "swap",
    }
    result = run(JobSpec(command=Command.COMPUTE, document=doc, max_rank=6))
    assert result.exit_code == EXIT_OK
    assert result.output.startswith("spec: T2 T17 D8 T32 D23 D38  involution=swap\n")
    with pytest.raises(AssertionError, match="SNF route"):
        compute_ktheory(GraphSpec(tuple(map(ColorSpec, [ColorKind.OFF_DIAGONAL] * 2, (3, 5)))))
