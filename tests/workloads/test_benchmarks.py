"""Unit tests for the Table 2(a) benchmark specifications."""

import itertools

import pytest

from repro.workloads.benchmarks import BENCHMARKS, get_benchmark

TABLE2A_NAMES = {
    "S.copy", "S.add", "S.all", "S.triad", "S.scale",
    "tigr", "qsort", "libquantum", "soplex", "milc",
    "wupwise", "equake", "lbm", "mcf",
    "mummer", "swim", "omnetpp", "applu", "mgrid", "apsi",
    "h264", "mesa", "gzip", "astar", "zeusmp", "bzip2", "vortex", "namd",
}


def test_all_table2a_benchmarks_present():
    # The paper's text says "24 applications" but Table 2(a) lists 28
    # rows (the Stream decompositions are counted oddly); we implement
    # every row of the table.
    assert set(BENCHMARKS) == TABLE2A_NAMES
    assert len(BENCHMARKS) == 28


def test_paper_mpki_values_recorded():
    assert BENCHMARKS["S.copy"].paper_mpki == 326.9
    assert BENCHMARKS["mcf"].paper_mpki == 35.1
    assert BENCHMARKS["namd"].paper_mpki == 1.0


def test_stream_family_tops_the_table():
    stream = [s for n, s in BENCHMARKS.items() if n.startswith("S.")]
    others = [s for n, s in BENCHMARKS.items() if not n.startswith("S.")]
    assert min(s.paper_mpki for s in stream) > max(o.paper_mpki for o in others)


@pytest.mark.parametrize("name", sorted(TABLE2A_NAMES))
def test_every_trace_yields_valid_items(name):
    spec = get_benchmark(name)
    base = 7 << 40
    items = list(itertools.islice(spec.trace(base, seed=3), 200))
    assert len(items) == 200
    for item in items:
        assert item.addr >= base
        assert item.gap >= 0
        assert isinstance(item.is_write, bool)


@pytest.mark.parametrize("name", sorted(TABLE2A_NAMES))
def test_traces_are_deterministic_per_seed(name):
    spec = get_benchmark(name)
    a = list(itertools.islice(spec.trace(0, seed=9), 50))
    b = list(itertools.islice(spec.trace(0, seed=9), 50))
    assert a == b


@pytest.mark.parametrize("name", sorted(TABLE2A_NAMES))
def test_every_benchmark_has_a_native_columnar_producer(name):
    """No paper benchmark chunks through the row-to-batch adapter, and
    the columnar stream is the row generator's stream, item for item."""
    spec = get_benchmark(name)
    assert spec.batch_factory is not None
    count = 2_500  # crosses two 1024-item batch boundaries
    rows = list(itertools.islice(spec.trace(1 << 40, seed=5), count))
    batches = spec.batch_factory(1 << 40, 5)
    columnar = list(itertools.islice(
        itertools.chain.from_iterable(batches), count
    ))
    assert columnar == rows


def test_intensity_ordering_follows_paper_bands():
    """Refs per kilo-instruction must be ordered with paper MPKI bands."""

    def refs_per_kinstr(name):
        spec = get_benchmark(name)
        items = list(itertools.islice(spec.trace(0, seed=1), 2000))
        instrs = sum(i.gap + 1 for i in items)
        return 1000 * len(items) / instrs

    assert refs_per_kinstr("S.copy") > refs_per_kinstr("milc")
    assert refs_per_kinstr("milc") > refs_per_kinstr("mgrid")
    assert refs_per_kinstr("tigr") > refs_per_kinstr("mummer")


def test_get_benchmark_error_lists_names():
    with pytest.raises(KeyError, match="S.copy"):
        get_benchmark("doom3")


def test_base_cpi_positive():
    assert all(s.base_cpi > 0 for s in BENCHMARKS.values())
