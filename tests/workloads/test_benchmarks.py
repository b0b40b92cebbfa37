"""Unit tests for the Table 2(a) benchmark specifications."""

import hashlib
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


def _items(name, base, seed, count):
    """The first ``count`` items of a benchmark's trace, batches chained."""
    batches = get_benchmark(name).factory(base, seed)
    return list(itertools.islice(itertools.chain.from_iterable(batches), count))


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
    base = 7 << 40
    items = _items(name, base, 3, 200)
    assert len(items) == 200
    for item in items:
        assert item.addr >= base
        assert item.gap >= 0
        assert isinstance(item.is_write, bool)


@pytest.mark.parametrize("name", sorted(TABLE2A_NAMES))
def test_traces_are_deterministic_per_seed(name):
    assert _items(name, 0, 9, 50) == _items(name, 0, 9, 50)


#: SHA-256 of the first 2,500 items at base ``1 << 40``, seed 5, one
#: ``"gap addr is_write pc"`` line per item.  Recorded from the row-form
#: generators the producers replaced, so a producer that drifts from
#: the item stream every published figure was simulated on fails here.
#: (Equal digests are equal parameters: S.all opens with its copy
#: kernel, which is S.copy and S.scale.)
_STREAM_DIGESTS = {
    "S.add": "003c7af4d6afa4e3fcf556a8a62161615c5696f766ee6cbb1f21c5338d2f3941",
    "S.all": "26255e606830dfad728870ce928a4932d7317c4f90ce1aaed0a4f43ec7a4095f",
    "S.copy": "26255e606830dfad728870ce928a4932d7317c4f90ce1aaed0a4f43ec7a4095f",
    "S.scale": "26255e606830dfad728870ce928a4932d7317c4f90ce1aaed0a4f43ec7a4095f",
    "S.triad": "003c7af4d6afa4e3fcf556a8a62161615c5696f766ee6cbb1f21c5338d2f3941",
    "applu": "f4aa313a48e3a7ce5ef884e65675af209df7b0b2c9629c6b7570fcd391610225",
    "apsi": "c32a8aa30c3d48d0a2737a8defe73a2401d32d2f1a126bc891016757ba4320e7",
    "astar": "d04ef8d97506ea4565b942c567c44915df1df046d8905ea3aabc96abcd28adc5",
    "bzip2": "d04ef8d97506ea4565b942c567c44915df1df046d8905ea3aabc96abcd28adc5",
    "equake": "ed3bf1622e5efd0f4387ccb0c6793626bf8cc95fd82205b06b4a84e18453a1fb",
    "gzip": "d04ef8d97506ea4565b942c567c44915df1df046d8905ea3aabc96abcd28adc5",
    "h264": "64e3408e40f8dbaf6a5acb2ec28532ff18431d4e45916329e31a81d431150c57",
    "lbm": "387cdc482c813cf17b6796757bdff42e83c55265b5f2026437ab52fc1031d1be",
    "libquantum": "0b8bfbcd4fca8683e14d674d81bdf3d05565f3132de2998a88e3ab4a15850f51",
    "mcf": "e8525b479a2dfd7668d8a763b0330ad8a89132f68fce7f5892af2960b79c0ca4",
    "mesa": "c9a11f8d8a5d4dfe577afc8faa9e2717de09686217bf211beb517f4fb7d1c8d0",
    "mgrid": "95902ade6b2cb3b3fa1a1e2800deed87fcaa8b5a7d9782c5517b73bef893f8c8",
    "milc": "705fda1930ae5ee82a7081aa87f942741cc59f2a87d3beb0a533510ae5744aa2",
    "mummer": "8476d13e23d8f0e7bee24a8edcc7a5b110f34ecdb5fb715d55d4b23d6d1ed622",
    "namd": "418c80fd5113450d4507a60b0eafea09e208efde0f6d55b1f0fbec38cee04869",
    "omnetpp": "2e0ccda1cc210828e45246cb265fd94d4d20b61b35d79427d72fd96820ebfa0e",
    "qsort": "99fedcaf737d1557aa3765bcf21ebec6514708614bbd6b94df24169f777d9a55",
    "soplex": "f35f352cea58cb8443f0c6f6e93ac6f7073bd1f2574cbdce84f648992d912917",
    "swim": "7e90c84ae24a79ef3c1fb5a0de3e94d928017ed802b2368971c2ac72c3782be1",
    "tigr": "3a3db438a701379c5b701363db4e0d8e1137ff641917f99efc1edb865a37029d",
    "vortex": "49e1aeeda1524fab0c894a846908f375f8693f29e2aa651fb5de3665b528eb7d",
    "wupwise": "6a87ef639b292f8becd71469d76854d9553b635289b956b0f4e85831e7e30e8b",
    "zeusmp": "d04ef8d97506ea4565b942c567c44915df1df046d8905ea3aabc96abcd28adc5",
}


@pytest.mark.parametrize("name", sorted(TABLE2A_NAMES))
def test_every_benchmark_has_a_native_columnar_producer(name):
    """Each benchmark's one factory yields columnar batches whose item
    stream is the pinned one, across two 1024-item batch boundaries."""
    digest = hashlib.sha256()
    for gap, addr, is_write, pc in _items(name, 1 << 40, 5, 2_500):
        digest.update(b"%d %d %d %d\n" % (gap, addr, is_write, pc))
    assert digest.hexdigest() == _STREAM_DIGESTS[name]


def test_intensity_ordering_follows_paper_bands():
    """Refs per kilo-instruction must be ordered with paper MPKI bands."""

    def refs_per_kinstr(name):
        items = _items(name, 0, 1, 2000)
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
