"""The random-machine generator: determinism, validity, coverage."""

from repro.machine import machine_from_document, validate_document
from repro.testing.genmachine import (
    CLUSTER_COUNTS,
    generate_machine_doc,
    machine_doc_stream,
    machine_histogram,
)


def test_generator_is_deterministic():
    for seed in (0, 1, 7, 123456789):
        assert generate_machine_doc(seed) == generate_machine_doc(seed)


def test_stream_is_deterministic_and_sized():
    a = list(machine_doc_stream(3, 25))
    b = list(machine_doc_stream(3, 25))
    assert a == b
    assert len(a) == 25


def test_every_draw_is_valid_and_constructible():
    for doc in machine_doc_stream(0, 200):
        validate_document(doc)
        machine = machine_from_document(doc)
        assert machine.noc.num_nodes >= machine.l3_clusters
        assert machine.noc.host_node < machine.l3_clusters
        assert 0 <= machine.noc.mc_node < machine.noc.num_nodes


def test_cluster_counts_all_covered():
    docs = list(machine_doc_stream(0, 200))
    seen = {doc["l3_clusters"] for doc in docs}
    assert seen == set(CLUSTER_COUNTS)
    hist = machine_histogram(docs)
    assert sum(hist.values()) == len(docs)


def test_l1_geometries_narrow_and_wide():
    sets = set()
    for doc in machine_doc_stream(0, 200):
        l1 = machine_from_document(doc).l1
        sets.add(l1.num_sets)
    assert {2, 4} <= sets
    assert max(sets) >= 32  # as wide as the Table III L1 (64 sets)


def test_histogram_skips_default_machines():
    docs = list(machine_doc_stream(1, 4))
    assert sum(machine_histogram(docs + [None, None]).values()) == 4
