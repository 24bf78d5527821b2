"""Pinned accounting of the serial simulated engine.

The simulated-cluster numbers are reproduction outputs: the serial engine
charges each vertex's data ``Du`` from array lengths
(:mod:`repro.snaple.accounting`), at the payload sizes of Algorithm 2's
vertex programs, and the cost model turns the charges into simulated
seconds.  A change to how the engine charges vertex state must leave these
values bit-identical.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.gas.cluster import TYPE_I, cluster_of
from repro.snaple.config import SnapleConfig
from repro.snaple.predictor import SnapleLinkPredictor


def predictions_digest(predictions: dict[int, list[int]]) -> str:
    return hashlib.sha256(
        json.dumps(sorted(predictions.items())).encode()
    ).hexdigest()


#: One digest for the serial engine and both ``local`` modes: truncation
#: draws the same sequential stream.
DIGEST = "dedcacb9c9649c6bc39296c22130d319fe825652acdb148c36c78142dab3ab80"

#: (backend, machines) -> (simulated_seconds as float.hex(), network_bytes,
#: peak_memory_bytes, supersteps).
PINNED = {
    ("gas", 1): ("0x1.153b1e726a391p-4", 0, 39968, 3),
    ("gas", 4): ("0x1.9f52e80460b7dp-3", 576792, 37898, 3),
}


@pytest.mark.parametrize("backend,machines", sorted(PINNED))
def test_serial_accounting_is_pinned(backend, machines, random_graph):
    graph = random_graph(200, 3, 0.3, seed=1)
    options = ({} if machines == 1
               else {"cluster": cluster_of(TYPE_I, machines)})
    report = SnapleLinkPredictor(SnapleConfig.paper_default(seed=1)).predict(
        graph, backend=backend, **options
    )
    simulated, network, peak, supersteps = PINNED[backend, machines]
    assert report.simulated_seconds == float.fromhex(simulated)
    assert report.network_bytes == network
    assert report.peak_memory_bytes == peak
    assert report.supersteps == supersteps
    assert predictions_digest(report.predictions) == DIGEST


@pytest.mark.parametrize("mode", ["vectorized", "reference"])
def test_local_modes_reproduce_the_serial_digest(mode, random_graph):
    graph = random_graph(200, 3, 0.3, seed=1)
    report = SnapleLinkPredictor(SnapleConfig.paper_default(seed=1)).predict(
        graph, backend="local", mode=mode
    )
    assert predictions_digest(report.predictions) == DIGEST
