"""Unit tests for the oracle's vertex-program API helpers."""

from __future__ import annotations

import numpy as np
import pytest

from tests.oracle.engine import VertexProgram, payload_size_bytes


class TestPayloadSize:
    def test_none_is_free(self):
        assert payload_size_bytes(None) == 0

    def test_scalars(self):
        assert payload_size_bytes(42) == 8
        assert payload_size_bytes(3.14) == 8
        assert payload_size_bytes(True) == 1

    def test_strings_and_bytes(self):
        assert payload_size_bytes("hello") == 5
        assert payload_size_bytes(b"12345678") == 8

    def test_containers_sum_elements(self):
        assert payload_size_bytes([1, 2, 3]) == 24
        assert payload_size_bytes((1.0, 2.0)) == 16
        assert payload_size_bytes({1, 2}) == 16

    def test_dict_counts_keys_and_values(self):
        assert payload_size_bytes({1: 2.0, 3: 4.0}) == 32

    def test_nested_structures(self):
        assert payload_size_bytes({1: [1, 2], 2: [3]}) == 8 + 16 + 8 + 8

    def test_numpy_arrays_use_nbytes(self):
        array = np.zeros(10, dtype=np.int64)
        assert payload_size_bytes(array) == 80

    def test_neighborhood_payload_dwarfs_scalar_payload(self):
        # The key asymmetry behind the paper's results: a full adjacency list
        # payload (BASELINE) is far bigger than a (vertex, similarity) pair
        # (SNAPLE).
        neighborhood = {7: list(range(200))}
        pair = {7: 0.25}
        assert payload_size_bytes(neighborhood) > 50 * payload_size_bytes(pair)


class _MinimalProgram(VertexProgram):
    name = "minimal"

    def gather(self, u, v, u_data, v_data):
        return 1

    def apply(self, u, u_data, gathered):
        u_data["total"] = gathered


class TestVertexProgramDefaults:
    def test_default_compute_cost(self):
        assert _MinimalProgram().compute_cost(123) == 1

    def test_default_payload_uses_size_estimate(self):
        assert _MinimalProgram().gather_payload_bytes([1, 2]) == 16

    def test_sum_not_implemented_by_default(self):
        with pytest.raises(NotImplementedError):
            _MinimalProgram().sum(1, 2)
