"""Fixtures for the experiment tests."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.eval.paper import paper_suite
from repro.suites import run_suite


@pytest.fixture(scope="session")
def run_paper_grid():
    """Run part of a paper suite at a reduced grid.

    ``keep(experiment)`` picks the grid points; ``config`` entries override
    each kept experiment's.
    """

    def run(name, *, scale, seed, keep=lambda experiment: True, **config):
        spec = paper_suite(name, scale=scale, seed=seed)
        kept = tuple(replace(experiment, config={**experiment.config, **config})
                     for experiment in spec.experiments if keep(experiment))
        return run_suite(replace(spec, experiments=kept))

    return run
