"""The paper's recall sweeps as suites: figures 7–10 and the α / K ablations.

Each sweep is a plain suite mapping (the shape of
:mod:`repro.suites.schema`) whose grid is a Python comprehension over the
swept key, run by the suite ``batch`` workload on the named dataset analogs
with :meth:`SnapleConfig.paper_default` for everything left unset.
:func:`run_paper_suite` is the single entry point; the CLI runs it as
``snaple <name>``.  The shapes each sweep should show (Section 5):

``figure7``
    Γmax beats Γmin and Γrnd at small klocal; the three policies converge
    as klocal grows large enough to cover most neighborhoods.
``figure8``
    Recall (and wall-clock time, in each payload's ``run``) per scoring
    configuration: the Sum family's recall rises with klocal, the Mean and
    Geom families peak early and then degrade.
``figure9`` / ``figure10``
    Recall rises with the number of returned predictions k, and falls as
    more edges per vertex are removed before predicting.
``ablation-alpha``
    The linear combinator's weight α (the paper states 0.9 without the
    sweep): α = 1 ignores the second hop and is clearly worst.
``ablation-khop``
    Path length K (the 2-hop restriction of equation (2)) on the ``khop``
    engine: K = 3 multiplies the explored paths (``paths_length_*`` in each
    payload's ``run.extra``) without improving recall on clustered graphs.
"""

from __future__ import annotations

import functools
from typing import Any

from repro.errors import ConfigurationError
from repro.snaple.scoring import GEOM_FAMILY, MEAN_FAMILY, SUM_FAMILY
from repro.suites.runner import SuiteResult, run_suite
from repro.suites.schema import SuiteSpec, deep_merge, parse_suite

__all__ = ["PAPER_SUITES", "PAPER_EXPERIMENTS", "paper_suite",
           "run_paper_suite"]

_KLOCALS = (5, 10, 20, 40, 80)


def _suite(name: str, description: str, packs: list[dict[str, Any]],
           **defaults: Any) -> dict[str, Any]:
    return {"suite": {"name": name, "description": description},
            "defaults": defaults, "packs": packs}


def _pack(dataset: str, experiments: list[dict[str, Any]], *,
          name: str | None = None) -> dict[str, Any]:
    return {"name": name or dataset, "defaults": {"dataset": dataset},
            "experiments": experiments}


#: Suite mappings keyed by the experiment name ``snaple <name>`` runs.
PAPER_SUITES: dict[str, dict[str, Any]] = {
    "figure7": _suite(
        "figure7",
        "Figure 7: recall of the Γmax/Γmin/Γrnd neighbor-selection policies "
        "vs klocal on livejournal",
        [_pack("livejournal", [
            {"name": f"{policy}-klocal{k_local}",
             "config": {"score": score, "sampler": policy,
                        "k_local": k_local}}
            for policy in ("max", "min", "rnd") for k_local in _KLOCALS
        ], name=score) for score in ("counter", "linearSum", "PPR")],
    ),
    "figure8": _suite(
        "figure8",
        "Figure 8: recall and time of every scoring configuration vs klocal "
        "(Sum, Mean and Geom families)",
        [_pack(dataset, [
            {"name": f"{score}-klocal{k_local}",
             "config": {"score": score, "k_local": k_local}}
            for score in family for k_local in _KLOCALS
        ], name=f"{dataset}-{family_name}")
         for dataset in ("livejournal", "twitter-rv")
         for family_name, family in (("Sum", SUM_FAMILY),
                                     ("Mean", MEAN_FAMILY),
                                     ("Geom", GEOM_FAMILY))],
    ),
    "figure9": _suite(
        "figure9",
        "Figure 9: recall vs the number of returned predictions k "
        "(Sum family, klocal=80)",
        [_pack(dataset, [
            {"name": f"{score}-k{k}", "config": {"score": score, "k": k}}
            for score in SUM_FAMILY for k in (5, 10, 15, 20)
        ]) for dataset in ("livejournal", "pokec")],
        config={"k_local": 80},
    ),
    "figure10": _suite(
        "figure10",
        "Figure 10: recall vs removed edges per vertex "
        "(Sum family, klocal=80)",
        [_pack(dataset, [
            {"name": f"{score}-removed{removed}",
             "config": {"score": score},
             "protocol": {"removed_edges_per_vertex": removed}}
            for score in SUM_FAMILY for removed in (1, 2, 3, 4, 5)
        ]) for dataset in ("livejournal", "pokec")],
        config={"k_local": 80},
    ),
    "ablation-alpha": _suite(
        "ablation-alpha",
        "Ablation: recall of linearSum vs the linear combinator weight α "
        "(klocal=80)",
        [_pack(dataset, [
            {"name": f"alpha{alpha}", "config": {"alpha": alpha}}
            for alpha in (0.1, 0.25, 0.5, 0.75, 0.9, 1.0)
        ]) for dataset in ("livejournal", "pokec")],
        config={"score": "linearSum", "k_local": 80},
    ),
    "ablation-khop": _suite(
        "ablation-khop",
        "Ablation: recall and explored paths of the khop engine for path "
        "length K = 2, 3 (linearSum)",
        [_pack("livejournal", [
            {"name": f"klocal{k_local}-K{num_hops}",
             "config": {"k_local": k_local},
             "backend_options": {"num_hops": num_hops}}
            for k_local in (5, 10) for num_hops in (2, 3)
        ])],
        backend="khop",
        config={"score": "linearSum"},
    ),
}


def paper_suite(name: str, *, scale: float = 1.0, seed: int = 42,
                mode: str | None = None) -> SuiteSpec:
    """The parsed suite ``name`` at ``scale`` and ``seed``.

    ``mode`` is the ``local`` backend's execution mode
    (``"vectorized"``/``"reference"``); it is refused for a suite that
    runs another backend.
    """
    data = deep_merge(PAPER_SUITES[name],
                      {"defaults": {"scale": scale, "seed": seed}})
    if mode is not None:
        backend = data["defaults"].get("backend", "local")
        if backend != "local":
            raise ConfigurationError(
                f"experiment {name!r} runs the {backend!r} backend, which "
                "has no execution mode"
            )
        data = deep_merge(data, {"defaults": {"backend_options": {"mode": mode}}})
    return parse_suite(data, default_name=name)


def run_paper_suite(name: str, *, scale: float = 1.0, seed: int = 42,
                    mode: str | None = None) -> SuiteResult:
    """Run the paper suite ``name`` (see :func:`paper_suite`)."""
    return run_suite(paper_suite(name, scale=scale, seed=seed, mode=mode))


def _entry_point(name: str) -> functools.partial:
    run = functools.partial(run_paper_suite, name)
    # A partial's own __doc__ is partial's docstring; listings read this one.
    run.__doc__ = PAPER_SUITES[name]["suite"]["description"]
    return run


#: ``snaple <name>`` entry points, merged into ``EXPERIMENTS``.
PAPER_EXPERIMENTS = {name: _entry_point(name) for name in PAPER_SUITES}
