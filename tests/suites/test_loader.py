"""Suite-file parsing: merge order, schema validation, YAML/TOML parity."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.errors import ConfigurationError
from repro.suites import load_suite, parse_suite
from repro.suites.schema import deep_merge


def _minimal_suite(**experiment) -> dict:
    body = {"dataset": "gowalla"}
    body.update(experiment)
    return {
        "packs": [{
            "name": "pack",
            "experiments": [dict(body, name="exp")],
        }],
    }


class TestDeepMerge:
    def test_scalars_override(self):
        assert deep_merge(1, 2) == 2
        assert deep_merge({"a": 1}, 2) == 2

    def test_mappings_merge_recursively(self):
        merged = deep_merge(
            {"config": {"score": "linearSum", "k_local": 80}, "seed": 1},
            {"config": {"k_local": 20}},
        )
        assert merged == {
            "config": {"score": "linearSum", "k_local": 20},
            "seed": 1,
        }


class TestMergeOrder:
    def test_suite_then_pack_then_experiment(self):
        data = {
            "defaults": {
                "scale": 0.5,
                "seed": 7,
                "config": {"score": "linearSum", "k_local": 80},
            },
            "packs": [{
                "name": "pack",
                "defaults": {
                    "seed": 8,
                    "config": {"k_local": 40},
                    "dataset": "gowalla",
                },
                "experiments": [
                    {"name": "base"},
                    {"name": "override",
                     "seed": 9,
                     "config": {"truncation_threshold": 10}},
                ],
            }],
        }
        suite = parse_suite(data, default_name="merge")
        base, override = suite.experiments
        assert base.scale == 0.5
        assert base.seed == 8  # pack beats suite
        assert base.config == {"score": "linearSum", "k_local": 40}
        assert override.seed == 9  # experiment beats pack
        assert override.config == {
            "score": "linearSum",
            "k_local": 40,
            "truncation_threshold": 10,
        }

    def test_experiment_dataset_string_replaces_default_mapping(self):
        data = {
            "defaults": {
                "dataset": {"source": "powerlaw_cluster",
                            "options": {"num_vertices": 100}},
            },
            "packs": [{
                "name": "pack",
                "experiments": [{"name": "exp", "dataset": "orkut"}],
            }],
        }
        suite = parse_suite(data, default_name="replace")
        (experiment,) = suite.experiments
        assert experiment.dataset.source == "orkut"
        assert experiment.dataset.options == {}

    def test_defaults_fill_missing_sections(self):
        data = _minimal_suite()
        suite = parse_suite(data, default_name="defaults")
        (experiment,) = suite.experiments
        assert experiment.workload == "batch"
        assert experiment.backend == "local"
        assert experiment.scale == 1.0
        assert experiment.seed == 42
        assert experiment.qualified_name == "pack/exp"


class TestSchemaErrors:
    def test_unknown_experiment_key_names_the_path(self):
        data = _minimal_suite(thrust=11)
        with pytest.raises(ConfigurationError,
                           match=r"packs\[0\]\.experiments\[0\]\.thrust"):
            parse_suite(data, default_name="bad")

    def test_unknown_config_key_names_the_path(self):
        data = _minimal_suite(config={"k_locall": 80})
        with pytest.raises(
            ConfigurationError,
            match=r"packs\[0\]\.experiments\[0\]\.config\.k_locall",
        ):
            parse_suite(data, default_name="bad")

    def test_bad_defaults_key_names_the_defaults_path(self):
        data = _minimal_suite()
        data["defaults"] = {"config": {"alpha": "high"}}
        with pytest.raises(ConfigurationError, match=r"defaults\.config\.alpha"):
            parse_suite(data, default_name="bad")

    def test_missing_dataset_is_reported(self):
        data = {
            "packs": [{"name": "pack",
                       "experiments": [{"name": "exp"}]}],
        }
        with pytest.raises(ConfigurationError,
                           match=r"experiments\[0\]\.dataset"):
            parse_suite(data, default_name="bad")

    def test_dataset_mapping_requires_source(self):
        data = _minimal_suite(dataset={"options": {"num_vertices": 10}})
        with pytest.raises(ConfigurationError, match=r"dataset\.source"):
            parse_suite(data, default_name="bad")

    def test_duplicate_experiment_names_rejected(self):
        data = {
            "packs": [{
                "name": "pack",
                "experiments": [
                    {"name": "exp", "dataset": "gowalla"},
                    {"name": "exp", "dataset": "orkut"},
                ],
            }],
        }
        with pytest.raises(ConfigurationError, match="duplicate experiment"):
            parse_suite(data, default_name="bad")

    def test_duplicate_pack_names_rejected(self):
        data = {
            "packs": [
                {"name": "pack",
                 "experiments": [{"name": "a", "dataset": "gowalla"}]},
                {"name": "pack",
                 "experiments": [{"name": "b", "dataset": "gowalla"}]},
            ],
        }
        with pytest.raises(ConfigurationError, match="duplicate pack"):
            parse_suite(data, default_name="bad")

    def test_non_positive_scale_rejected(self):
        data = _minimal_suite(scale=0)
        with pytest.raises(ConfigurationError, match=r"scale.*positive"):
            parse_suite(data, default_name="bad")

    def test_bool_is_not_an_integer_seed(self):
        data = _minimal_suite(seed=True)
        with pytest.raises(ConfigurationError, match=r"seed"):
            parse_suite(data, default_name="bad")

    def test_empty_packs_rejected(self):
        with pytest.raises(ConfigurationError, match="packs"):
            parse_suite({"packs": []}, default_name="bad")

    def test_top_level_must_be_mapping(self):
        with pytest.raises(ConfigurationError, match="mapping"):
            parse_suite(["not", "a", "suite"], default_name="bad")


class TestSelection:
    def _suite(self):
        data = {
            "packs": [
                {"name": "first",
                 "experiments": [{"name": "a", "dataset": "gowalla"},
                                 {"name": "b", "dataset": "gowalla"}]},
                {"name": "second",
                 "experiments": [{"name": "a", "dataset": "orkut"}]},
            ],
        }
        return parse_suite(data, default_name="select")

    def test_select_by_pack(self):
        suite = self._suite()
        selected = suite.select(pack="second")
        assert [e.qualified_name for e in selected] == ["second/a"]

    def test_select_by_experiment(self):
        suite = self._suite()
        selected = suite.select(pack="first", experiment="b")
        assert [e.qualified_name for e in selected] == ["first/b"]

    def test_unknown_pack_lists_available(self):
        with pytest.raises(ConfigurationError, match="first, second"):
            self._suite().select(pack="third")

    def test_unknown_experiment_raises(self):
        with pytest.raises(ConfigurationError, match="no experiment"):
            self._suite().select(experiment="zzz")


class TestFileLoading:
    def test_toml_round_trip(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "suite.toml"
        path.write_text(textwrap.dedent("""\
            [suite]
            name = "toml-suite"

            [defaults]
            seed = 3

            [[packs]]
            name = "pack"

            [[packs.experiments]]
            name = "exp"
            dataset = "gowalla"
        """), encoding="utf-8")
        suite = load_suite(path)
        assert suite.name == "toml-suite"
        assert suite.experiments[0].seed == 3

    def test_yaml_round_trip(self, tmp_path):
        pytest.importorskip("yaml")
        path = tmp_path / "suite.yaml"
        path.write_text(textwrap.dedent("""\
            suite:
              name: yaml-suite
            packs:
              - name: pack
                experiments:
                  - name: exp
                    dataset: gowalla
        """), encoding="utf-8")
        suite = load_suite(path)
        assert suite.name == "yaml-suite"
        assert suite.experiments[0].dataset.source == "gowalla"

    def test_suite_name_defaults_to_file_stem(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "stem-name.toml"
        path.write_text(textwrap.dedent("""\
            [[packs]]
            name = "pack"

            [[packs.experiments]]
            name = "exp"
            dataset = "gowalla"
        """), encoding="utf-8")
        assert load_suite(path).name == "stem-name"

    def test_malformed_toml_reports_the_file(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "broken.toml"
        path.write_text("[packs\n", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="invalid TOML"):
            load_suite(path)

    def test_malformed_yaml_reports_the_file(self, tmp_path):
        pytest.importorskip("yaml")
        path = tmp_path / "broken.yaml"
        path.write_text("packs: [unclosed\n", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="invalid YAML"):
            load_suite(path)

    def test_schema_error_includes_file_and_path(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "bad.toml"
        path.write_text(textwrap.dedent("""\
            [[packs]]
            name = "pack"

            [[packs.experiments]]
            name = "exp"
            dataset = "gowalla"

            [packs.experiments.config]
            k_locall = 80
        """), encoding="utf-8")
        with pytest.raises(
            ConfigurationError,
            match=r"bad\.toml.*packs\[0\]\.experiments\[0\]\.config\.k_locall",
        ):
            load_suite(path)

    def test_missing_file_raises_configuration_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_suite(tmp_path / "nope.toml")

    def test_unknown_extension_rejected(self, tmp_path):
        path = tmp_path / "suite.json"
        path.write_text("{}", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="extension"):
            load_suite(path)


_WITHOUT_TOMLLIB = """\
import sys
sys.modules["tomllib"] = None  # as on Python 3.10: importing it fails
from repro.errors import ConfigurationError
from repro.runtime.registry import available_components
from repro.suites import load_suite
from repro.cli import main

assert "batch" in available_components("workload")
assert load_suite(sys.argv[1]).experiments
assert main(["suite", "list", sys.argv[1]]) == 0
try:
    load_suite(sys.argv[2])
except ConfigurationError as error:
    assert "3.11" in str(error), error
else:
    raise AssertionError("a TOML suite loaded without tomllib")
"""


def test_suites_work_without_tomllib(tmp_path):
    """Without tomllib only TOML suites fail, and with a ConfigurationError."""
    pytest.importorskip("yaml")
    examples = Path(__file__).resolve().parents[2] / "examples" / "suites"
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", _WITHOUT_TOMLLIB,
         str(examples / "bipartite.yaml"), str(examples / "adversarial.toml")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert "linear-sum" in completed.stdout
