"""Suite-file loading: YAML or TOML in, :class:`SuiteSpec` out.

The format is chosen by file extension (``.yaml``/``.yml`` vs ``.toml``).
TOML needs :mod:`tomllib`, which ships with Python 3.11 and later; YAML
needs PyYAML, which is an *optional* dependency.  Both parsers are imported
only when a file of their format is loaded, and a missing one raises a
:class:`~repro.errors.ConfigurationError` pointing at the other format
instead of an ``ImportError`` from deep inside the import machinery.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError
from repro.suites.schema import SuiteSpec, parse_suite

__all__ = ["load_suite", "SUITE_EXTENSIONS"]

#: Recognized suite-file extensions.
SUITE_EXTENSIONS: tuple[str, ...] = (".yaml", ".yml", ".toml")


def _parse_yaml(text: str, path: Path) -> Any:
    try:
        import yaml
    except ModuleNotFoundError:
        raise ConfigurationError(
            f"cannot load {path}: PyYAML is not installed; write the suite "
            "in TOML (.toml) instead, or install pyyaml"
        ) from None
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as error:
        raise ConfigurationError(
            f"invalid YAML in {path}: {error}"
        ) from error


def _parse_toml(text: str, path: Path) -> Any:
    try:
        import tomllib
    except ModuleNotFoundError:
        raise ConfigurationError(
            f"cannot load {path}: TOML suites need Python 3.11 or later "
            "(tomllib); write the suite in YAML (.yaml) instead"
        ) from None
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as error:
        raise ConfigurationError(
            f"invalid TOML in {path}: {error}"
        ) from error


def load_suite(path: str | Path) -> SuiteSpec:
    """Load and validate the suite file at ``path``.

    Raises
    ------
    ConfigurationError
        For a missing file, an unrecognized extension, a parse error, or
        any schema violation (the message names the offending key path).
    """
    path = Path(path)
    if path.suffix.lower() not in SUITE_EXTENSIONS:
        raise ConfigurationError(
            f"unrecognized suite-file extension {path.suffix!r} for {path}; "
            f"expected one of: {', '.join(SUITE_EXTENSIONS)}"
        )
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        raise ConfigurationError(
            f"cannot read suite file {path}: {error}"
        ) from error
    if path.suffix.lower() == ".toml":
        data = _parse_toml(text, path)
    else:
        data = _parse_yaml(text, path)
    try:
        return parse_suite(data, default_name=path.stem, source=str(path))
    except ConfigurationError as error:
        raise ConfigurationError(f"{path}: {error}") from None
