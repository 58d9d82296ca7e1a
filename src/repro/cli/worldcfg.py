"""World-configuration serialization for the CLI.

Worlds are fully determined by their :class:`InternetConfig`, so the CLI
persists a small JSON document instead of a pickled topology; every
command regenerates the identical world from it.  Generation costs
5-6 us per router (measured, docs/performance.md "Where the CLI chain's
host time goes"): 0.03 s for the 5.9 k routers of ``--edge 40 --cpe
2000``, 0.15 s for the benchmark grid's 27.5 k.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from typing import Any, Dict, TextIO

from ..netsim.build import InternetConfig, VantageConfig, validate_config

#: Keys that deserialize into nested VantageConfig objects.
_VANTAGE_KEY = "vantages"


class WorldConfigError(ValueError):
    """A world file that is not an :class:`InternetConfig` document; the
    message is ``path: reason``."""


def config_to_dict(config: InternetConfig) -> Dict[str, Any]:
    data = asdict(config)
    data[_VANTAGE_KEY] = [asdict(vantage) for vantage in config.vantages]
    return data


def _checked(value: Any, default: Any, what: str) -> Any:
    """``value`` as the type of the field's ``default``: an int is
    accepted for a float, and a list becomes a tuple (JSON has none)
    whose items are checked against the default's first item."""
    if isinstance(default, tuple) and isinstance(value, list):
        return tuple(
            _checked(item, default[0], "%s[%d]" % (what, at)) if default else item
            for at, item in enumerate(value)
        )
    if isinstance(default, VantageConfig):
        if not (isinstance(value, dict) and isinstance(value.get("name"), str)):
            raise WorldConfigError("%s must be an object with a string 'name'" % what)
        return _from_dict(VantageConfig, default, value, what)
    wanted = (int, float) if isinstance(default, float) else type(default)
    # (a JSON true is not a number, though Python's bool is an int)
    if isinstance(value, bool) != isinstance(default, bool) or not isinstance(
        value, wanted
    ):
        expected = "list" if isinstance(default, tuple) else type(default).__name__
        raise WorldConfigError(
            "%s must be %s, not %s" % (what, expected, json.dumps(value))
        )
    return value


def _from_dict(cls: type, template: Any, data: Any, what: str) -> Any:
    """``cls(**data)`` once every key is a field of ``cls`` and every
    value has the type ``template`` (an instance holding the defaults)
    has there."""
    if not isinstance(data, dict):
        raise WorldConfigError(
            "%s must be a JSON object, not %s" % (what, json.dumps(data))
        )
    valid = [item.name for item in fields(cls)]
    for key in data:
        if key not in valid:
            raise WorldConfigError(
                "unknown key %r in %s (valid keys: %s)" % (key, what, ", ".join(valid))
            )
    return cls(
        **{
            key: _checked(value, getattr(template, key), "%s.%s" % (what, key))
            for key, value in data.items()
        }
    )


def config_from_dict(data: Dict[str, Any]) -> InternetConfig:
    """The config a ``world``-written document describes; anything else —
    or a world the builder refuses — raises ``ValueError`` naming the
    offending key."""
    config = _from_dict(InternetConfig, InternetConfig(), data, "world")
    validate_config(config)
    return config


def save_config(sink: TextIO, config: InternetConfig) -> None:
    json.dump(config_to_dict(config), sink, indent=2)
    sink.write("\n")


def load_config(source: TextIO) -> InternetConfig:
    name = getattr(source, "name", "<world>")
    try:
        return config_from_dict(json.load(source))
    except ValueError as error:  # a JSON syntax error, or a WorldConfigError
        raise WorldConfigError("%s: %s" % (name, error)) from None
