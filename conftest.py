"""Repository-root pytest configuration.

Registers the runtime-sanitizer plugin: ``pytest --detsan`` runs every
test inside the determinism sanitizer (``repro.lint.detsan``),
``pytest --shardsan`` inside the shared-world write sanitizer
(``repro.lint.shardsan``), and ``pytest --faultsan`` enables the
fault-injection chaos suite (``repro.lint.faultsan``; the marked tests
skip without the flag), and ``pytest --allocsan`` enables the
allocation-budget suite (``repro.lint.allocsan``; campaigns under
tracemalloc, also marker-gated).  The plugin lives in the package so
it is importable wherever ``repro`` is; registering it here (the
rootdir conftest) keeps ``pytest`` invocations from any subdirectory
consistent.
"""

pytest_plugins = ["repro.lint.sanitizers_pytest"]
