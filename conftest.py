"""Repository-root pytest configuration.

Registers the runtime-sanitizer plugin: ``pytest --detsan`` runs every
test inside the determinism sanitizer (``repro.lint.detsan``).  The
plugin lives in the package so it is importable wherever ``repro`` is;
registering it here (the rootdir conftest) keeps ``pytest`` invocations
from any subdirectory consistent.
"""

pytest_plugins = ["repro.lint.sanitizers_pytest"]
