"""Content-hash facts cache for the whole-program analysis.

One JSON document maps each file path to a sha256 of its bytes plus the
extracted :class:`~repro.lint.program.facts.FileFacts`; the document as
a whole is keyed on :func:`logic_digest` and :func:`interpreter_token`.
On a warm run facts are re-extracted for changed files only; graph
construction and the interprocedural rules always run fresh (they are
cheap — parsing and fact extraction are the expensive part).

The cache is opt-in (``repro-lint --cache PATH``): the default CLI run
writes nothing, so linting a read-only checkout stays side-effect-free.
Writes are atomic (tmp file + ``os.replace``) so a crashed run can never
leave a truncated document, and any unreadable/undecodable cache file is
treated as empty rather than an error.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import asdict
from typing import Any, Dict, Optional

from ..core import SourceFile, iter_python_files
from .facts import FileFacts, extract_facts

#: The ``repro.lint`` package directory: every module that defines what
#: facts are extracted and what the rules make of them.
LINT_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def logic_digest(root: str = LINT_ROOT) -> str:
    """sha256 over the source of every module under ``root``.

    Facts themselves are a pure function of file bytes, but a cached
    document written by an older checkout may predate an edit that
    changed *what facts mean* (new store kinds, different alias
    handling).  Keying the cache on the analysis code's own bytes flushes
    every stale entry on any such edit, with nothing to remember to bump.
    """
    digest = hashlib.sha256()
    for path in iter_python_files([root]):
        digest.update(os.path.relpath(path, root).encode("utf-8"))
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def interpreter_token() -> str:
    """The Python feature version the cache was written under.

    ``ast.parse`` output is version-dependent (new node types, changed
    ``lineno`` conventions), so facts extracted under 3.9 are not
    trustworthy under 3.12 even for byte-identical sources.  Without
    this key a cache file shared across interpreters — a CI cache
    restored into a different matrix leg, a local venv switch — would
    be silently trusted.
    """
    return "%d.%d" % sys.version_info[:2]


def content_hash(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


class FactsCache:
    """path -> (content hash, facts) with an on-disk JSON baseline."""

    def __init__(self, cache_path: Optional[str] = None):
        self.cache_path = cache_path
        self.entries: Dict[str, Dict[str, Any]] = {}
        self.hits = 0
        self.misses = 0
        self.logic = logic_digest()
        if cache_path is not None:
            self._load(cache_path)

    def _load(self, cache_path: str) -> None:
        try:
            with open(cache_path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return
        if not isinstance(payload, dict) or payload.get("logic") != self.logic:
            return  # the analysis code changed; every cached fact is suspect
        if payload.get("python") != interpreter_token():
            return  # written under a different interpreter's AST
        files = payload.get("files")
        if isinstance(files, dict):
            self.entries = files

    def facts_for(self, file: SourceFile) -> FileFacts:
        """Cached facts when the content hash matches, else re-extract."""
        digest = content_hash(file.source)
        entry = self.entries.get(file.path)
        if entry is not None and entry.get("hash") == digest:
            try:
                facts = FileFacts.from_dict(entry["facts"])
            except (KeyError, TypeError):
                pass
            else:
                if facts.module == file.module:
                    self.hits += 1
                    return facts
        self.misses += 1
        facts = extract_facts(file)
        self.entries[file.path] = {"hash": digest, "facts": asdict(facts)}
        return facts

    def save(self) -> None:
        if self.cache_path is None:
            return
        payload = {
            "logic": self.logic,
            "python": interpreter_token(),
            "files": self.entries,
        }
        tmp_path = self.cache_path + ".tmp"
        directory = os.path.dirname(os.path.abspath(self.cache_path))
        os.makedirs(directory, exist_ok=True)
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True, separators=(",", ":"))
        os.replace(tmp_path, self.cache_path)
