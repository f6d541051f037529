#!/usr/bin/env python
"""Dead-link check for the repo's documentation (the CI docs gate).

Scans the top-level Markdown files for three kinds of internal
references and fails when any points at nothing:

1. Markdown links ``[text](target)`` whose target is a relative path
   (external ``http(s)://`` links are not checked — CI is offline);
2. backtick-quoted repo paths like ``src/repro/engine/metrics.py``,
   ``examples/quickstart.py`` or ``perf/run.py`` (``results/...`` is
   run output, never committed, and is not checked);
3. section cross-references of the form ``DESIGN.md §N`` — the target
   file must contain a ``## N.`` heading.

``CHANGES.md`` is history: each entry names files as they were at that
PR, so it is checked for links and section references but not for
path existence.

Module references like ``repro.observability`` (optionally dotted
down to a class or attribute, e.g. ``repro.core.TableDelta``) are
verified by *importing* them: the module must import cleanly from
``src/`` and the trailing attribute must exist — a doc naming a
renamed class fails the gate, not just one naming a deleted file.
``ClassName.attr`` references to the dataclasses of ``repro.core`` and
``repro.engine.backends`` (``ManagerConfig.round_timeout_s``,
``BackendOptions.mp_fault``, …) and to the seam classes of
``repro.engine.physical`` (``PhysicalPlan.release``, ``StreamRoutes.n``)
are resolved the same way: the attribute must be a field or member of
the class, or one its ``__init__`` (or a base's) assigns, so a doc
naming a renamed config field or seam method fails too. ``CHANGES.md``
is exempt (names as they were).

Each ``CHANGES.md`` entry (its ``- PR <n>:`` line and any lines that
continue it) numbered :data:`BUDGETED_FROM_PR` or later is at most
:data:`WORD_BUDGET` words, so the history stays in proportion to the
change; older entries predate the budget.

ROADMAP items are renumbered whenever the roadmap is rewritten, so the
docs that describe the code (README, DESIGN, EXPERIMENTS) and every
``.py`` file under ``src/``, ``tools/`` and ``tests/`` cite an item by
its title:
``ROADMAP item <n>`` there fails the gate, even across a line break
of prose or of ``#`` comments. DESIGN describes the code as it is, so
``PR <n>`` there fails too: what changed in which PR is CHANGES.md's.
Exit status 0 = clean, 1 = dead links (each printed as
``file:line: message``).

Run:  python tools/check_doc_links.py
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DOC_FILES = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
    "CHANGES.md",
    "docs/PROTOCOL.md",
]

#: name files as of each entry's PR: paths are not checked for existence
HISTORY_FILES = {"CHANGES.md"}

MD_LINK = re.compile(r"\[[^\]]+\]\(([^)#\s]+)[^)]*\)")
#: backtick path: at least one slash, a known top dir, a file-ish tail
CODE_PATH = re.compile(
    r"`((?:src|examples|benchmarks|tests|tools|campaigns|perf)/[\w./\-*]+)`"
)
SECTION_REF = re.compile(r"(\w+\.md) §(\d+)")
MODULE_REF = re.compile(r"`(repro(?:\.\w+)+)`")
CLASS_ATTR_REF = re.compile(r"`([A-Z]\w+)\.([a-z_]\w*)(?:\([^`]*\))?`")
#: packages whose (transitively imported) dataclasses are resolvable
DATACLASS_PACKAGES = ("repro.core", "repro.engine.backends")
#: the module whose own classes (the backend seam) are resolvable
SEAM_MODULE = "repro.engine.physical"
#: ``self.<name> =`` (annotated or not) in an ``__init__``
INIT_ASSIGN = re.compile(r"\bself\.(\w+)\s*(?::[^=\n]+)?=(?!=)")
#: a numbered citation, also across a line break of prose or comments
ROADMAP_NUMBER = re.compile(r"ROADMAP[\s#]+item[\s#]+\d")
#: docs and source trees that must cite ROADMAP items by title
TITLE_CITING = [
    "README.md", "DESIGN.md", "EXPERIMENTS.md", "src", "tools", "tests"
]
#: a PR number, also across a line break
PR_NUMBER = re.compile(r"\bPRs?\s+\d")
#: docs that describe the code as it is, with no PR narration
PRESENT_TENSE = ["DESIGN.md"]
#: a CHANGES.md entry's first line, and the lines that start anything else
CHANGES_ENTRY = re.compile(r"- PR (\d+):")
CHANGES_OTHER = re.compile(r"- |FOUND:|MENDED:|#|\s*$")
#: entries of PRs numbered from this one on keep to WORD_BUDGET words
BUDGETED_FROM_PR = 41
WORD_BUDGET = 250


def _exists(rel: str, base: str = "") -> bool:
    return os.path.exists(os.path.join(REPO, base, rel))


def _src_on_path() -> None:
    src = os.path.join(REPO, "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def _module_exists(dotted: str) -> bool:
    """Importlib-verify a ``repro.*`` reference: split off trailing
    capitalized attribute parts (e.g. the class in
    ``repro.analysis.telemetry.TelemetryLog``), import the module
    part, then require each attribute part to resolve."""
    _src_on_path()
    parts = dotted.split(".")
    # Longest importable prefix, remainder resolved as attributes —
    # handles classes (repro.core.TableDelta) and functions
    # (repro.core.routing_table.entry_fingerprint) alike.
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            try:
                obj = getattr(obj, attr)
            except AttributeError:
                return False
        return True
    return False


def _known_classes() -> dict:
    """``{class name: class}`` of every dataclass a module of
    :data:`DATACLASS_PACKAGES` defines or imports, and of every class
    :data:`SEAM_MODULE` defines."""
    _src_on_path()
    for package in (*DATACLASS_PACKAGES, SEAM_MODULE):
        importlib.import_module(package)
    classes = {
        name: obj
        for module_name, module in sorted(sys.modules.items())
        if module_name.startswith(DATACLASS_PACKAGES)
        for name, obj in vars(module).items()
        if isinstance(obj, type) and dataclasses.is_dataclass(obj)
    }
    classes.update(
        (name, obj)
        for name, obj in vars(sys.modules[SEAM_MODULE]).items()
        if isinstance(obj, type) and obj.__module__ == SEAM_MODULE
    )
    return classes


def _init_attributes(cls: type) -> set:
    """The names ``__init__`` of ``cls`` or of a base assigns on self."""
    names = set()
    for klass in cls.__mro__:
        try:
            source = inspect.getsource(vars(klass)["__init__"])
        except (KeyError, TypeError, OSError):
            continue  # none, ``object``'s, or a dataclass's generated one
        names.update(INIT_ASSIGN.findall(source))
    return names


def _class_attr_exists(classes: dict, class_name: str, attr: str) -> bool:
    """A ``ClassName.attr`` reference resolves unless ``ClassName`` is
    one of ``classes`` and has no field, member or ``__init__``-assigned
    attribute ``attr``."""
    cls = classes.get(class_name)
    return (
        cls is None
        or attr in getattr(cls, "__dataclass_fields__", ())
        or hasattr(cls, attr)
        or attr in _init_attributes(cls)
    )


def _section_exists(md_file: str, number: str) -> bool:
    path = os.path.join(REPO, md_file)
    if not os.path.isfile(path):
        return False
    with open(path) as handle:
        return any(
            re.match(rf"##+ {number}[.\s]", line) for line in handle
        )


def check_file(rel: str, classes: dict) -> list:
    problems = []
    # Markdown links are relative to the doc's own directory; backtick
    # repo paths and module refs are repo-root anchored everywhere.
    doc_dir = os.path.dirname(rel)
    check_paths = rel not in HISTORY_FILES
    with open(os.path.join(REPO, rel)) as handle:
        for lineno, line in enumerate(handle, 1):
            for match in MD_LINK.finditer(line):
                target = match.group(1)
                if target.startswith(("http://", "https://", "mailto:")):
                    continue
                if not _exists(target, doc_dir):
                    problems.append(
                        f"{rel}:{lineno}: dead link target {target!r}"
                    )
            for match in CODE_PATH.finditer(line) if check_paths else ():
                target = match.group(1)
                if "*" in target or "NN" in target:
                    # glob mention or figNN-style placeholder
                    continue
                if not _exists(target):
                    problems.append(
                        f"{rel}:{lineno}: missing path {target!r}"
                    )
            for match in SECTION_REF.finditer(line):
                md_file, number = match.groups()
                if md_file not in DOC_FILES:
                    continue
                if not _section_exists(md_file, number):
                    problems.append(
                        f"{rel}:{lineno}: {md_file} has no section "
                        f"§{number}"
                    )
            for match in MODULE_REF.finditer(line):
                dotted = match.group(1)
                if not _module_exists(dotted):
                    problems.append(
                        f"{rel}:{lineno}: unknown module {dotted!r}"
                    )
            for match in CLASS_ATTR_REF.finditer(line) if check_paths else ():
                if not _class_attr_exists(classes, *match.groups()):
                    problems.append(
                        f"{rel}:{lineno}: {match.group(1)} has no "
                        f"attribute {match.group(2)!r}"
                    )
    return problems


def _title_citing_files() -> list:
    """The files of :data:`TITLE_CITING`, directories walked for
    ``.py`` files, repo-relative."""
    files = []
    for rel in TITLE_CITING:
        path = os.path.join(REPO, rel)
        if os.path.isfile(path):
            files.append(rel)
        for root, _, names in sorted(os.walk(path)):
            files.extend(
                os.path.relpath(os.path.join(root, name), REPO)
                for name in sorted(names)
                if name.endswith(".py")
            )
    return files


def _matches(files, pattern, message: str) -> list:
    """``file:line: message`` for every match of ``pattern``."""
    problems = []
    for rel in files:
        with open(os.path.join(REPO, rel)) as handle:
            text = handle.read()
        for match in pattern.finditer(text):
            lineno = text.count("\n", 0, match.start()) + 1
            problems.append(f"{rel}:{lineno}: {message}")
    return problems


def check_roadmap_citations() -> list:
    """Every ``ROADMAP item <n>`` in a :data:`TITLE_CITING` file."""
    return _matches(
        _title_citing_files(),
        ROADMAP_NUMBER,
        "cite the ROADMAP item by its title, not its number",
    )


def check_pr_narration() -> list:
    """Every ``PR <n>`` in a :data:`PRESENT_TENSE` doc."""
    return _matches(
        [rel for rel in PRESENT_TENSE if _exists(rel)],
        PR_NUMBER,
        "PR narration belongs in CHANGES.md; describe the code as it is",
    )


def check_changes_budget(rel: str = "CHANGES.md") -> list:
    """Every budgeted CHANGES entry longer than :data:`WORD_BUDGET`."""
    entries = []  # [lineno, PR number, words]
    with open(os.path.join(REPO, rel)) as handle:
        for lineno, line in enumerate(handle, 1):
            start = CHANGES_ENTRY.match(line)
            if start:
                entries.append([lineno, int(start.group(1)), 0])
            elif CHANGES_OTHER.match(line):
                entries.append([lineno, None, 0])
            if entries:
                entries[-1][2] += len(line.split())
    return [
        f"{rel}:{lineno}: the PR {pr} entry is {words} words; "
        f"keep it to {WORD_BUDGET}"
        for lineno, pr, words in entries
        if pr is not None and pr >= BUDGETED_FROM_PR and words > WORD_BUDGET
    ]


def main() -> int:
    problems = []
    classes = _known_classes()
    for rel in DOC_FILES:
        if _exists(rel):
            problems.extend(check_file(rel, classes))
    problems.extend(check_roadmap_citations())
    problems.extend(check_pr_narration())
    if _exists("CHANGES.md"):
        problems.extend(check_changes_budget())
    for problem in problems:
        print(problem)
    if problems:
        print(f"{len(problems)} dead doc link(s)")
        return 1
    print(f"doc links OK ({', '.join(f for f in DOC_FILES if _exists(f))})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
