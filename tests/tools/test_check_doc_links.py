"""tools/check_doc_links.py: ``ClassName.attr`` references resolve
against the dataclasses of ``repro.core`` and ``repro.engine.backends``
and the seam classes of ``repro.engine.physical`` — a doc naming a
config field or a seam method that was renamed fails the docs gate."""

import os
import sys

_TOOLS = os.path.join(
    os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ),
    "tools",
)
if _TOOLS not in sys.path:
    sys.path.insert(0, _TOOLS)

import check_doc_links as links  # noqa: E402

CLASSES = links._known_classes()


def _check(monkeypatch, tmp_path, name, text):
    (tmp_path / name).write_text(text)
    monkeypatch.setattr(links, "REPO", str(tmp_path))
    return links.check_file(name, CLASSES)


def test_config_dataclasses_are_known():
    assert {
        "ManagerConfig",
        "HybridConfig",
        "CompactTableConfig",
        "ElasticityConfig",
        "BackendOptions",
        "CostModel",
        "PoiReconfiguration",
        "EdgeUpdate",
    } <= set(CLASSES)


def test_a_renamed_field_is_a_dead_link(monkeypatch, tmp_path):
    problems = _check(
        monkeypatch,
        tmp_path,
        "PROTOCOL.md",
        "the watchdog (`ManagerConfig.round_timeout_s`) aborts\n"
        "the watchdog (`ManagerConfig.round_deadline_s`) aborts\n"
        "`BackendOptions.mp_fault` and `BackendOptions.mp_fualt`\n",
    )
    assert problems == [
        "PROTOCOL.md:2: ManagerConfig has no attribute 'round_deadline_s'",
        "PROTOCOL.md:3: BackendOptions has no attribute 'mp_fualt'",
    ]


def test_fields_members_and_other_classes_resolve(monkeypatch, tmp_path):
    assert not _check(
        monkeypatch,
        tmp_path,
        "DESIGN.md",
        # a default_factory field (no class attribute), a property, a
        # method, and classes the checker does not know
        "`PoiReconfiguration.edge_updates` `RoundRecord.is_rescale` "
        "`RescaleSpec.owner_of` `Manager.rounds` `Vocab.encode`\n",
    )


def test_seam_members_and_init_attributes_resolve(monkeypatch, tmp_path):
    """A seam class's method (named bare or called), a property, and an
    attribute its ``__init__`` or a base's assigns resolve; a method
    the seam no longer has does not."""
    problems = _check(
        monkeypatch,
        tmp_path,
        "DESIGN.md",
        "`PhysicalPlan.reconfigure` `PhysicalPlan.release(op)` "
        "`HostedBolt.completed` `StreamRoutes.n` `HostedBolt.stats`\n"
        "`PhysicalPlan.apply_action(action)` applies it\n"
        "`StreamRoutes.width`\n",
    )
    assert problems == [
        "DESIGN.md:2: PhysicalPlan has no attribute 'apply_action'",
        "DESIGN.md:3: StreamRoutes has no attribute 'width'",
    ]


#: a numbered citation is built, not written, so that the gate, which
#: walks tests/ too, does not flag this file
_ITEM = "ROADMAP item"


def test_roadmap_items_are_cited_by_title(monkeypatch, tmp_path):
    """A numbered ROADMAP item fails in the docs and under src/, tools/
    and tests/, across a line break too; a title, and the roadmap and
    history themselves, do not."""
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "bench.py").write_text(
        f'"""Gated once the\n{_ITEM} 7 lands."""\n'
    )
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "run.py").write_text(
        "# re-homed by the ROADMAP\n# item 2 of the list\n"
    )
    (tmp_path / "tests" / "core").mkdir(parents=True)
    (tmp_path / "tests" / "core" / "test_round.py").write_text(
        f'def test_heal():\n    """Reached only by an abort ({_ITEM} 6)."""\n'
    )
    (tmp_path / "tests" / "core" / "test_ok.py").write_text(
        f'"""The {_ITEM} *Differential fuzzing across backends*."""\n'
    )
    (tmp_path / "DESIGN.md").write_text(
        f"the {_ITEM} *Telemetry on every backend, one catalog*\n"
    )
    (tmp_path / "README.md").write_text(f"See {_ITEM} 3.\n")
    (tmp_path / "ROADMAP.md").write_text(f"- **3 · {_ITEM} 3**\n")
    (tmp_path / "CHANGES.md").write_text(f"- {_ITEM} 3 closed\n")
    monkeypatch.setattr(links, "REPO", str(tmp_path))
    message = "cite the ROADMAP item by its title, not its number"
    assert links.check_roadmap_citations() == [
        f"README.md:1: {message}",
        f"src/repro/run.py:1: {message}",
        f"tools/bench.py:2: {message}",
        f"tests/core/test_round.py:2: {message}",
    ]


def test_the_repo_cites_roadmap_items_by_title():
    """The gate is clean on the repo itself, this file included."""
    assert links.check_roadmap_citations() == []


def test_design_describes_the_code_not_its_prs(monkeypatch, tmp_path):
    """``PR <n>`` in DESIGN.md fails, across a line break too; the
    history and the roadmap may narrate."""
    (tmp_path / "DESIGN.md").write_text(
        "A PROPAGATE barrier (PRs welcome).\n"
        "Until PR 9 there was one backend.\n"
        "Since the\nPR\n17 partitioner, passes stop.\n"
    )
    (tmp_path / "CHANGES.md").write_text("- PR 9: backends\n")
    (tmp_path / "ROADMAP.md").write_text("PR 24 measured it.\n")
    monkeypatch.setattr(links, "REPO", str(tmp_path))
    message = "PR narration belongs in CHANGES.md; describe the code as it is"
    assert links.check_pr_narration() == [
        f"DESIGN.md:2: {message}",
        f"DESIGN.md:4: {message}",
    ]


def test_history_names_fields_as_they_were(monkeypatch, tmp_path):
    assert not _check(
        monkeypatch,
        tmp_path,
        "CHANGES.md",
        "- PR 4: `CostModel.router_cache_size` sizes the LRU\n",
    )


def test_changes_entries_keep_to_the_word_budget(monkeypatch, tmp_path):
    """An entry numbered ``BUDGETED_FROM_PR`` or later, continuation
    lines included, is at most 250 words; older entries and FOUND lines
    are not counted."""
    def words(count):
        return " ".join(["word"] * count)

    (tmp_path / "CHANGES.md").write_text(
        "# CHANGES\n\n"
        f"- PR 40: {words(600)}\n"
        f"- PR 41: {words(247)}\n"
        f"FOUND: {words(300)}\n"
        f"- PR 42: {words(100)}\n"
        f"{words(149)}\n"
        f"- PR 43: {words(200)}\n"
        f"MENDED: {words(300)}\n"
    )
    monkeypatch.setattr(links, "REPO", str(tmp_path))
    assert links.check_changes_budget() == [
        "CHANGES.md:6: the PR 42 entry is 252 words; keep it to 250",
    ]


def test_the_repo_keeps_its_changes_entries_to_the_budget():
    assert links.check_changes_budget() == []
