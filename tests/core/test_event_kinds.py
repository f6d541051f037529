"""Scheduled callbacks are identified by the event they model.

``repro.engine.simulator.event_kind`` tags a callback with a kind. The
determinism fingerprint folds ``(time, kind)`` and RPC faults match on
the kind, so a tagged callback's Python name and module are free to
change. These tests hold that contract:

- every event a ``matrix-quick`` cell executes carries a kind, and the
  cell still reproduces its committed fingerprint;
- kinds are unique across ``repro``;
- a tag is the function itself, never a wrapper (the DES hot path
  gains no call frame);
- renaming or moving a tagged callback leaves a seeded run's
  fingerprint unchanged.

No numpy here: the ``chaos`` CI job runs this file without it.
"""

import ast
import importlib
import inspect
import json
import os
import types
from collections import Counter

import pytest

import repro
from repro.campaign.runners import episode_config, run_episode_cell
from repro.core import Manager
from repro.engine.simulator import Simulator, event_kind
from repro.testing import episode
from repro.testing.episode import run_episode

SRC = os.path.dirname(repro.__file__)
BASELINE = os.path.join(
    os.path.dirname(__file__),
    "..",
    "..",
    "campaigns",
    "baselines",
    "matrix-quick.json",
)
SEED = 7
#: the ``defaults`` of campaigns/matrix-quick.yaml
MATRIX_DEFAULTS = {"parallelism": 3, "keys": 16, "exponent": 1.4}


def _cell(faults: bool, rescale: bool):
    """``(cell id, params)`` of one matrix-quick cell (hybrid, compact
    tables off, delta propagation on)."""
    flags = {
        "compact_tables": False,
        "delta_propagation": True,
        "faults": faults,
        "hybrid": False,
        "rescale": rescale,
    }
    cell_id = ",".join(
        f"{name}={'on' if value else 'off'}"
        for name, value in sorted(flags.items())
    )
    return f"{cell_id},seed={SEED}", dict(MATRIX_DEFAULTS, **flags)


@pytest.mark.parametrize(
    "faults, rescale", [(True, True), (False, False)], ids=["chaos", "calm"]
)
def test_every_event_of_a_matrix_cell_carries_a_kind(
    monkeypatch, faults, rescale
):
    untagged = Counter()
    fp_update = Simulator._fp_update

    def spy(self, time, fn):
        if getattr(fn, "event_kind", None) is None:
            untagged[getattr(fn, "__qualname__", repr(fn))] += 1
        fp_update(self, time, fn)

    monkeypatch.setattr(Simulator, "_fp_update", spy)
    cell_id, params = _cell(faults, rescale)
    outcome = run_episode_cell(params, SEED)
    assert outcome.metrics["violations"] == 0
    assert (outcome.metrics["faults_injected"] > 0) == faults
    assert not untagged, f"events without a kind: {dict(untagged)}"
    with open(BASELINE, encoding="utf-8") as handle:
        pinned = json.load(handle)["fingerprints"]
    assert outcome.fingerprint == pinned[cell_id]


def _tagged_functions():
    """Every tagged function of ``repro``: the decorator sites a source
    scan finds, collected from the imported modules (a tag on anything
    the module does not expose — a closure — fails here)."""
    found = []
    for root, _, files in os.walk(SRC):
        for filename in sorted(files):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(root, filename)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            sites = sorted(
                node.name
                for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)
                and any(
                    isinstance(d, ast.Call)
                    and getattr(d.func, "id", None) == "event_kind"
                    for d in node.decorator_list
                )
            )
            if not sites:
                continue
            relative = os.path.relpath(path, os.path.dirname(SRC))
            module = importlib.import_module(
                relative[: -len(".py")].replace(os.sep, ".")
            )
            members = [
                fn
                for obj in vars(module).values()
                if getattr(obj, "__module__", None) == module.__name__
                for fn in (
                    vars(obj).values() if inspect.isclass(obj) else [obj]
                )
                if hasattr(fn, "event_kind")
            ]
            assert sorted(fn.__name__ for fn in members) == sites, path
            found.extend(members)
    return found


def test_kinds_are_unique_across_repro():
    tagged = _tagged_functions()
    assert len(tagged) >= 20
    kinds = Counter(fn.event_kind for fn in tagged)
    assert [kind for kind, n in kinds.items() if n > 1] == []


def test_a_tagged_callback_is_its_own_function():
    def callback():
        pass

    assert event_kind("PROBE")(callback) is callback
    assert callback.event_kind == "PROBE"
    for fn in _tagged_functions():
        assert isinstance(fn, types.FunctionType), fn
        assert fn.__code__.co_name == fn.__name__, fn
        assert not hasattr(fn, "__wrapped__"), fn


def _renamed(fn, name: str, keep_kind: bool = True):
    """A copy of ``fn`` under another name and class, as a rename or a
    move to another module would leave it."""
    clone = types.FunctionType(
        fn.__code__.replace(co_name=name),
        fn.__globals__,
        name,
        fn.__defaults__,
        fn.__closure__,
    )
    clone.__qualname__ = f"Elsewhere.{name}"
    if keep_kind:
        clone.event_kind = fn.event_kind
    return clone


def test_renaming_a_tagged_callback_keeps_the_fingerprint(monkeypatch):
    config = episode_config(_cell(faults=True, rescale=True)[1], SEED)
    before = run_episode(config)
    assert before.rounds_completed > 0

    class Moved(Manager):
        _on_ack = _renamed(Manager._on_ack, "acknowledged")

    monkeypatch.setattr(episode, "Manager", Moved)
    assert run_episode(config).fingerprint == before.fingerprint

    # the control: had the name counted, the rename would show
    class Untagged(Manager):
        _on_ack = _renamed(Manager._on_ack, "acknowledged", keep_kind=False)

    monkeypatch.setattr(episode, "Manager", Untagged)
    assert run_episode(config).fingerprint != before.fingerprint
