"""The traced benchmark's view of the engine: ``perfbench/tracing.py``
finds every layer it wraps.  ``python3 -m pytest perfbench`` is a suite of
its own, so without this test a merge or rename that drops a traced
method (``AffRel.compose`` and ``AffRel.tensor`` are bound on their class
for it) would go unseen here."""

import importlib.util
import pathlib

import propnet.cli  # noqa: F401  (the tracer wraps every loaded module)
from propnet.afflag import AffRel
from propnet.linrel import LinRel

TRACING = (pathlib.Path(__file__).resolve().parent.parent / "perfbench"
           / "tracing.py")


def load_tracing():
    """``perfbench/tracing.py`` as a module of its own, read only."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_layer():
    before = {cls: dict(vars(cls)) for cls in (LinRel, AffRel)}
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        # the affine layer is traced apart from the linear one
        assert vars(AffRel)["compose"] is not vars(LinRel)["compose"]
    finally:
        tracer.uninstall()
    assert {cls: dict(vars(cls)) for cls in (LinRel, AffRel)} == before
