"""A name the benchmark's tracer hooks that is gone fails here, not only in a traced run."""

from pathlib import Path

import pytest

from lmplan import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.skipif(not (BENCH / "layers.py").exists(), reason="no bench/ in this checkout")
def test_pass_tracer_finds_every_hooked_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from layers import install_pass_tracer
    from tracing import Tracer

    complete, tracer = cli.complete, Tracer()
    try:
        install_pass_tracer(tracer)  # raises AttributeError for a hooked name that is gone
        assert cli.complete is not complete
    finally:
        tracer.uninstall()
    assert cli.complete is complete
