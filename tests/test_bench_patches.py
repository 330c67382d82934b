"""The traced benchmark run patches library names where they are looked up
(perfbench/layers.py); every name it patches must still be there."""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

from mtlmon.toolchain import DEFAULT_CONFIG

LAYERS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def test_the_traced_run_patches_and_restores_every_name_it_names():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    lib = SimpleNamespace(**{m: importlib.import_module(f"mtlmon.{m}") for m in layers.LAYERS})
    originals = {m: dict(vars(getattr(lib, m))) for m in layers.LAYERS}
    tracer = layers.Tracer()
    restore = layers.instrument(lib, tracer)  # KeyError on a name that is gone
    try:
        f = lib.formula.parse("ap0 U[0,2] ap1")
        body = lib.bitstream.encode_program(lib.compiler.compile_formula(f, DEFAULT_CONFIG))
        lib.fabric.Fabric(DEFAULT_CONFIG).load(body)
    finally:
        restore()
    assert {m: dict(vars(getattr(lib, m))) for m in layers.LAYERS} == originals
    assert {"formula.parse", "compiler.compile_formula", "bitstream.encode_program",
            "fabric.load", "bitstream.decode_program"} <= {span[0] for span in tracer.spans}
