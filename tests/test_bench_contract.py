"""The benchmark under ``bench/`` reads ``fneq`` names: the traced run
rebinds the functions that ``bench/layers.py`` names, and every run calls
others directly. Checking those names here makes a removed or renamed
one fail the test suite, not only benchmark runs."""

import functools
import importlib.util
import re
import sys
from pathlib import Path

import fneq
import fneq.cli
import fneq.tuner

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fneq_bindings() -> dict:
    return {
        (mod_name, key): value
        for mod_name, mod in list(sys.modules.items())
        if mod is not None and (mod_name == "fneq" or mod_name.startswith("fneq."))
        for key, value in vars(mod).items()
    }


def test_layers_install_and_uninstall_cleanly():
    layers, tracer_module = load_bench_module("layers"), load_bench_module("tracer")
    tracer = tracer_module.Tracer()
    before = fneq_bindings()
    inits = {cls: cls.__dict__["__post_init__"] for cls in (fneq.core.Dataset, fneq.core.CodeMatrix)}
    try:
        layers.install(tracer, fneq)
        during = fneq_bindings()
        rebound = {key for key in before if during[key] is not before[key]}
        assert {key[1] for key in rebound} >= {"encode_batch", "decode", "build_adc_table"}
        for key in rebound:
            assert during[key].__wrapped__ is before[key]
    finally:
        tracer.uninstall()
    after = fneq_bindings()
    assert all(after[key] is value for key, value in before.items())
    for cls, original in inits.items():
        assert cls.__dict__["__post_init__"] is original


def test_every_fneq_name_the_benchmark_reads_resolves():
    chains = {
        chain
        for path in BENCH.glob("*.py")
        for chain in re.findall(r"\bfneq(?:\.[A-Za-z_]\w*)+", path.read_text())
    }
    assert len(chains) >= 30, "the pattern no longer finds the benchmark's fneq names"
    missing = []
    for chain in sorted(chains):
        try:
            functools.reduce(getattr, chain.split(".")[1:], fneq)
        except AttributeError:
            missing.append(chain)
    assert not missing, f"bench/ reads names fneq no longer has: {missing}"
