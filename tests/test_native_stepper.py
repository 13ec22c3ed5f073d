"""Tests of the native stepper behind ``engine="compiled"``.

The compiled-vs-reference equivalence suites (``test_compiled_engine.py``,
the goldens) run on both loops through the ``stepper_path`` fixture.  This
module covers what is specific to the native one: building and loading the
kernel, its self-tests and the fallback to the generated stepper, the int64
bound beyond which runs go to Python integers, the caller-owned generator's
end state, and pickling.
"""

import pickle
import random
import shutil
import sys
import time
import warnings
from pathlib import Path

import pytest

from repro import config
from repro.core import Configuration, Protocol, Transition, from_counts
from repro.core.petrinet import PetriNet
from repro.core.protocol import OUTPUT_ONE
from repro.protocols import majority_protocol
from repro.simulation import Simulator, TransitionScheduler, UniformScheduler, native
from repro.simulation.batch import _dumps_for_workers
from repro.simulation.compiled import GeneratedStepper

requires_native = pytest.mark.skipif(
    native.kernel() is None, reason="the native stepper cannot load here"
)


@pytest.fixture
def fresh_load(monkeypatch):
    """Forget the loaded kernel for this test (restored afterwards)."""
    monkeypatch.setattr(native, "_LOADED", None)


def _load_recording_warnings():
    """Two :func:`native.kernel` calls: (kernel, native-stepper warnings)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        loaded = native.kernel()
        assert native.kernel() is loaded
    messages = [
        str(warning.message) for warning in caught
        if issubclass(warning.category, RuntimeWarning)
        and "native stepper unavailable" in str(warning.message)
    ]
    return loaded, messages


def _assert_same(a, b):
    for field in ("final", "steps", "consensus", "consensus_step", "terminated",
                  "interactions_sampled", "trajectory"):
        assert getattr(a, field) == getattr(b, field), field


@requires_native
class TestLoading:
    def test_build_records_its_selftest_next_to_the_library(self):
        library = Path(native.kernel().path)
        marker = library.parent / f"selftest-{sys.implementation.cache_tag}.ok"
        assert library.exists() and marker.exists()

    def test_per_load_check_costs_under_a_millisecond(self):
        loaded = native.kernel()
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            native._quick_check(loaded)
            best = min(best, time.perf_counter() - start)
        assert best < 1e-3

    def test_cold_build_compiles_once_per_cache_key(self, tmp_path, monkeypatch,
                                                    fresh_load):
        import subprocess

        monkeypatch.setattr(config, "native_cache_dir", lambda: str(tmp_path))
        real_run = subprocess.run
        compiles = []

        def counting_run(*args, **kwargs):
            compiles.append(args)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(subprocess, "run", counting_run)
        loaded, messages = _load_recording_warnings()
        assert loaded is not None and not messages
        assert Path(loaded.path).parent.parent == tmp_path
        assert len(compiles) == 1
        markers = list(tmp_path.glob("*/selftest-*.ok"))
        assert len(markers) == 1
        # A second process (a fresh load) finds the build and the marker.
        monkeypatch.setattr(native, "_LOADED", None)
        assert native.kernel() is not None
        assert len(compiles) == 1

    def test_failed_build_selftest_warns_once_and_falls_back(
        self, tmp_path, monkeypatch, fresh_load
    ):
        monkeypatch.setattr(config, "native_cache_dir", lambda: str(tmp_path))
        monkeypatch.setattr(
            native.Kernel, "randbelow",
            lambda self, state, bounds, count: [0] * count,
        )
        loaded, messages = _load_recording_warnings()
        assert loaded is None
        assert len(messages) == 1 and "differ" in messages[0]
        # A failed self-test is not recorded as a pass.
        assert not list(tmp_path.glob("*/selftest-*.ok"))

    def test_failed_load_check_warns_once_and_falls_back(self, monkeypatch,
                                                         fresh_load):
        # The cache is warm, so only the per-load check runs.
        monkeypatch.setattr(
            native.Kernel, "seeded_state",
            lambda self, seed: native._state_buffer(),
        )
        loaded, messages = _load_recording_warnings()
        assert loaded is None
        assert len(messages) == 1 and "seeding" in messages[0]


class TestMissingCompiler:
    def test_warns_once_and_runs_the_generated_stepper(self, monkeypatch,
                                                       fresh_load):
        monkeypatch.setattr(shutil, "which", lambda name, *args, **kwargs: None)
        assert config.c_compiler() is None
        loaded, messages = _load_recording_warnings()
        assert loaded is None
        assert len(messages) == 1 and "no C compiler" in messages[0]
        protocol = majority_protocol()
        simulator = Simulator(protocol, engine="compiled", seed=4)
        assert isinstance(simulator._engine.stepper, GeneratedStepper)
        inputs = from_counts(A=9, B=6)
        reference = Simulator(protocol, engine="reference", seed=4)
        for fast, slow in zip(simulator.run_many(inputs, 3, max_steps=2000),
                              reference.run_many(inputs, 3, max_steps=2000)):
            _assert_same(fast, slow)


class TestInt64Bound:
    @pytest.mark.parametrize("exponent,native_runs", [(20, True), (40, False)])
    def test_large_majority_matches_reference(self, stepper_path, exponent,
                                              native_runs):
        # 2**20 agents per side: weights near 2**40, so every draw takes the
        # k > 32 _randbelow path inside the kernel.  2**40: weights near
        # 2**80 leave int64, and the native stepper hands the run to the
        # generated stepper (Python integers) instead of raising.
        protocol = majority_protocol()
        inputs = from_counts(A=2 ** exponent + 3, B=2 ** exponent - 5)
        runs = {}
        for engine in ("compiled", "reference"):
            simulator = Simulator(protocol, engine=engine, seed=9)
            runs[engine] = (
                simulator.run_many(inputs, 2, max_steps=300),
                simulator.run(inputs, max_steps=300, record_trajectory=True),
                simulator.rng.getstate(),
            )
            if engine == "compiled" and stepper_path == "native":
                stepper = simulator._engine.stepper
                assert stepper.qa_meta["implementation"] == "native"
                assert (stepper._fallback is None) is native_runs
        fast, reference = runs["compiled"], runs["reference"]
        for a, b in zip(fast[0] + [fast[1]], reference[0] + [reference[1]]):
            _assert_same(a, b)
        assert fast[2] == reference[2]

    def test_numpy_engines_still_raise(self):
        pytest.importorskip("numpy")
        simulator = Simulator(majority_protocol(), engine="numpy", seed=0)
        with pytest.raises(OverflowError):
            simulator.run(from_counts(A=2 ** 40, B=2 ** 40), max_steps=10)

    def test_growing_net_beyond_the_bound_matches_reference(self, stepper_path):
        net = PetriNet([Transition({"a": 1}, {"a": 2}, name="double")],
                       name="grower")
        protocol = Protocol.from_petri_net(
            net, leaders=Configuration({}), initial_states=["a"],
            output={"a": OUTPUT_ONE}, name="grower",
        )
        # 2**62 - 10 agents: the population passes 2**62 within the budget,
        # so the native stepper declines and Python integers run it.
        inputs = Configuration({"a": 2 ** 62 - 10})
        results = [
            Simulator(protocol, engine=engine, seed=1).run(
                inputs, max_steps=40, stability_window=10 ** 9
            )
            for engine in ("compiled", "reference")
        ]
        _assert_same(*results)


@requires_native
class TestNativeRuns:
    @pytest.mark.parametrize("scheduler", [UniformScheduler, TransitionScheduler])
    def test_caller_generator_ends_where_the_generated_stepper_leaves_it(
        self, scheduler, monkeypatch
    ):
        protocol = majority_protocol()
        inputs = from_counts(A=30, B=21)
        ends = []
        for path in ("native", "generated"):
            if path == "generated":
                monkeypatch.setattr(native, "kernel", lambda: None)
            simulator = Simulator(protocol, scheduler=scheduler(), seed=11,
                                  engine="compiled")
            results = [simulator.run(inputs, max_steps=700, record_trajectory=True,
                                     trajectory_capacity=50) for _ in range(3)]
            ends.append((results, simulator.rng.getstate()))
        for a, b in zip(ends[0][0], ends[1][0]):
            _assert_same(a, b)
        assert ends[0][1] == ends[1][1]

    def test_random_subclass_runs_on_the_generated_stepper(self):
        class Shifted(random.Random):
            def getrandbits(self, k):
                return super().getrandbits(k) ^ 1 if k > 1 else super().getrandbits(k)

        protocol = majority_protocol()
        compiled = protocol.petri_net.compiled(extra_states=protocol.states)
        classes = compiled.output_classes(protocol.output_table)
        stepper = compiled.stepper("uniform", classes)
        counts = compiled.counts_of(from_counts(A=8, B=5))
        expected_counts = list(counts)
        expected = stepper.fallback()(expected_counts, Shifted(3), 50, 10 ** 9,
                                      8, 5, 0)
        assert stepper(counts, Shifted(3), 50, 10 ** 9, 8, 5, 0) == expected
        assert counts == expected_counts

    def test_int_seeds_match_random_random(self):
        protocol = majority_protocol()
        compiled = protocol.petri_net.compiled(extra_states=protocol.states)
        classes = compiled.output_classes(protocol.output_table)
        stepper = compiled.stepper("transition", classes)
        for seed in (0, -7, 2 ** 64 - 1, 2 ** 130 + 17, True):
            runs = []
            for rng in (seed, random.Random(seed)):
                counts = compiled.counts_of(from_counts(A=12, B=9))
                runs.append((stepper(counts, rng, 400, 10 ** 9, 12, 9, 0), counts))
            assert runs[0] == runs[1]


class TestSeeds:
    def test_every_seed_type_matches_the_reference_engine(self, stepper_path):
        # Int seeds take the kernel's own seeding; str and float seeds are
        # hashed by random.Random, so they run on a Python generator.
        protocol = majority_protocol()
        configuration = protocol.initial_configuration(from_counts(A=9, B=5))
        seeds = ["abc", 1.5, 7, -7, 2 ** 70]
        runs = [
            Simulator(protocol, engine=engine).run_seeds(configuration, seeds, 300, 50)
            for engine in ("compiled", "reference")
        ]
        for a, b in zip(*runs):
            _assert_same(a, b)


class TestPickleSafety:
    def test_spec_bytes_are_unchanged_by_a_native_run(self):
        protocol = majority_protocol()
        scheduler = UniformScheduler()
        before = _dumps_for_workers((protocol, scheduler, "compiled"))
        Simulator(protocol, scheduler=scheduler, engine="compiled", seed=2).run_many(
            from_counts(A=10, B=7), 3, max_steps=500
        )
        assert protocol.petri_net._compiled_cache  # the run compiled the net
        assert _dumps_for_workers((protocol, scheduler, "compiled")) == before

    def test_compiled_net_drops_native_tables_when_pickled(self):
        protocol = majority_protocol()
        compiled = protocol.petri_net.compiled(extra_states=protocol.states)
        classes = compiled.output_classes(protocol.output_table)
        compiled.stepper("uniform", classes)
        compiled.stepper("transition", classes, record=True)
        clone = pickle.loads(pickle.dumps(compiled))
        assert clone._native_tables is None and clone._steppers == {}
        assert clone.int64_safe([3, 4], 100) == compiled.int64_safe([3, 4], 100)
