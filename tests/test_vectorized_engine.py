"""Tests for the NumPy-vectorized simulation engine (repro.simulation.vectorized).

The contract: ``engine="numpy"`` produces **bit-identical** trajectories to
the reference and compiled engines for every ``(protocol, inputs, seed)`` —
the three engines consume the random stream with the same discipline.  Plus
the machinery around it: ``engine="auto"`` selection by transition count and
the ``REPRO_FORCE_ENGINE`` override, the lazy NumPy dependency (clear
ImportError when forced, silent fallback in auto mode), the cached
``PetriNet.vectorized()`` hook, kernel correctness against the sparse
definitions, and pickling across process boundaries.
"""

import pickle
import random

import pytest

from repro.core import Configuration, Protocol, Transition, from_counts
from repro.core.petrinet import PetriNet
from repro.core.protocol import OUTPUT_ONE, OUTPUT_ZERO
from repro.protocols import (
    flock_of_birds_protocol,
    majority_protocol,
    modulo_initial_state,
    modulo_protocol,
)
from repro.simulation import (
    Scheduler,
    Simulator,
    TransitionScheduler,
    UniformScheduler,
)
from repro.simulation import simulator as simulator_module
from repro.simulation import vectorized as vectorized_module
from repro.simulation.compiled import CompiledNet
from repro.simulation.vectorized import VectorizedNet, numpy_available

from test_compiled_engine import _random_protocol, assert_same_result

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="NumPy not installed (the optional 'sim' extra)"
)


def _cases():
    return [
        ("majority", majority_protocol(), from_counts(A=21, B=14)),
        ("modulo", modulo_protocol(3, 1), Configuration({modulo_initial_state(): 16})),
        ("flock-of-birds", flock_of_birds_protocol(5), Configuration({1: 12})),
    ]


CASES = _cases()
CASE_IDS = [name for name, _, _ in CASES]


@requires_numpy
class TestThreeWayEquivalence:
    @pytest.mark.parametrize("name,protocol,inputs", CASES, ids=CASE_IDS)
    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    def test_full_runs_match_all_engines(self, name, protocol, inputs, seed):
        results = {
            engine: Simulator(protocol, engine=engine, seed=seed).run(
                inputs, max_steps=4000, stability_window=150,
                record_trajectory=True, trajectory_capacity=10 ** 6,
            )
            for engine in ("reference", "compiled", "numpy")
        }
        assert_same_result(results["numpy"], results["reference"])
        assert_same_result(results["numpy"], results["compiled"])
        assert results["numpy"].trajectory == results["reference"].trajectory
        assert results["numpy"].trajectory == results["compiled"].trajectory

    @pytest.mark.parametrize("name,protocol,inputs", CASES, ids=CASE_IDS)
    def test_trajectory_prefixes_match(self, name, protocol, inputs):
        for max_steps in (1, 2, 3, 5, 10, 50, 250):
            reference = Simulator(protocol, engine="reference", seed=42).run(
                inputs, max_steps=max_steps, stability_window=10 ** 9
            )
            fast = Simulator(protocol, engine="numpy", seed=42).run(
                inputs, max_steps=max_steps, stability_window=10 ** 9
            )
            assert_same_result(fast, reference)

    @pytest.mark.parametrize("name,protocol,inputs", CASES, ids=CASE_IDS)
    @pytest.mark.parametrize("seed", [0, 5])
    def test_transition_scheduler_matches(self, name, protocol, inputs, seed):
        reference = Simulator(
            protocol, scheduler=TransitionScheduler(), engine="reference", seed=seed
        ).run(inputs, max_steps=2000, stability_window=150)
        fast = Simulator(
            protocol, scheduler=TransitionScheduler(), engine="numpy", seed=seed
        ).run(inputs, max_steps=2000, stability_window=150)
        assert_same_result(fast, reference)

    def test_terminal_configuration_matches(self):
        protocol = flock_of_birds_protocol(3)
        inputs = Configuration({1: 1})
        result = Simulator(protocol, engine="numpy", seed=0).run(inputs)
        assert result.terminated
        assert result.steps == 0
        assert result.consensus == 0
        assert result.consensus_step == 0

    def test_run_many_matches_run_for_run(self):
        protocol = majority_protocol()
        inputs = from_counts(A=9, B=4)
        reference = Simulator(protocol, engine="reference", seed=17).run_many(
            inputs, repetitions=6, max_steps=3000
        )
        fast = Simulator(protocol, engine="numpy", seed=17).run_many(
            inputs, repetitions=6, max_steps=3000
        )
        assert len(fast) == len(reference) == 6
        for fast_result, reference_result in zip(fast, reference):
            assert_same_result(fast_result, reference_result)

    def test_high_multiplicity_preconditions_match(self):
        # Multiplicities 2 and 3 exercise the generic falling-factorial
        # binomial kernel (the strided fast path only covers unit pairs).
        net = PetriNet(
            [
                Transition({"a": 3}, {"b": 3}, name="triple"),
                Transition({"a": 2, "b": 1}, {"a": 1, "b": 2}, name="mixed"),
                Transition({"b": 2}, {"a": 2}, name="back"),
            ],
            name="multiplicities",
        )
        protocol = Protocol.from_petri_net(
            net,
            leaders=Configuration({}),
            initial_states=["a", "b"],
            output={"a": OUTPUT_ONE, "b": OUTPUT_ZERO},
            name="multiplicities",
        )
        inputs = Configuration({"a": 9, "b": 4})
        for seed in (0, 3, 8):
            reference = Simulator(protocol, engine="reference", seed=seed).run(
                inputs, max_steps=500, stability_window=10 ** 9
            )
            fast = Simulator(protocol, engine="numpy", seed=seed).run(
                inputs, max_steps=500, stability_window=10 ** 9
            )
            assert_same_result(fast, reference)

    def test_empty_precondition_transitions_match(self):
        # Regression: transitions with an empty pre-set (spawners) have empty
        # CSR segments; one ordered *last* used to corrupt the reduceat
        # segment of the preceding transition.  Both schedulers must agree
        # with the reference engine with empty-pre transitions in the middle
        # and at the end of the transition order.
        net = PetriNet(
            [
                Transition({"a": 1, "b": 1}, {"b": 2}, name="meet"),
                Transition({}, {"a": 1}, name="spawn-middle"),
                Transition({"b": 2}, {"a": 1, "b": 1}, name="swap"),
                Transition({}, {"b": 1}, name="spawn-last"),
            ],
            name="spawners",
        )
        protocol = Protocol.from_petri_net(
            net,
            leaders=Configuration({}),
            initial_states=["a", "b"],
            output={"a": OUTPUT_ONE, "b": OUTPUT_ZERO},
            name="spawners",
        )
        inputs = Configuration({"a": 3, "b": 2})
        for scheduler in (None, TransitionScheduler()):
            for seed in (0, 1, 5):
                reference = Simulator(
                    protocol, scheduler=scheduler, engine="reference", seed=seed
                ).run(inputs, max_steps=200, stability_window=10 ** 9)
                fast = Simulator(
                    protocol, scheduler=scheduler, engine="numpy", seed=seed
                ).run(inputs, max_steps=200, stability_window=10 ** 9)
                assert_same_result(fast, reference)

    def test_trailing_empty_precondition_kernels(self):
        # The kernel-level regression behind the test above: the last
        # non-empty transition's weight/enabledness must survive a trailing
        # empty-pre transition.
        import numpy as np

        net = PetriNet(
            [
                Transition({"a": 1, "b": 1}, {"c": 2}, name="pair"),
                Transition({}, {"b": 1}, name="source"),
            ],
            name="trailing-source",
        )
        vectorized = net.vectorized()
        counts = np.array(
            vectorized.counts_of(Configuration({"a": 3, "b": 5})), dtype=np.int64
        )
        assert vectorized.full_weights(counts).tolist() == [15, 1]
        assert vectorized.full_enabled(counts).tolist() == [True, True]
        empty_b = np.array(
            vectorized.counts_of(Configuration({"a": 3})), dtype=np.int64
        )
        assert vectorized.full_weights(empty_b).tolist() == [0, 1]
        assert vectorized.full_enabled(empty_b).tolist() == [False, True]

    @pytest.mark.parametrize("case", range(15))
    def test_random_nets_match_step_for_step(self, case):
        rng = random.Random(9000 + case)
        protocol, inputs = _random_protocol(rng)
        for seed in (0, 1):
            reference = Simulator(protocol, engine="reference", seed=seed).run(
                inputs, max_steps=300, stability_window=50,
                record_trajectory=True, trajectory_capacity=10 ** 6,
            )
            fast = Simulator(protocol, engine="numpy", seed=seed).run(
                inputs, max_steps=300, stability_window=50,
                record_trajectory=True, trajectory_capacity=10 ** 6,
            )
            assert_same_result(fast, reference)
            assert fast.trajectory == reference.trajectory


@requires_numpy
class TestEngineSelection:
    def test_auto_uses_compiled_below_the_threshold(self, monkeypatch):
        monkeypatch.delenv("REPRO_FORCE_ENGINE", raising=False)
        simulator = Simulator(majority_protocol(), seed=0)
        assert isinstance(simulator._engine.net, CompiledNet)
        assert not isinstance(simulator._engine.net, VectorizedNet)

    def test_auto_uses_numpy_above_the_threshold(self, monkeypatch):
        monkeypatch.delenv("REPRO_FORCE_ENGINE", raising=False)
        monkeypatch.setattr(simulator_module, "AUTO_VECTORIZE_THRESHOLD", 1)
        simulator = Simulator(majority_protocol(), seed=0)
        assert isinstance(simulator._engine.net, VectorizedNet)
        # The auto-selected vectorized engine still matches the reference.
        inputs = from_counts(A=7, B=3)
        fast = simulator.run(inputs, max_steps=1000, stability_window=100)
        reference = Simulator(majority_protocol(), engine="reference", seed=0).run(
            inputs, max_steps=1000, stability_window=100
        )
        assert_same_result(fast, reference)

    def test_force_engine_env_overrides_auto(self, monkeypatch):
        protocol = majority_protocol()
        monkeypatch.setenv("REPRO_FORCE_ENGINE", "numpy")
        assert isinstance(Simulator(protocol, seed=0)._engine.net, VectorizedNet)
        monkeypatch.setenv("REPRO_FORCE_ENGINE", "compiled")
        forced = Simulator(protocol, seed=0)._engine.net
        assert isinstance(forced, CompiledNet) and not isinstance(forced, VectorizedNet)
        monkeypatch.setenv("REPRO_FORCE_ENGINE", "reference")
        assert Simulator(protocol, seed=0)._engine.name == "reference"
        monkeypatch.setenv("REPRO_FORCE_ENGINE", "auto")
        assert Simulator(protocol, seed=0)._engine.name != "reference"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_force_engine_env_does_not_override_explicit_engines(self, monkeypatch):
        # The shadowed override intentionally trips the one-time warning
        # (tested on its own in test_ensemble_engine.py).
        monkeypatch.setenv("REPRO_FORCE_ENGINE", "numpy")
        explicit = Simulator(majority_protocol(), seed=0, engine="compiled")._engine.net
        assert isinstance(explicit, CompiledNet)
        assert not isinstance(explicit, VectorizedNet)
        assert Simulator(majority_protocol(), seed=0, engine="reference")._engine.name == "reference"

    def test_invalid_force_engine_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_FORCE_ENGINE", "turbo")
        with pytest.raises(ValueError, match="REPRO_FORCE_ENGINE"):
            Simulator(majority_protocol(), seed=0)

    def test_custom_scheduler_rejected_in_numpy_mode(self):
        class FirstEnabled(Scheduler):
            def choose(self, net, configuration, rng):
                return None

        with pytest.raises(ValueError, match="no compiled fast path"):
            Simulator(majority_protocol(), scheduler=FirstEnabled(), engine="numpy")

    def test_unknown_states_rejected_in_numpy_mode(self):
        simulator = Simulator(majority_protocol(), engine="numpy", seed=0)
        with pytest.raises(ValueError, match="outside the compiled universe"):
            simulator.run_from(Configuration({"Z": 2}))

    def test_unknown_states_fall_back_in_auto_mode(self, monkeypatch):
        monkeypatch.delenv("REPRO_FORCE_ENGINE", raising=False)
        monkeypatch.setattr(simulator_module, "AUTO_VECTORIZE_THRESHOLD", 1)
        protocol = majority_protocol()
        strange = Configuration({"Z": 2})
        auto = Simulator(protocol, engine="auto", seed=0).run_from(strange, max_steps=100)
        reference = Simulator(protocol, engine="reference", seed=0).run_from(
            strange, max_steps=100
        )
        assert_same_result(auto, reference)
        assert auto.terminated


class TestMissingNumpy:
    """The lazy-dependency contract, simulated by blanking the module handle."""

    def test_numpy_engine_raises_a_clear_import_error(self, monkeypatch):
        monkeypatch.setattr(vectorized_module, "_np", None)
        with pytest.raises(ImportError, match="sim"):
            Simulator(majority_protocol(), engine="numpy")

    def test_vectorized_hook_raises_without_numpy(self, monkeypatch):
        monkeypatch.setattr(vectorized_module, "_np", None)
        net = PetriNet([Transition({"a": 1}, {"b": 1})])
        with pytest.raises(ImportError, match="numpy"):
            net.vectorized()

    def test_auto_silently_falls_back_to_compiled(self, monkeypatch):
        monkeypatch.delenv("REPRO_FORCE_ENGINE", raising=False)
        monkeypatch.setattr(vectorized_module, "_np", None)
        monkeypatch.setattr(simulator_module, "AUTO_VECTORIZE_THRESHOLD", 1)
        simulator = Simulator(majority_protocol(), seed=0)
        assert isinstance(simulator._engine.net, CompiledNet)
        assert not isinstance(simulator._engine.net, VectorizedNet)
        result = simulator.run(from_counts(A=5, B=2), max_steps=2000)
        assert result.consensus == 1

    def test_numpy_available_reflects_the_handle(self, monkeypatch):
        monkeypatch.setattr(vectorized_module, "_np", None)
        assert not numpy_available()


@requires_numpy
class TestVectorizedNet:
    def test_vectorized_hook_caches_per_universe(self):
        net = majority_protocol().petri_net
        assert net.vectorized() is net.vectorized()
        assert net.vectorized(extra_states=["A"]) is net.vectorized()
        enlarged = net.vectorized(extra_states=["X"])
        assert enlarged is not net.vectorized()
        assert enlarged is net.vectorized(extra_states=["X"])
        assert "X" in enlarged.index_of
        # The vectorized and compiled caches are independent.
        assert net.compiled() is not net.vectorized()

    def test_full_weights_match_the_sparse_scheduler(self):
        import numpy as np

        rng = random.Random(4)
        protocol, _ = _random_protocol(rng)
        net = protocol.petri_net
        vectorized = net.vectorized(extra_states=protocol.states)
        for trial in range(20):
            configuration = Configuration(
                {state: rng.randrange(0, 5) for state in vectorized.states}
            )
            counts = np.array(vectorized.counts_of(configuration), dtype=np.int64)
            weights = vectorized.full_weights(counts)
            expected = [
                UniformScheduler._weight(transition, configuration)
                for transition in net.transitions
            ]
            assert weights.tolist() == expected

    def test_full_enabled_matches_the_sparse_definition(self):
        import numpy as np

        rng = random.Random(9)
        protocol, _ = _random_protocol(rng)
        net = protocol.petri_net
        vectorized = net.vectorized(extra_states=protocol.states)
        for trial in range(20):
            configuration = Configuration(
                {state: rng.randrange(0, 4) for state in vectorized.states}
            )
            counts = np.array(vectorized.counts_of(configuration), dtype=np.int64)
            enabled = vectorized.full_enabled(counts)
            expected = [
                transition.is_enabled(configuration) for transition in net.transitions
            ]
            assert enabled.tolist() == expected

    def test_steppers_are_cached_per_kind_and_classes(self):
        protocol = majority_protocol()
        vectorized = protocol.petri_net.vectorized(extra_states=protocol.states)
        classes = vectorized.output_classes(protocol.output_table)
        stepper = vectorized.stepper("uniform", classes)
        assert vectorized.stepper("uniform", classes) is stepper
        assert vectorized.stepper("transition", classes) is not stepper

    def test_unknown_kind_rejected(self):
        vectorized = majority_protocol().petri_net.vectorized()
        with pytest.raises(ValueError, match="unknown compiled scheduler kind"):
            vectorized.stepper("fifo", vectorized.output_classes({}))

    def test_pickles_without_steppers(self):
        protocol = majority_protocol()
        vectorized = protocol.petri_net.vectorized(extra_states=protocol.states)
        classes = vectorized.output_classes(protocol.output_table)
        vectorized.stepper("uniform", classes)
        clone = pickle.loads(pickle.dumps(vectorized))
        assert clone._steppers == {}
        assert clone.states == vectorized.states
        assert clone.pre_lists == vectorized.pre_lists
        # The clone simulates identically after rebuilding its closures.
        inputs = from_counts(A=8, B=5)
        counts = clone.counts_of(protocol.initial_configuration(inputs))
        stepper = clone.stepper("uniform", classes)
        steps, value, since, terminated = stepper(
            counts, random.Random(3), 500, 10 ** 9, 0, 0, 0
        )
        reference = Simulator(protocol, engine="reference", seed=3).run(
            inputs, max_steps=500, stability_window=10 ** 9
        )
        assert clone.configuration_of(counts) == reference.final
        assert steps == reference.steps

    def test_overflow_guard_rejects_astronomical_populations(self):
        # int64 weight totals would wrap silently; the static guard must
        # reject runs whose counts could make that happen, and suggest the
        # arbitrary-precision compiled engine.
        net = PetriNet(
            [Transition({"a": 1, "b": 1}, {"a": 2}, name="meet")],
            name="overflow",
        )
        protocol = Protocol.from_petri_net(
            net,
            leaders=Configuration({}),
            initial_states=["a", "b"],
            output={"a": OUTPUT_ONE, "b": OUTPUT_ZERO},
            name="overflow",
        )
        simulator = Simulator(protocol, engine="numpy", seed=0)
        with pytest.raises(OverflowError, match="compiled"):
            simulator.run(Configuration({"a": 2 ** 40, "b": 2 ** 40}), max_steps=10)
        # Regression: the guard itself must be computed in Python integers —
        # an int64 population sum would wrap negative for totals >= 2**63
        # and bypass the check entirely.
        with pytest.raises(OverflowError, match="compiled"):
            simulator.run(Configuration({"a": 2 ** 62, "b": 2 ** 62}), max_steps=10)
        # A large-but-safe population passes the guard and simulates (the
        # three b-agents are consumed, then the run is terminal).
        result = simulator.run(Configuration({"a": 2 ** 20, "b": 3}), max_steps=10)
        assert result.terminated and result.steps == 3

    def test_overflow_guard_accounts_for_population_growth(self):
        # Non-conservative nets can grow their counts by max_positive_delta
        # per step, so the guard must consider the step budget too.
        net = PetriNet(
            [Transition({"a": 1}, {"a": 2}, name="double")],
            name="grower",
        )
        protocol = Protocol.from_petri_net(
            net,
            leaders=Configuration({}),
            initial_states=["a"],
            output={"a": OUTPUT_ONE},
            name="grower",
        )
        simulator = Simulator(protocol, engine="numpy", seed=0)
        inputs = Configuration({"a": 4})
        with pytest.raises(OverflowError, match="step budget"):
            simulator.run(inputs, max_steps=2 ** 62)
        result = simulator.run(inputs, max_steps=50, stability_window=10 ** 9)
        assert result.steps == 50
        reference = Simulator(protocol, engine="reference", seed=0).run(
            inputs, max_steps=50, stability_window=10 ** 9
        )
        assert_same_result(result, reference)

    def test_protocol_pickle_drops_the_vectorized_cache(self):
        protocol = majority_protocol()
        Simulator(protocol, seed=0, engine="numpy")  # populates the cache
        assert protocol.petri_net._vectorized_cache
        clone = pickle.loads(pickle.dumps(protocol))
        assert clone.petri_net._vectorized_cache == {}
        inputs = from_counts(A=12, B=5)
        original = Simulator(protocol, seed=3, engine="numpy").run(inputs, max_steps=500)
        rebuilt = Simulator(clone, seed=3, engine="numpy").run(inputs, max_steps=500)
        assert rebuilt.final == original.final
        assert rebuilt.steps == original.steps


@requires_numpy
class TestBatchWithNumpyEngine:
    def test_numpy_ensembles_agree_across_backends(self):
        protocol = majority_protocol()
        inputs = from_counts(A=20, B=10)
        serial = Simulator(protocol, seed=6, engine="numpy").run_many(
            inputs, repetitions=6, max_steps=1000
        )
        parallel = Simulator(protocol, seed=6, engine="numpy").run_many(
            inputs, repetitions=6, max_steps=1000, backend="process", max_workers=2
        )
        assert parallel == serial

    def test_numpy_trajectories_travel_across_the_process_boundary(self):
        protocol = majority_protocol()
        inputs = from_counts(A=14, B=7)
        kwargs = dict(
            repetitions=4, max_steps=300, stability_window=10 ** 9,
            record_trajectory=True, trajectory_capacity=64,
        )
        serial = Simulator(protocol, seed=5, engine="numpy").run_many(inputs, **kwargs)
        parallel = Simulator(protocol, seed=5, engine="numpy").run_many(
            inputs, backend="process", max_workers=2, **kwargs
        )
        assert parallel == serial
        assert all(result.trajectory is not None for result in parallel)
