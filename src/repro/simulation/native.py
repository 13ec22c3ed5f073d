"""Native table-driven stepper: one C kernel for every compiled net.

The generated-Python stepper of :mod:`repro.simulation.compiled` runs the
whole simulation loop in the interpreter.  This module runs the same loop in
C: one kernel (``_native_stepper.c``, shipped as package data) that takes a
:class:`~repro.simulation.compiled.CompiledNet`'s dense tables as flattened
CSR arrays, so no per-net code is generated at all.

* **Build and load.**  :func:`kernel` compiles the source once with the
  system C compiler (:func:`repro.config.c_compiler`) into a directory of
  :func:`repro.config.native_cache_dir` named by a hash of the source, the
  compiler and the flags, and loads the shared object with stdlib
  :mod:`ctypes`.  The compiler runs at most once per cache key: concurrent
  builders each write a private file and rename it into place.
* **Self-test.**  The first load under a given Python version checks 10⁴
  draws of the kernel's MT19937 against :class:`random.Random` (small
  bounds, 32-bit bounds and bounds beyond 32 bits, several seeds, and the
  generator state afterwards) and records the pass next to the shared
  object.  Every load then runs a short check: an int-seed initialisation,
  one draw beyond 32 bits and a ``getstate()`` round trip.
* **Fallback.**  When there is no compiler, the build fails or a check
  fails, :func:`kernel` warns once per process and returns ``None``;
  :meth:`CompiledNet.stepper` then returns the generated-Python stepper.

The kernel reproduces CPython's generator bit for bit: ``init_by_array``
over the 32-bit words of ``abs(seed)``, ``getrandbits`` (one word for
``k <= 32``, least significant word first beyond) and ``_randbelow`` by
``getrandbits`` rejection, which is what ``randrange(n)`` and
``choice(seq)`` draw.  :class:`NativeStepper` therefore runs two ways:

* given an ``int`` seed (the seeded path of
  :meth:`~repro.simulation.simulator.DenseEngine.run_seeds`), the kernel
  seeds its own generator, so no Python generator is built at all;
* given a :class:`random.Random` (a run on a caller-owned generator), it
  imports ``getstate()``, steps, and writes the advanced state back with
  ``setstate()``, leaving the generator exactly where the generated stepper
  would.

Counts, weights and consensus counters are ``int64`` in the kernel.  A run
that :meth:`CompiledNet.int64_safe` cannot bound inside ``int64`` (or any
argument the kernel does not model, such as a :class:`random.Random`
subclass) goes to the generated stepper, built on first use, which computes
with Python integers — so the result never depends on which loop ran.

A run inside the kernel releases the GIL but cannot be interrupted: Python
signal handlers, ``KeyboardInterrupt`` included, run once it returns.
"""

from __future__ import annotations

import ctypes
import os
import platform
import random
import sys
import threading
import warnings
import zlib
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .. import config

__all__ = ["Kernel", "NativeStepper", "NetTables", "kernel"]

_SOURCE = Path(__file__).with_name("_native_stepper.c")

#: Compiler flags; part of the cache key.
_CFLAGS = ("-O2", "-shared", "-fPIC")

#: Scheduler kinds as the kernel numbers them.
_KIND_CODES = {"uniform": 0, "transition": 1}

#: Bounds the build-time self-test draws below: ``k <= 32`` and ``k > 32``
#: (the two ``getrandbits`` paths), with rejection-heavy powers of two.
_SELFTEST_BOUNDS = (
    1, 2, 3, 5, 7, 10, 100, 1000, 2 ** 16, 2 ** 31 - 1, 2 ** 31, 2 ** 31 + 1,
    2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1, 3 * 10 ** 12, 2 ** 40 + 12345,
    2 ** 53 + 1, 2 ** 62, 2 ** 63 - 1,
)
_SELFTEST_SEEDS = (0, 1, -12345, 2 ** 32 + 7, 2 ** 64 - 1, 2 ** 100 + 3, 20240611)
_SELFTEST_DRAWS = 10 ** 4

#: Runs must keep ``max_steps`` well inside the kernel's int64 step counter.
_STEP_LIMIT = 2 ** 62


class _Unavailable(Exception):
    """Why the kernel cannot be used in this process."""


class _NetStruct(ctypes.Structure):
    """``net_tables`` of the C source: the transition count and CSR pointers."""

    _fields_ = [("num_transitions", ctypes.c_int64)] + [
        (name, ctypes.c_void_p)
        for name in (
            "pre_start", "pre_index", "pre_need",
            "delta_start", "delta_index", "delta_value",
            "affected_start", "affected", "consensus",
        )
    ]


class Kernel:
    """The loaded shared object and its three entry points."""

    def __init__(self, path: str) -> None:
        self.path = path
        library = ctypes.CDLL(path)
        pointer, int64 = ctypes.c_void_p, ctypes.c_int64
        self.run = library.repro_run
        self.run.argtypes = [
            pointer, ctypes.c_int, pointer, pointer, ctypes.c_char_p, int64,
            pointer, pointer, int64,
        ]
        self.run.restype = ctypes.c_int
        self.seed = library.repro_seed
        self.seed.argtypes = [pointer, ctypes.c_char_p, int64]
        self.seed.restype = ctypes.c_int
        self.draws = library.repro_draws
        self.draws.argtypes = [pointer, pointer, int64, pointer, int64]
        self.draws.restype = None
        self._library = library

    def seeded_state(self, seed: int) -> array:
        """``random.Random(seed).getstate()[1]`` computed by the kernel."""
        state = _state_buffer()
        key = _seed_bytes(seed)
        if self.seed(_address(state), key, len(key)) != 0:
            raise MemoryError("native stepper could not allocate a seed key")
        return state

    def randbelow(self, state: array, bounds: Sequence[int], count: int) -> List[int]:
        """``count`` draws of ``_randbelow(bounds[i % len(bounds)])``."""
        bound_buffer = array("q", bounds)
        out = array("q", bytes(8 * count))
        self.draws(_address(state), _address(bound_buffer), len(bound_buffer),
                   _address(out), count)
        return out.tolist()


def _address(buffer: array) -> int:
    return buffer.buffer_info()[0]


def _state_buffer(words: Sequence[int] = ()) -> array:
    """A buffer laid out like ``getstate()[1]``: 624 words and the index."""
    return array("I", words) if words else array("I", bytes(4 * 625))


def _seed_bytes(seed: int) -> bytes:
    """``abs(seed)`` as little-endian 32-bit words, at least one (CPython's
    ``random_seed`` key)."""
    magnitude = -seed if seed < 0 else seed
    words = max(1, (magnitude.bit_length() + 31) // 32)
    return magnitude.to_bytes(4 * words, "little")


# ----------------------------------------------------------------------
# Build, self-test, load
# ----------------------------------------------------------------------
def _cache_key(source: bytes, compiler: str) -> str:
    """The build directory name: CRC-32s of the source and of the build
    setting (compiler, flags, platform), and the source length.

    A CRC rather than hashlib: hashlib loads OpenSSL, several megabytes of
    resident memory in every process that loads the kernel."""
    setting = "\0".join((compiler, *_CFLAGS, platform.machine(), sys.platform))
    return "{:08x}{:08x}{:x}".format(
        zlib.crc32(source), zlib.crc32(setting.encode()), len(source)
    )


def _replace_atomically(path: Path, write: Callable[[Path], None]) -> None:
    """Write through a private temporary name, then rename into place, so a
    concurrent reader sees either nothing or the whole file."""
    temporary = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}")
    try:
        write(temporary)
        os.replace(temporary, path)
    finally:
        if temporary.exists():
            temporary.unlink()


def _build(directory: Path, source: bytes, compiler: str) -> Path:
    """The shared object of this cache key, compiling it if it is missing."""
    library = directory / "kernel.so"
    if library.exists():
        return library
    directory.mkdir(parents=True, exist_ok=True)
    source_path = directory / "kernel.c"
    if not source_path.exists():
        _replace_atomically(source_path, lambda path: path.write_bytes(source))

    def compile_to(path: Path) -> None:
        import subprocess  # only cold builds pay for the import

        try:
            completed = subprocess.run(
                [compiler, *_CFLAGS, "-o", str(path), str(source_path)],
                stdin=subprocess.DEVNULL, capture_output=True, text=True,
                timeout=300, check=False,
            )
        except subprocess.SubprocessError as error:
            raise _Unavailable(f"{compiler}: {error}") from None
        if completed.returncode != 0:
            tail = (completed.stderr or completed.stdout).strip()[-400:]
            raise _Unavailable(f"{compiler} exited {completed.returncode}: {tail}")

    _replace_atomically(library, compile_to)
    return library


def _check_draws(loaded: Kernel, seeds: Sequence[int], bounds: Sequence[int],
                 count: int) -> None:
    """Kernel draws and end state against :class:`random.Random`, per seed."""
    for seed in seeds:
        reference = random.Random(seed)
        state = loaded.seeded_state(seed)
        if tuple(state) != reference.getstate()[1]:
            raise _Unavailable(f"seeding from {seed} differs from random.Random")
        want = [reference.randrange(bounds[i % len(bounds)]) for i in range(count)]
        if loaded.randbelow(state, bounds, count) != want:
            raise _Unavailable(f"draws from seed {seed} differ from random.Random")
        if tuple(state) != reference.getstate()[1]:
            raise _Unavailable(f"end state after seed {seed} differs")


def _full_selftest(loaded: Kernel) -> None:
    """10⁴ draws over every seed and bound of the self-test tables."""
    per_seed = _SELFTEST_DRAWS // len(_SELFTEST_SEEDS) + 1
    _check_draws(loaded, _SELFTEST_SEEDS, _SELFTEST_BOUNDS, per_seed)


def _quick_check(loaded: Kernel) -> None:
    """The per-load check: int-seed init, one draw beyond 32 bits, and a
    ``getstate()`` import of a generator that has already drawn."""
    _check_draws(loaded, (2 ** 64 + 5,), (2 ** 40 + 12345,), 1)
    reference = random.Random(7)
    reference.random()
    version, words, gauss = reference.getstate()
    state = _state_buffer(words)
    got = loaded.randbelow(state, (3 * 10 ** 12,), 2)
    if got != [reference.randrange(3 * 10 ** 12) for _ in range(2)]:
        raise _Unavailable("draws from an imported state differ")
    imported = random.Random(0)
    imported.setstate((version, tuple(state), gauss))
    if imported.getstate() != reference.getstate():
        raise _Unavailable("state round trip through the kernel differs")


def _load() -> Kernel:
    if (array("I").itemsize, array("i").itemsize, array("q").itemsize) != (4, 4, 8):
        raise _Unavailable("array item sizes do not match the kernel's types")
    compiler = config.c_compiler()
    if compiler is None:
        raise _Unavailable("no C compiler (cc) on PATH")
    source = _SOURCE.read_bytes()
    directory = Path(config.native_cache_dir()) / _cache_key(source, compiler)
    try:
        library = _build(directory, source, compiler)
        loaded = Kernel(str(library))
    except OSError as error:
        raise _Unavailable(f"{type(error).__name__}: {error}") from None
    marker = directory / f"selftest-{sys.implementation.cache_tag}.ok"
    if not marker.exists():
        _full_selftest(loaded)
        try:
            _replace_atomically(marker, lambda path: path.write_text("ok\n"))
        except OSError:
            pass  # an unwritable marker only means the next load re-tests
    _quick_check(loaded)
    return loaded


_LOCK = threading.Lock()
#: ``None`` until the first :func:`kernel` call, then ``(kernel or None,)``.
_LOADED: Optional[Tuple[Optional[Kernel]]] = None


def kernel() -> Optional[Kernel]:
    """The native kernel, or ``None`` (with one warning per process) when it
    cannot be built, loaded or trusted here."""
    global _LOADED
    loaded = _LOADED
    if loaded is None:
        with _LOCK:
            loaded = _LOADED
            if loaded is None:
                try:
                    loaded = (_load(),)
                except _Unavailable as why:
                    warnings.warn(
                        f"native stepper unavailable ({why}); the compiled "
                        "engine runs the generated Python stepper",
                        RuntimeWarning, stacklevel=2,
                    )
                    loaded = (None,)
                _LOADED = loaded
    return loaded[0]


# ----------------------------------------------------------------------
# Tables and the stepper
# ----------------------------------------------------------------------
def _csr(rows: Sequence[Sequence[Tuple[int, ...]]], width: int) -> Tuple[array, List[array]]:
    """Row offsets plus one flat column per position of the rows' tuples."""
    starts = array("q", [0])
    columns = [array("q") for _ in range(width)]
    for row in rows:
        for entry in row:
            for column, value in zip(columns, entry):
                column.append(value)
        starts.append(len(columns[0]))
    return starts, columns


class NetTables:
    """A compiled net's dense tables, flattened for the kernel.

    ``pre_lists``, ``delta_lists`` and ``affected`` become CSR arrays (row
    offsets plus flat columns).  Built once per :class:`CompiledNet` and
    dropped when the net is pickled.
    """

    def __init__(self, net: Any) -> None:
        self.num_transitions = net.num_transitions
        self.pre_start, (self.pre_index, self.pre_need) = _csr(net.pre_lists, 2)
        self.delta_start, (self.delta_index, self.delta_value) = _csr(
            net.delta_lists, 2
        )
        self.affected_start, (self.affected,) = _csr(
            [[(u,) for u in row] for row in net.affected], 1
        )


def _read(address: Optional[int], length: int) -> List[int]:
    """``length`` int64 values at ``address`` (what the kernel reads)."""
    if not length:
        return []
    return list((ctypes.c_int64 * length).from_address(address or 0))


class NativeStepper:
    """The native loop for one net, scheduler kind, output classes and
    recording flag; a :class:`~repro.simulation.compiled.Stepper`.

    ``fallback`` builds the generated stepper of the same variant; it runs
    whatever the kernel declines (see the module docstring) and is built on
    first use.
    """

    def __init__(self, loaded: Kernel, net: Any, kind: str, classes: Tuple[int, ...],
                 record: bool, fallback: Callable[[], Any]) -> None:
        tables = net.native_tables()
        self._run = loaded.run
        self._net = net
        self._kind = _KIND_CODES[kind]
        self._record = record
        self._fallback_factory = fallback
        self._fallback: Optional[Any] = None
        self._consensus = array(
            "q", [d for row in net.consensus_deltas(classes) for d in row]
        )
        # The struct holds raw addresses: keep every array it points into
        # alive as long as the stepper.
        self._tables = tables
        self._struct = _NetStruct(tables.num_transitions, *(
            _address(column) for column in (
                tables.pre_start, tables.pre_index, tables.pre_need,
                tables.delta_start, tables.delta_index, tables.delta_value,
                tables.affected_start, tables.affected, self._consensus,
            )
        ))
        self._struct_address = ctypes.addressof(self._struct)
        label = f"{net.net.name or 'net'}/{kind}" + ("/recording" if record else "")
        self.qa_meta: Dict[str, object] = {
            "label": label,
            "kind": kind,
            "record": record,
            "num_transitions": tables.num_transitions,
            "implementation": "native",
        }

    def source(self) -> None:
        """Native steppers have no generated source (audit the tables)."""
        return None

    def decoded_tables(self) -> Dict[str, tuple]:
        """The CSR tables read back through the kernel's own pointers, in the
        :class:`CompiledNet` tuple shapes (for the codegen auditor)."""
        struct = self._struct
        count = struct.num_transitions

        def rows(start: Optional[int], *columns: Optional[int]) -> tuple:
            offsets = _read(start, count + 1)
            total = offsets[-1] if offsets else 0
            flat = [_read(column, total) for column in columns]
            decoded = []
            for t in range(count):
                span = range(offsets[t], offsets[t + 1])
                if len(flat) == 1:
                    decoded.append(tuple(flat[0][e] for e in span))
                else:
                    decoded.append(tuple(tuple(col[e] for col in flat) for e in span))
            return tuple(decoded)

        consensus = _read(struct.consensus, 3 * count)
        return {
            "pre_lists": rows(struct.pre_start, struct.pre_index, struct.pre_need),
            "delta_lists": rows(struct.delta_start, struct.delta_index,
                                struct.delta_value),
            "affected": rows(struct.affected_start, struct.affected),
            "consensus_deltas": tuple(
                tuple(consensus[3 * t:3 * t + 3]) for t in range(count)
            ),
        }

    def fallback(self) -> Any:
        """The generated stepper of this variant, built on first use."""
        if self._fallback is None:
            self._fallback = self._fallback_factory()
        return self._fallback

    def _declines(self, counts: Sequence[int], rng: Any, max_steps: Any,
                  stability_window: Any, ring: Optional[List[int]],
                  capacity: int) -> bool:
        """True for runs the kernel does not model: a :class:`random.Random`
        subclass (it may draw differently), a seed that is not an int (it is
        hashed into the generator), non-int budgets, and runs beyond the
        int64 bound."""
        if type(rng) is not random.Random and not isinstance(rng, int):
            return True
        if type(max_steps) is not int or type(stability_window) is not int:
            return True
        if not -_STEP_LIMIT < max_steps < _STEP_LIMIT:
            return True
        if ring is not None and (capacity < 1 or len(ring) != capacity):
            return True
        return not self._net.int64_safe(counts, max(0, max_steps))

    def __call__(
        self,
        counts: List[int],
        rng: Any,
        max_steps: int,
        stability_window: int,
        one: int,
        zero: int,
        undef: int,
        ring: Optional[List[int]] = None,
        capacity: int = 0,
    ) -> Tuple[int, int, int, bool]:
        if self._declines(counts, rng, max_steps, stability_window, ring, capacity):
            if not isinstance(rng, random.Random):
                rng = random.Random(rng)
            extra = (ring, capacity) if self._record else ()
            return self.fallback()(counts, rng, max_steps, stability_window,
                                   one, zero, undef, *extra)
        # ``step - since`` lies in [0, max_steps], so every window at or
        # below 0 acts as 0 and every window above max_steps never fires.
        window = min(max(stability_window, 0), max(max_steps, 0) + 1)
        buffer = array("q", counts)
        args = array("q", (max_steps, window, one, zero, undef, 0, 0, 0, 0))
        ring_buffer = array("i", bytes(4 * capacity)) if ring is not None else None
        ring_address = _address(ring_buffer) if ring_buffer is not None else None
        if isinstance(rng, int):
            key = _seed_bytes(rng)
            status = self._run(self._struct_address, self._kind, _address(buffer),
                               None, key, len(key), _address(args),
                               ring_address, capacity)
        else:
            version, words, gauss = rng.getstate()
            state = _state_buffer(words)
            status = self._run(self._struct_address, self._kind, _address(buffer),
                               _address(state), None, 0, _address(args),
                               ring_address, capacity)
            rng.setstate((version, tuple(state), gauss))
        if status != 0:
            raise MemoryError("native stepper could not allocate its scratch memory")
        counts[:] = buffer
        if ring_buffer is not None:
            ring[:] = ring_buffer
        return args[5], args[6], args[7], bool(args[8])

    def __repr__(self) -> str:
        return f"NativeStepper({self.qa_meta.get('label', '?')})"
