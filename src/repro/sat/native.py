"""ctypes loader and backend wrapper for the native CDCL core.

The C source lives in ``_native/cdcl.c`` and is compiled on demand into
``_native/build/libcdcl-<hash>.so`` the first time the core is requested
(``cc -O2 -shared -fPIC``; the hash covers the source, so editing the C
file triggers a rebuild and stale libraries are simply ignored).  The
build directory is gitignored — nothing binary is ever committed.

Availability is an explicit, probeable property: :func:`native_unavailable_reason`
returns ``None`` when the core is loadable and a human-readable reason
(no compiler, compile error, load error) otherwise.  ``cdcl:native=1``
surfaces that reason through the backend registry probe, and
:class:`NativeCdclSolver` raises :class:`~repro.errors.SolverError` with
the same message — there is deliberately no silent fallback to the
Python loop, so a benchmark labelled "native" can never quietly measure
the wrong engine.
"""

from __future__ import annotations

import ctypes
import hashlib
import shutil
import subprocess
import time
from array import array
from collections.abc import Iterable, Sequence
from pathlib import Path
from threading import Lock

from repro.errors import SolverError
from repro.sat.solver import SolveResult, SolverStats, Status

_SOURCE = Path(__file__).resolve().parent / "_native" / "cdcl.c"
_BUILD_DIR = _SOURCE.parent / "build"
_COMPILERS = ("cc", "gcc", "clang")

# Literals cross the ABI as int32; anything outside (-2**31, 2**31) would
# be silently wrapped by ctypes, so every entry point rejects it instead.
_LITERAL_LIMIT = 2**31
# add_cnf hands the C core an array('i') buffer in place.
assert array("i").itemsize == 4

_SAT = 1
_UNSAT = -1
_UNKNOWN = 0

_COUNTER_NAMES = (
    "decisions", "propagations", "conflicts", "restarts",
    "learned_clauses", "deleted_clauses", "max_decision_level",
)

_lock = Lock()
_lib: ctypes.CDLL | None = None
_load_error: str | None = None
_load_attempted = False


def _configure(lib: ctypes.CDLL) -> ctypes.CDLL:
    lib.cdcl_new.restype = ctypes.c_void_p
    lib.cdcl_new.argtypes = [ctypes.c_uint32, ctypes.c_int64]
    lib.cdcl_free.restype = None
    lib.cdcl_free.argtypes = [ctypes.c_void_p]
    lib.cdcl_add_variable.restype = ctypes.c_int32
    lib.cdcl_add_variable.argtypes = [ctypes.c_void_p]
    lib.cdcl_num_variables.restype = ctypes.c_int32
    lib.cdcl_num_variables.argtypes = [ctypes.c_void_p]
    lib.cdcl_add_clause.restype = ctypes.c_int32
    lib.cdcl_add_clause.argtypes = [
        ctypes.c_void_p, ctypes.POINTER(ctypes.c_int32), ctypes.c_int32,
    ]
    lib.cdcl_add_clauses.restype = ctypes.c_int32
    lib.cdcl_add_clauses.argtypes = [
        ctypes.c_void_p, ctypes.POINTER(ctypes.c_int32), ctypes.c_int32,
    ]
    lib.cdcl_solve.restype = ctypes.c_int32
    lib.cdcl_solve.argtypes = [
        ctypes.c_void_p, ctypes.POINTER(ctypes.c_int32), ctypes.c_int32,
        ctypes.c_int64, ctypes.c_double,
    ]
    lib.cdcl_copy_model.restype = None
    lib.cdcl_copy_model.argtypes = [
        ctypes.c_void_p, ctypes.POINTER(ctypes.c_int8), ctypes.c_int32,
    ]
    lib.cdcl_failed_size.restype = ctypes.c_int32
    lib.cdcl_failed_size.argtypes = [ctypes.c_void_p]
    lib.cdcl_copy_failed.restype = None
    lib.cdcl_copy_failed.argtypes = [
        ctypes.c_void_p, ctypes.POINTER(ctypes.c_int32),
    ]
    lib.cdcl_counter.restype = ctypes.c_int64
    lib.cdcl_counter.argtypes = [ctypes.c_void_p, ctypes.c_int32]
    return lib


def _build_and_load() -> tuple[ctypes.CDLL | None, str | None]:
    if not _SOURCE.exists():
        return None, f"native source missing: {_SOURCE}"
    source = _SOURCE.read_bytes()
    digest = hashlib.sha256(source).hexdigest()[:12]
    library = _BUILD_DIR / f"libcdcl-{digest}.so"
    if not library.exists():
        compiler = next(
            (found for name in _COMPILERS if (found := shutil.which(name))),
            None,
        )
        if compiler is None:
            return None, (
                "no C compiler found (tried: " + ", ".join(_COMPILERS) + ")"
            )
        _BUILD_DIR.mkdir(parents=True, exist_ok=True)
        # Build to a temp name then rename: a crashed compile never leaves
        # a half-written .so that a later load would trip over.
        staging = library.with_suffix(".so.tmp")
        command = [
            compiler, "-O2", "-shared", "-fPIC", "-std=c11",
            "-o", str(staging), str(_SOURCE),
        ]
        proc = subprocess.run(command, capture_output=True, text=True)
        if proc.returncode != 0:
            detail = (proc.stderr or proc.stdout).strip().splitlines()
            head = detail[0] if detail else "no compiler output"
            return None, f"compile failed ({compiler}): {head}"
        staging.replace(library)
    try:
        return _configure(ctypes.CDLL(str(library))), None
    except OSError as exc:
        return None, f"failed to load {library.name}: {exc}"


def _ensure_loaded() -> tuple[ctypes.CDLL | None, str | None]:
    global _lib, _load_error, _load_attempted
    with _lock:
        if not _load_attempted:
            _lib, _load_error = _build_and_load()
            _load_attempted = True
        return _lib, _load_error


def native_unavailable_reason() -> str | None:
    """``None`` when the native core loads, else why it cannot."""
    _, reason = _ensure_loaded()
    return reason


class NativeCdclSolver:
    """The C core behind the :class:`IncrementalSatBackend` surface.

    Selected with ``cdcl:native=1``.  Supports incremental clause
    addition, assumptions with conflict-analysis cores, and conflict/time
    budgets; it does not implement the Python engine's root-level
    inprocessing (subsumption and self-subsumption) or LBD-ranked
    clause reduction.
    """

    def __init__(
        self,
        *,
        conflict_limit: int | None = None,
        restart_base: int = 100,
        random_seed: int = 0,
    ) -> None:
        lib, reason = _ensure_loaded()
        if lib is None:
            raise SolverError(f"native core unavailable: {reason}")
        self._lib = lib
        self._handle = lib.cdcl_new(random_seed & 0xFFFFFFFF, restart_base)
        if not self._handle:
            raise SolverError("native core allocation failed")
        self._conflict_limit = conflict_limit
        self._declared = 0
        self._last_status: Status | None = None
        self._last_seconds = 0.0

    def __del__(self) -> None:  # pragma: no cover - interpreter shutdown
        handle = getattr(self, "_handle", None)
        if handle:
            self._lib.cdcl_free(handle)
            self._handle = None

    # -- backend surface ---------------------------------------------------
    @property
    def num_variables(self) -> int:
        return max(self._declared, self._lib.cdcl_num_variables(self._handle))

    def add_variable(self) -> int:
        self._declared = self.num_variables + 1
        return self._declared

    def add_clause(self, literals: Iterable[int]) -> bool:
        clause = _checked(literals, "literal")
        packed = (ctypes.c_int32 * len(clause))(*clause)
        return bool(
            self._lib.cdcl_add_clause(self._handle, packed, len(clause))
        )

    def add_cnf(self, cnf) -> None:
        """Load every clause of ``cnf`` with one foreign call.

        The clauses are packed into one length-prefixed int32 buffer
        (``size, lit..., size, lit...``).  ``array`` rejects non-int and
        out-of-range values while packing; the C core rejects ``0`` and
        ``-2**31``.  Either way the batch raises :class:`SolverError` and
        nothing of it is loaded.
        """
        # A list packed into the array at the end measured faster than
        # growing the array clause by clause.
        values: list[int] = []
        for clause in cnf.clauses:
            literals = clause.literals
            values.append(len(literals))
            values.extend(literals)
        try:
            flat = array("i", values)
        except (TypeError, OverflowError) as exc:
            raise SolverError(f"invalid literal in clause batch: {exc}") from exc
        if flat:
            buffer = (ctypes.c_int32 * len(flat)).from_buffer(flat)
            if self._lib.cdcl_add_clauses(self._handle, buffer, len(flat)) < 0:
                raise SolverError("invalid literal in clause batch")
        self._declared = max(self._declared, cnf.num_variables)

    def solve(
        self,
        assumptions: Sequence[int] = (),
        *,
        conflict_limit: int | None = None,
        time_limit: float | None = None,
    ) -> SolveResult:
        # The C core opens one (possibly empty) decision level per
        # assumption; deduplicating here keeps that stack linear in the
        # variable count without changing the semantics or the core.
        unique = list(dict.fromkeys(_checked(assumptions, "assumption literal")))
        packed = (ctypes.c_int32 * len(unique))(*unique)
        budget = conflict_limit if conflict_limit is not None else self._conflict_limit
        started = time.monotonic()
        verdict = self._lib.cdcl_solve(
            self._handle,
            packed,
            len(unique),
            -1 if budget is None else budget,
            -1.0 if time_limit is None else time_limit,
        )
        self._last_seconds = time.monotonic() - started
        if verdict == _SAT:
            self._last_status = Status.SATISFIABLE
            num_vars = self.num_variables
            buffer = (ctypes.c_int8 * num_vars)()
            self._lib.cdcl_copy_model(self._handle, buffer, num_vars)
            model = {
                variable: bool(buffer[variable - 1])
                for variable in range(1, num_vars + 1)
            }
            return SolveResult(Status.SATISFIABLE, model, self._stats())
        if verdict == _UNSAT:
            self._last_status = Status.UNSATISFIABLE
            return SolveResult(Status.UNSATISFIABLE, None, self._stats())
        self._last_status = Status.UNKNOWN
        return SolveResult(Status.UNKNOWN, None, self._stats())

    def failed_assumptions(self) -> list[int]:
        if self._last_status is not Status.UNSATISFIABLE:
            raise SolverError(
                "failed_assumptions() is only defined after an UNSAT solve() call"
            )
        size = self._lib.cdcl_failed_size(self._handle)
        buffer = (ctypes.c_int32 * max(size, 1))()
        self._lib.cdcl_copy_failed(self._handle, buffer)
        return [buffer[i] for i in range(size)]

    def counters(self) -> dict[str, float]:
        if self._last_status is None:
            return {}
        values = {
            name: float(self._lib.cdcl_counter(self._handle, index))
            for index, name in enumerate(_COUNTER_NAMES)
        }
        values["solve_time"] = self._last_seconds
        return values

    # -- helpers ----------------------------------------------------------
    def _stats(self) -> SolverStats:
        stats = SolverStats()
        stats.decisions = int(self._lib.cdcl_counter(self._handle, 0))
        stats.propagations = int(self._lib.cdcl_counter(self._handle, 1))
        stats.conflicts = int(self._lib.cdcl_counter(self._handle, 2))
        stats.restarts = int(self._lib.cdcl_counter(self._handle, 3))
        stats.learned_clauses = int(self._lib.cdcl_counter(self._handle, 4))
        stats.deleted_clauses = int(self._lib.cdcl_counter(self._handle, 5))
        stats.max_decision_level = int(self._lib.cdcl_counter(self._handle, 6))
        stats.solve_time = self._last_seconds
        return stats


def _checked(literals: Iterable[int], what: str) -> list[int]:
    """``literals`` as a list, or :class:`SolverError` on the first that
    is not a non-zero int32 (``bool`` included: ``True`` is not ``1``)."""
    checked: list[int] = []
    for literal in literals:
        if (
            isinstance(literal, bool)
            or not isinstance(literal, int)
            or literal == 0
            or not -_LITERAL_LIMIT < literal < _LITERAL_LIMIT
        ):
            raise SolverError(f"invalid {what} {literal!r}")
        checked.append(literal)
    return checked


# Structural registration: isinstance checks against the backend protocol
# must hold for the native core exactly as they do for the Python engine.
from repro.sat.backend import IncrementalSatBackend  # noqa: E402

IncrementalSatBackend.register(NativeCdclSolver)
