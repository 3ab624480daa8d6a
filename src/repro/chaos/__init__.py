"""Infrastructure chaos: deterministic fs/crash fault injection.

Where :mod:`repro.faults` tortures *simulated* devices, this package
tortures the coordinator stack itself -- the result cache, the job
journal, the sweep and fleet loops -- with the failure shapes real
storage exhibits:

* :mod:`repro.chaos.fs` -- a seeded filesystem shim
  (:class:`ChaosFs`) threaded through every durable write, firing
  ``ENOSPC``, ``EIO``, torn partial writes, and failed renames at
  SeedSequence-derived points, and the one durable writer
  (:func:`write_durably`, :func:`quarantine`) the cache and the
  journal share;
* :mod:`repro.chaos.crash` -- labeled crash points
  (:func:`crash_point`) that an armed process dies at via
  ``os._exit``, exactly like a power cut;
* :mod:`repro.chaos.driver` -- the crash matrix: a subprocess driver
  that kills a sweep/fleet/journal target at *every* labeled point and
  asserts the resumed output is bit-identical to an uninterrupted run.

Disabled -- the default -- all of it is inert: the fs layer is a
stateless pass-through singleton and a crash point is one truthiness
check; the transparency guard in ``tests/chaos`` pins both.
"""

from .driver import (
    MATRIX_TARGETS,
    MatrixReport,
    MatrixRow,
    run_crash_matrix,
    run_target,
)
from .crash import (
    CRASH_EXIT,
    CRASH_POINT_ENV,
    CRASH_POINTS,
    arm,
    crash_point,
    disarm,
    rearm_from_env,
)
from .fs import (
    CHAOS_FS_ENV,
    DEFAULT_DURABILITY,
    DURABILITY_LEVELS,
    REAL_FS,
    ChaosFs,
    FaultSpec,
    RealFs,
    chaos_fs,
    get_fs,
    quarantine,
    set_fs,
    write_durably,
)

__all__ = [
    "CHAOS_FS_ENV",
    "CRASH_EXIT",
    "CRASH_POINT_ENV",
    "CRASH_POINTS",
    "ChaosFs",
    "DEFAULT_DURABILITY",
    "DURABILITY_LEVELS",
    "FaultSpec",
    "MATRIX_TARGETS",
    "MatrixReport",
    "MatrixRow",
    "REAL_FS",
    "RealFs",
    "arm",
    "chaos_fs",
    "crash_point",
    "disarm",
    "get_fs",
    "quarantine",
    "rearm_from_env",
    "run_crash_matrix",
    "run_target",
    "set_fs",
    "write_durably",
]
