"""Reproducible bivariate-normal subgroup generation.

Randomness contract
-------------------
Every replication owns a Philox counter-based substream whose 2-word key is
``SeedSequence(master_seed, spawn_key=(replication_index,))
.generate_state(2, np.uint64)``, so substreams are independent and the draw
for a given subgroup never depends on execution order or worker count.
``substream_keys`` computes these keys for a whole batch of replications in
one vectorized pass of the SeedSequence hash; they equal numpy's keys bit
for bit. A Philox stream is a pure function of its key and counter, so one
generator re-keyed through its state serves a whole batch without building
a generator per replication. That is ``SubgroupStream``, the one reader of
the contract: the engine reads a chunk of replications through it, and
``trace`` and ``sample_subgroup`` read one.

Within a substream, subgroup ``t`` (0-based) consumes a fixed slot of raw
64-bit words: slots are padded to the 4-word Philox counter block, the
first ``n`` words drive the X draws and the next ``n`` words the residual
of Y given X. Words become uniforms via ``((w >> 11) + 0.5) * 2**-53``
(strictly inside (0, 1)) and normals via the inverse normal CDF, which
consumes exactly one word per normal. That fixed budget is what makes
``sample_subgroup`` a pure function of ``(master_seed, replication,
subgroup_index)`` and lets the block-vectorized simulation engine replay
identical values.

The bivariate draw is the conditional (Cholesky) construction, X first:

    x = mu_x + sigma_x * zx
    y = mu_y + rho * sigma_y * zx + sigma_y * sqrt(1 - rho^2) * ze

so the conditional-mean slope of Y on X is beta = rho * sigma_y / sigma_x.

The normal CDF and quantile are scipy's ufuncs, taken from
``scipy.special``'s compiled extensions without the package's init
(``_ufunc``): ``ndtr``, which the oracles use, from ``_special_ufuncs`` at
import; ``ndtri``, which the engine decodes with, from the cephes
``_ufuncs`` at the first call of ``load_engine_code``, together with
``numpy.random``. A process that only calibrates an EWMA chart loads
neither. Each falls back to the package, ``ndtr`` first to ``_ufuncs``.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import operator
import os
import sys
import threading
import types
from dataclasses import dataclass
from enum import Enum

import numpy as np


_U64_MAX = 2**64
_UNIFORM_SCALE = 2.0**-53


def _from_extension(extension: str, name: str):
    """Ufunc ``name`` of ``scipy/special/<extension><suffix>``, or None.

    ``scipy.special``'s package init imports scipy's array-API layer
    (``numpy.f2py``, ``unittest``, ``email``, ...), which would double a
    fresh ``import aibmon.cli``, for two ufuncs. So the extension is loaded
    by file path, without ``scipy``'s or ``scipy.special``'s package init,
    under a placeholder ``scipy.special`` through which it imports its
    sibling extensions; the placeholder leaves ``sys.modules`` before this
    returns, the extension stays. A later ``import scipy.special`` runs the
    real package, which reuses the loaded extensions and, through
    ``_SetExtensionAttributes``, has them as attributes: the ufunc is the
    package's own either way. The file layout is scipy's private one, so a
    missing file, a failed load or a missing name gives None.
    """
    module_name = "scipy.special." + extension
    if module_name in sys.modules:
        return getattr(sys.modules[module_name], name, None)
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        return None
    directory = os.path.join(spec.submodule_search_locations[0], "special")
    paths = [os.path.join(directory, extension + suffix)
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        return None
    placeholder = types.ModuleType("scipy.special")
    placeholder.__path__ = [directory]
    sys.modules["scipy.special"] = placeholder
    try:
        file_spec = importlib.util.spec_from_file_location(module_name, path)
        module = importlib.util.module_from_spec(file_spec)
        sys.modules[module_name] = module
        file_spec.loader.exec_module(module)
        if _SetExtensionAttributes not in sys.meta_path:
            sys.meta_path.insert(0, _SetExtensionAttributes)
        return getattr(module, name)
    except (ImportError, AttributeError):
        sys.modules.pop(module_name, None)
        return None
    finally:
        del sys.modules["scipy.special"]


class _SetExtensionAttributes:
    """One-shot finder: before its init, the real ``scipy.special`` gets the
    submodules loaded under the placeholder as attributes, as it would have
    had it imported them itself."""

    @staticmethod
    def find_spec(fullname, path, target=None):
        if fullname != "scipy.special":
            return None
        sys.meta_path.remove(_SetExtensionAttributes)
        spec = importlib.util.find_spec(fullname)
        exec_module = spec.loader.exec_module

        def exec_with_extensions(package):
            for name, module in list(sys.modules.items()):
                parent, _, child = name.rpartition(".")
                if parent == "scipy.special":
                    setattr(package, child, module)
            exec_module(package)

        spec.loader.exec_module = exec_with_extensions
        return spec


def _ufunc(name: str, *extensions: str):
    """scipy's ufunc ``name``, from the first of ``extensions`` that has it.

    Once ``scipy.special`` is imported, or where no extension gives the
    name (``_from_extension``), it comes from the package, whose own object
    it is in every case.
    """
    if "scipy.special" not in sys.modules:
        for extension in extensions:
            ufunc = _from_extension(extension, name)
            if ufunc is not None:
                return ufunc
    return getattr(importlib.import_module("scipy.special"), name)


# The oracles' normal CDF. ``_special_ufuncs`` loads in about 1 ms and
# imports nothing else; ``_ufuncs`` also has it, but brings in the scipy
# package, three more extensions and most of the start-up.
ndtr = _ufunc("ndtr", "_special_ufuncs", "_ufuncs")

# The engine's code, loaded at its first use by load_engine_code.
_ndtri = None
_load_lock = threading.Lock()


def load_engine_code():
    """The ``ndtri`` ufunc, loading it and ``numpy.random`` on the first call.

    ``ndtri`` lives only in the cephes ``_ufuncs`` extension. Loading it
    brings in the scipy package and three more extensions; with
    ``numpy.random`` that is about 40 ms and 10 MB of a fresh process (2
    vCPUs), which a process that only calibrates an EWMA chart never pays.
    The engine calls this at its first decode, ``runlength`` before it
    forks workers, so that they inherit both, and a Shewhart calibration
    for its quantile.
    """
    global _ndtri
    with _load_lock:
        if _ndtri is None:
            import numpy.random  # noqa: F401  (Philox and SeedSequence)

            _ndtri = _ufunc("ndtri", "_ufuncs")
    return _ndtri


class ShiftMode(str, Enum):
    """How the out-of-control means of Y and X are coupled."""

    INDEPENDENT = "independent"
    MASKING = "masking"


@dataclass(frozen=True)
class ProcessModel:
    """In-control bivariate-normal description of (Y, X).

    Fields are the in-control means, standard deviations, correlation and
    subgroup size. ``|rho| = 1`` is rejected: downstream limit widths and
    the masking coupling divide by sqrt(1 - rho^2) and beta respectively.
    Non-finite means and standard deviations are rejected: a chart built on
    them never signals, so every replication would run to the cap.
    """

    mu_y0: float
    mu_x0: float
    sigma_y: float
    sigma_x: float
    rho: float
    n: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.mu_y0) and math.isfinite(self.mu_x0)):
            raise ValueError("mu_y0 and mu_x0 must be finite")
        if not (0 < self.sigma_y < math.inf and 0 < self.sigma_x < math.inf):
            raise ValueError("sigma_y and sigma_x must be positive and finite")
        if not abs(self.rho) < 1:
            raise ValueError("need |rho| < 1 (degenerate correlation rejected)")
        object.__setattr__(self, "n", check_int("subgroup size n", self.n, 1))

    def beta(self) -> float:
        """Population regression slope of Y on X: rho * sigma_y / sigma_x."""
        return self.rho * self.sigma_y / self.sigma_x

    @classmethod
    def standard(cls, rho: float, n: int = 1) -> "ProcessModel":
        """Zero-mean unit-variance model; raw and standardized shifts coincide."""
        return cls(mu_y0=0.0, mu_x0=0.0, sigma_y=1.0, sigma_x=1.0, rho=rho, n=n)


@dataclass(frozen=True)
class ShiftScenario:
    """Out-of-control description in standardized shift units.

    ``delta_y`` and ``delta_x`` are shifts in units of sigma/sqrt(n). In
    MASKING mode the X shift is derived from ``delta_y`` so that it exactly
    cancels the Y shift inside the auxiliary-adjusted statistic, and a
    nonzero ``delta_x`` is refused. ``changepoint`` counts in-control
    subgroups before the shift (0 = shift active from the first subgroup).
    """

    delta_y: float = 0.0
    delta_x: float = 0.0
    mode: ShiftMode = ShiftMode.INDEPENDENT
    changepoint: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.delta_y) and math.isfinite(self.delta_x)):
            raise ValueError("delta_y and delta_x must be finite")
        object.__setattr__(
            self, "changepoint", check_int("changepoint", self.changepoint, 0)
        )
        # "masking" is not ``ShiftMode.MASKING``; any other value raises.
        object.__setattr__(self, "mode", ShiftMode(self.mode))
        if self.mode is ShiftMode.MASKING and self.delta_x != 0:
            raise ValueError(
                "delta_x must be 0 in masking mode, where the X shift is derived "
                f"from delta_y, got {self.delta_x!r}"
            )


def check_int(name: str, value, low: int, high: float = math.inf) -> int:
    """``value`` as an ``int`` in [low, high), or ``ValueError``.

    Takes what ``operator.index`` takes, numpy integers too, but no ``bool``.
    """
    if not isinstance(value, (bool, np.bool_)) and hasattr(type(value), "__index__"):
        if low <= (number := operator.index(value)) < high:
            return number
    raise ValueError(f"{name} must be an integer in [{low}, {high}), got {value!r}")


# numpy's SeedSequence hash (pool size 4) on 32-bit words, for mixing spawn
# words into the pool. Each hashmix call consumes the next multiplier of a
# fixed sequence, so the constants of every call can be listed up front.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(start: int, mult: int, calls: int) -> list[tuple[int, int]]:
    """(xor, multiplier) of ``calls`` successive hash calls."""
    consts, h = [], start
    for _ in range(calls):
        nxt = (h * mult) & _MASK32
        consts.append((h, nxt))
        h = nxt
    return consts


# Pool fill (4 calls) and pairwise pool mixing (12) come first, then up to two
# spawn-index words of 4 calls each.
_SPAWN_CONSTS = _hash_constants(_INIT_A, _MULT_A, 24)[16:]
_OUT_CONSTS = _hash_constants(_INIT_B, _MULT_B, _POOL_SIZE)


def _hashmix(value, consts):
    """SeedSequence ``hashmix`` on a Python int or a uint32 array."""
    xor, mult = consts
    value = ((value ^ xor) * mult) & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    """SeedSequence ``mix`` on Python ints or uint32 arrays.

    ``x`` is masked before the subtraction so that a Python-int ``x`` never
    meets a uint32 array ``y`` as a value wider than 32 bits.
    """
    value = (((_MIX_MULT_L * x) & _MASK32) - _MIX_MULT_R * y) & _MASK32
    return value ^ (value >> 16)


@functools.lru_cache(maxsize=16)
def _seed_pool(master_seed: int) -> tuple[int, ...]:
    """numpy's entropy pool for ``master_seed``, as Python ints.

    numpy mixes a spawn key's words in only after this pool is built (for a
    seed of at most four 32-bit words), so ``_state_words`` goes on from it.
    """
    return tuple(np.random.SeedSequence(master_seed).pool.tolist())


def _state_words(pool, spawn_words) -> list:
    """The four 32-bit output words after mixing the spawn words into the pool.

    Works elementwise on uint32 arrays of spawn words.
    """
    consts = iter(_SPAWN_CONSTS)
    for word in spawn_words:
        pool = [_mix(p, _hashmix(word, next(consts))) for p in pool]
    return [_hashmix(p, c) for p, c in zip(pool, _OUT_CONSTS)]


def substream_keys(master_seed: int, indices) -> np.ndarray:
    """Philox keys of replications ``indices`` of ``master_seed``, shape (len, 2).

    Row ``r`` equals ``SeedSequence(master_seed, spawn_key=(indices[r],))
    .generate_state(2, np.uint64)``. ``indices`` is a numpy integer array
    or a sequence of what ``check_int`` takes, in [0, 2**64). The pool
    stage depends only on the master seed; the spawn-index stage runs
    column-wise over all indices. An index of 2**32 or more contributes a
    second 32-bit word.
    """
    master_seed = check_int("master_seed", master_seed, 0, _U64_MAX)
    if isinstance(indices, np.ndarray):
        # One dtype check, and a minimum only for signed arrays: a float
        # would truncate to another replication's key, a bool alias 0 or 1.
        kind = indices.dtype.kind
        if indices.size and not (kind == "u" or kind == "i" and indices.min() >= 0):
            raise ValueError(f"replication indices must be integers >= 0, got {indices!r}")
        idx = indices.astype(np.uint64, copy=False)
    else:
        idx = np.array(
            [check_int("replication_index", i, 0, _U64_MAX) for i in indices], np.uint64
        )
    pool = _seed_pool(master_seed)
    low = (idx & _MASK32).astype(np.uint32)
    w = _state_words(pool, [low])
    wide = idx > _MASK32
    if wide.any():
        high = (idx >> np.uint64(32)).astype(np.uint32)
        w = [np.where(wide, b, a) for a, b in zip(w, _state_words(pool, [low, high]))]
    w = [v.astype(np.uint64) for v in w]
    return np.stack(
        [w[0] | (w[1] << np.uint64(32)), w[2] | (w[3] << np.uint64(32))], axis=-1
    )


def shifted_means(model: ProcessModel, scenario: ShiftScenario) -> tuple[float, float]:
    """Post-changepoint means (mu_y1, mu_x1) in raw units.

    INDEPENDENT: each mean moves by its own standardized shift,
    delta * sigma / sqrt(n). MASKING: the X mean moves by
    delta_y * sigma_y / (beta * sqrt(n)), the exact amount that cancels the
    Y shift inside the auxiliary-adjusted statistic.
    """
    root_n = math.sqrt(model.n)
    mu_y1 = model.mu_y0 + scenario.delta_y * model.sigma_y / root_n
    if scenario.mode is ShiftMode.MASKING:
        if model.beta() == 0.0:
            raise ValueError(
                f"masking-coupled shift undefined at beta = 0 (rho = {model.rho!r})"
            )
        mu_x1 = model.mu_x0 + scenario.delta_y * model.sigma_y / (model.beta() * root_n)
    else:
        mu_x1 = model.mu_x0 + scenario.delta_x * model.sigma_x / root_n
    return mu_y1, mu_x1


def words_per_subgroup(n: int) -> int:
    """Raw 64-bit words reserved per subgroup (2n, padded to the 4-word block)."""
    return 4 * ((2 * n + 3) // 4)


def _uniforms(raw: np.ndarray) -> np.ndarray:
    # raw >> 11 < 2**53, so its conversion to float64 inside the add is exact.
    u = np.add(raw >> np.uint64(11), 0.5)
    u *= _UNIFORM_SCALE
    return u


def normals_from_words(n: int, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decode raw word slots into standard-normal arrays (zx, ze).

    ``words`` has shape (..., words_per_subgroup(n)); the first n words map
    to the X normals, the next n to the residual normals, the padding is
    discarded. Used by both the scalar and the batched generation paths so
    the decoded values agree bitwise.
    """
    z = _uniforms(words[..., : 2 * n])
    # Once loaded, no lock: a forked worker never waits on one.
    (_ndtri or load_engine_code())(z, out=z)
    return z[..., :n], z[..., n : 2 * n]


class SubgroupStream:
    """Raw word slots of the substreams of replications ``indices`` of
    ``master_seed``, from one re-keyed Philox.

    Row ``r`` reads the substream keyed ``substream_keys(master_seed,
    indices)[r]``. Subgroup ``t`` of a substream starts at Philox counter
    ``t * words_per_subgroup(n) // 4``; ``take_words`` writes each row's key
    and that counter into the generator's state and draws the row's words,
    so no generator is built per replication. Not thread-safe: each thread
    needs its own instance.
    """

    def __init__(self, n: int, master_seed: int, indices):
        self._wps = words_per_subgroup(n)
        self._keys = substream_keys(master_seed, indices).tolist()
        self._bitgen = np.random.Philox(0)
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": None},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def take_words(self, count: int, start: int = 0, rows=None) -> np.ndarray:
        """Word slots of subgroups ``start .. start+count-1`` of each row.

        ``rows`` index the batch (all rows if None); the result has shape
        (len(rows), count, words_per_subgroup(n)).
        """
        count = check_int("count", count, 0)
        start = check_int("start_index", start, 0)
        wps, bitgen, keys = self._wps, self._bitgen, self._keys
        if rows is not None:
            keys = [keys[row] for row in np.asarray(rows).tolist()]
        out = np.empty((len(keys), count * wps), dtype=np.uint64)
        counter = start * wps // 4
        if counter >= 2**256:
            raise ValueError(f"subgroup {start} is beyond Philox's 256-bit counter")
        state, inner = self._state, self._state["state"]
        # The counter is four 64-bit words, least significant first. buffer_pos
        # = 4 marks the buffer spent, so the first draw advances the counter by
        # one before generating, exactly as a fresh stream.
        inner["counter"] = [(counter >> bits) % _U64_MAX for bits in (0, 64, 128, 192)]
        for i, key in enumerate(keys):
            inner["key"] = key
            bitgen.state = state
            out[i] = bitgen.random_raw(count * wps)
        return out.reshape(len(keys), count, wps)


def pairs_from_normals(
    model: ProcessModel,
    mu_y: float | np.ndarray,
    mu_x: float | np.ndarray,
    zx: np.ndarray,
    ze: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Map standard-normal draws (zx, ze) to (y, x) under the given means.

    Shared by the scalar and block-vectorized paths so both produce
    bit-identical values from the same normals; broadcasts over any leading
    axes. Computes y = (mu_y + (rho*sigma_y)*zx) + (sigma_y*sqrt(1-rho^2))*ze
    in that order, in place on its own temporaries; ``zx`` and ``ze`` are
    not written.
    """
    x = model.sigma_x * zx
    x += mu_x
    y = (model.rho * model.sigma_y) * zx
    y += mu_y
    y += (model.sigma_y * math.sqrt(1.0 - model.rho**2)) * ze
    return y, x


def sample_subgroup(
    model: ProcessModel,
    mu_y: float,
    mu_x: float,
    master_seed: int,
    replication: int,
    subgroup_index: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Subgroup ``subgroup_index`` of the substream keyed
    ``substream_keys(master_seed, [replication])``.

    Returns its ``(y, x)`` pair of length-n arrays, as ``pairs_from_normals``
    does. The draw is a pure function of its arguments: replaying them
    gives bit-identical arrays. Means are supplied by the caller so the
    same substream serves in-control and shifted regimes.
    """
    stream = SubgroupStream(model.n, master_seed, [replication])
    zx, ze = normals_from_words(model.n, stream.take_words(1, subgroup_index)[0, 0])
    return pairs_from_normals(model, mu_y, mu_x, zx, ze)
