"""Model assembly and path/ensemble simulation.

A model pairs an indexed kernel family with a mixing measure.  Unconditional
sampling draws the structural parameter from the mixing measure and then the
interarrivals independently from the per-index kernel laws; conditional
sampling fixes the parameter.  The drawn parameter is stored on every path:
it is a first-class quantity here, which is what makes conditional checks
possible downstream.

Ensembles are reproducible: path ``i`` owns the child stream ``i`` of the
root seed (see :mod:`mrplab.rng`), so results are bitwise identical however
paths are chunked.  Infinite interarrival sequences are truncated at a fixed
per-path length, recorded in the ensemble metadata.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .counting import compensated_cumsum_rows
from .errors import (
    CapacityError,
    ConfigurationError,
    InvalidInterarrivalError,
    ParameterDomainError,
)
from .kernels import (
    KernelSpec,
    MixingMeasure,
    kernel_sample_batch,
    verify_mixing_mass,
)
from .rng import StreamBank, UniformStream, child_seed
from . import rng as _rng

MAX_ENSEMBLE_DRAWS = 50_000_000
_CHUNK = 65_536

SEED_RULE = "splitmix64-child-v1"


@dataclass(frozen=True)
class MrpModel:
    """A kernel family plus a mixing measure, cross-validated."""

    kernel: KernelSpec
    mixing: MixingMeasure
    is_proper_mrp: bool
    warnings: tuple = ()

    def to_dict(self) -> dict:
        return {"kernel": self.kernel.to_dict(), "mixing": self.mixing.to_dict()}

    def model_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    @property
    def param_dim(self) -> int:
        return self.kernel.param_dim


def build_model(kernel: KernelSpec, mixing: MixingMeasure) -> MrpModel:
    """Cross-validate a kernel family against a mixing measure.

    Every kernel family (exponential, gamma) lives on (0, inf), so any
    kernel can drive interarrival times.

    Raises
    ------
    ConfigurationError
        On dimension mismatch, support outside the admissible region, or a
        mixing density whose quadrature mass deviates from 1.
    """
    if mixing.dim != kernel.param_dim:
        raise ConfigurationError(
            f"mixing has dimension {mixing.dim} but the kernel expects {kernel.param_dim} "
            "parameter component(s)"
        )
    for j, (lo, hi) in enumerate(mixing.support_box()):
        if lo < 0.0 or hi <= 0.0:
            raise ConfigurationError(
                f"mixing support component {j} = ({lo}, {hi}) is not inside the "
                "kernel-admissible region (positive parameters)"
            )
    if mixing.is_atomic:
        for atom in mixing.atoms:
            if any(not v > 0.0 for v in atom):
                raise ConfigurationError(
                    f"atom {atom} lies outside the kernel-admissible region"
                )
    verify_mixing_mass(mixing)
    warnings = ()
    if not kernel.is_constant_family:
        warnings = (
            "kernel family varies with the index: the model is not a proper "
            "MRP (interarrivals are not conditionally identically distributed)",
        )
    return MrpModel(kernel, mixing, kernel.is_constant_family, warnings)


@dataclass(frozen=True)
class MrpPath:
    """One realization: the drawn parameter, interarrivals, and arrivals."""

    theta: tuple
    interarrivals: np.ndarray
    arrivals: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.interarrivals, dtype=np.float64)
        object.__setattr__(self, "interarrivals", w)
        bad = np.flatnonzero(~(w > 0.0))
        if bad.size:
            i = int(bad[0])
            raise InvalidInterarrivalError(
                f"interarrival {i + 1} is not strictly positive: {w[i]!r}"
            )

    @classmethod
    def from_interarrivals(cls, theta, interarrivals) -> "MrpPath":
        from .counting import arrivals_from_interarrivals

        w = np.asarray(interarrivals, dtype=np.float64)
        return cls(_as_theta_tuple(theta), w, arrivals_from_interarrivals(w))

    @property
    def n_events(self) -> int:
        return int(self.interarrivals.size)


def _as_theta_tuple(theta) -> tuple:
    if np.isscalar(theta):
        return (float(theta),)
    return tuple(float(v) for v in theta)


def _as_stream(rng: Union[int, UniformStream]) -> UniformStream:
    return rng if isinstance(rng, UniformStream) else UniformStream(int(rng))


def _in_support(model: MrpModel, theta) -> tuple:
    pt = _as_theta_tuple(theta)
    if not model.mixing.contains(pt):
        raise ParameterDomainError(f"theta {pt} is outside the mixing support")
    return pt


def _draw(model: MrpModel, bank: StreamBank, n_events: int, theta=None):
    """One path per lane of `bank`: (thetas (lanes, dim), interarrivals (lanes, n_events)).

    Each lane draws its parameter from the mixing measure, or takes the fixed
    `theta`, and then its interarrivals 1..n_events from the kernel at that
    parameter.
    """
    if theta is None:
        thetas = model.mixing.sample_batch(bank)
    else:
        thetas = np.tile(np.asarray(theta, dtype=np.float64), (len(bank), 1))
    kernel_thetas = thetas if model.param_dim > 1 else thetas[:, 0]
    w = np.empty((len(bank), n_events), dtype=np.float64)
    for k in range(1, n_events + 1):
        w[:, k - 1] = kernel_sample_batch(model.kernel, k, kernel_thetas, bank)
    if not np.all(w > 0.0):
        raise InvalidInterarrivalError("sampler produced a nonpositive interarrival")
    return thetas, w


def _draw_paths(model: MrpModel, n_paths: int, n_events: int, root_seed: int, theta=None):
    """`_draw` on child streams 0..n_paths-1 of the root seed, `_CHUNK` paths at a time."""
    thetas = np.empty((n_paths, model.param_dim), dtype=np.float64)
    w = np.empty((n_paths, n_events), dtype=np.float64)
    for lo in range(0, n_paths, _CHUNK):
        hi = min(lo + _CHUNK, n_paths)
        bank = StreamBank.from_root(root_seed, hi - lo, offset=lo)
        thetas[lo:hi], w[lo:hi] = _draw(model, bank, n_events, theta)
    return thetas, w


def sample_path(model: MrpModel, n_events: int, rng: Union[int, UniformStream]) -> MrpPath:
    """Draw theta from the mixing measure, then one path of interarrivals.

    Deterministic given the stream seed; arrival times are compensated
    prefix sums of the interarrivals.
    """
    if n_events < 1:
        raise ConfigurationError("n_events must be >= 1")
    thetas, w = _draw(model, _as_stream(rng).bank, n_events)
    return MrpPath.from_interarrivals(thetas[0], w[0])


def sample_conditional_path(
    model: MrpModel, theta, n_events: int, rng: Union[int, UniformStream]
) -> MrpPath:
    """One path under a fixed parameter (the disintegrated, conditional law)."""
    if n_events < 1:
        raise ConfigurationError("n_events must be >= 1")
    pt = _in_support(model, theta)
    _, w = _draw(model, _as_stream(rng).bank, n_events, pt)
    return MrpPath.from_interarrivals(pt, w[0])


def sample_conditional_interarrivals(
    model: MrpModel, theta, n_samples: int, n_events: int, root_seed: int
) -> np.ndarray:
    """(n_samples, n_events) conditional interarrival draws at a fixed theta.

    Sample ``i`` uses child stream ``i`` of the root seed, matching
    `sample_conditional_path` draw for draw.
    """
    pt = _in_support(model, theta)
    return _draw_paths(model, n_samples, n_events, root_seed, pt)[1]


@dataclass(frozen=True)
class Ensemble:
    """A batch of independent paths plus the metadata to reproduce it."""

    model: MrpModel
    root_seed: int
    n_paths: int
    n_events: int
    thetas: np.ndarray  # (n_paths, dim)
    interarrivals: np.ndarray  # (n_paths, n_events)
    arrivals: np.ndarray  # (n_paths, n_events)
    created_at: str = ""
    metadata: dict = field(default_factory=dict)

    def manifest(self) -> dict:
        return {
            "schema_version": 1,
            "model": self.model.to_dict(),
            "model_hash": self.model.model_hash(),
            "root_seed": self.root_seed,
            "n_paths": self.n_paths,
            "n_events": self.n_events,
            "truncation": self.n_events,
            "seed_rule": SEED_RULE,
            "created_at": self.created_at,
            **self.metadata,
        }


def simulate_ensemble(model: MrpModel, n_paths: int, n_events: int, root_seed: int) -> Ensemble:
    """Simulate `n_paths` independent truncated paths.

    Per-path seeds derive deterministically from the root seed, so the result
    is a pure function of (model, n_paths, n_events, root_seed) regardless of
    chunking.
    """
    if n_paths < 1 or n_events < 1:
        raise ConfigurationError("n_paths and n_events must be >= 1")
    if n_paths * n_events > MAX_ENSEMBLE_DRAWS:
        raise CapacityError(
            f"requested {n_paths} x {n_events} draws exceeds the "
            f"{MAX_ENSEMBLE_DRAWS} ensemble capacity"
        )
    thetas, w = _draw_paths(model, n_paths, n_events, root_seed)

    from datetime import datetime, timezone

    return Ensemble(
        model=model,
        root_seed=int(root_seed),
        n_paths=int(n_paths),
        n_events=int(n_events),
        thetas=thetas,
        interarrivals=w,
        arrivals=compensated_cumsum_rows(w),
        created_at=datetime.now(timezone.utc).isoformat(),
    )


def aux_seed(root_seed: int, tag: int) -> int:
    """Auxiliary substream seed (never collides with path streams)."""
    return child_seed(root_seed, _rng.AUX_INDEX_BASE + tag)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def atomic_write_text(path: str, text: str) -> None:
    """Write `text` to `path` through a temp file; on failure remove the temp file."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


# paths per CSV render block; blocks are rendered in worker processes
_RENDER_BLOCK = 8192

# (template, thetas, interarrivals, arrivals), set in each render worker
_worker_args: tuple = ()


def _render_init(*args) -> None:
    global _worker_args
    _worker_args = args


def _render_worker(span: tuple) -> str:
    return _render_block(*_worker_args, *span)


def _render_block(template: str, thetas, w, t, lo: int, hi: int) -> str:
    """CSV rows of paths lo..hi-1, one %-format of `template` per path.

    Every value reaches %r / repr as a Python float (via ``tolist`` or an
    object array), never as a numpy scalar, whose repr differs.
    """
    n_events = w.shape[1]
    args = np.empty((hi - lo, 3 * n_events), dtype=object)
    args[:, 0::3] = np.array(
        [f"{i},{','.join(map(repr, th))}," for i, th in zip(range(lo, hi), thetas[lo:hi].tolist())],
        dtype=object,
    )[:, None]
    args[:, 1::3] = w[lo:hi]
    args[:, 2::3] = t[lo:hi]
    return "".join([template % tuple(row) for row in args.tolist()])


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _render_workers(n_blocks: int) -> int:
    """CSV render workers: the available cores, capped by MRPLAB_THREADS and the block count."""
    cap = os.environ.get("MRPLAB_THREADS")
    return max(1, min(_available_cores(), int(cap) if cap else n_blocks, n_blocks))


def ensemble_csv_text(ensemble: Ensemble) -> str:
    """Render the ensemble as CSV (path_id, theta components, k, w, t).

    Floats are written with shortest round-trip repr, so identical ensembles
    produce byte-identical files.  Blocks of paths are rendered on the
    available cores (capped by MRPLAB_THREADS) in forked processes; the bytes
    do not depend on the worker count.
    """
    dim = ensemble.thetas.shape[1]
    theta_cols = ["theta"] if dim == 1 else [f"theta{j + 1}" for j in range(dim)]
    head = ",".join(["path_id", *theta_cols, "k", "w", "t"]) + "\n"
    n = ensemble.n_paths
    spans = [(lo, min(lo + _RENDER_BLOCK, n)) for lo in range(0, n, _RENDER_BLOCK)]
    template = "".join(f"%s{k + 1},%r,%r\n" for k in range(ensemble.n_events))
    args = (template, ensemble.thetas, ensemble.interarrivals, ensemble.arrivals)
    workers = _render_workers(len(spans))
    if workers > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor

            # fork children inherit the arrays through initargs without pickling
            with ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_render_init,
                initargs=args,
            ) as pool:
                return "".join([head, *pool.map(_render_worker, spans)])
    return "".join([head, *(_render_block(*args, lo, hi) for lo, hi in spans)])


def write_ensemble(ensemble: Ensemble, csv_path: str, manifest_path: Optional[str] = None) -> str:
    """Write the ensemble CSV (and manifest JSON) atomically; returns manifest path."""
    if manifest_path is None:
        manifest_path = csv_path + ".manifest.json"
    atomic_write_text(csv_path, ensemble_csv_text(ensemble))
    manifest = dict(ensemble.manifest())
    manifest["csv"] = os.path.basename(csv_path)
    atomic_write_text(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest_path
