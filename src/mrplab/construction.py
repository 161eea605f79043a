"""Model assembly and path/ensemble simulation.

A model pairs an indexed kernel family with a mixing measure.  Unconditional
sampling draws the structural parameter from the mixing measure and then the
interarrivals independently from the per-index kernel laws; conditional
sampling fixes the parameter.  The drawn parameter is stored on every path:
it is a first-class quantity here, which is what makes conditional checks
possible downstream.

Ensembles are reproducible: path ``i`` owns the child stream ``i`` of the
root seed (see :mod:`mrplab.rng`), so results are bitwise identical however
paths are chunked.  `simulate_ensemble` draws them in this process;
`simulate_to_csv` (``mrplab simulate``) draws and renders the blocks of paths
through a `ForkMap` and streams them to the CSV in order.  `ForkMap` is the
one engine that hands work to other cores, one loop for every core count:
this process computes its share of the items, and forked workers, one fewer
than the cores, compute theirs and send them back over pipes.  ``mrplab
verify`` maps its suites through it too.  Infinite interarrival sequences are
truncated at a fixed per-path length, recorded in the ensemble manifest.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
from dataclasses import dataclass
from typing import Union

import numpy as np

from .counting import check_interarrivals, compensated_cumsum, compensated_cumsum_rows
from .errors import (
    CapacityError,
    ConfigurationError,
    InvalidInterarrivalError,
    ParameterDomainError,
)
from .kernels import (
    GAMMA_SHAPE_FLOOR,
    KernelSpec,
    MixingMeasure,
    kernel_law,
    kernel_sample_batch,
    theta_tuple,
    verify_mixing_mass,
)
from .rng import StreamBank, UniformStream, child_seed
from . import rng as _rng

MAX_ENSEMBLE_DRAWS = 50_000_000
# paths per block: ensembles are drawn, and their CSV rendered, a block at a time
_RENDER_BLOCK = 8192

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
        On dimension mismatch, support outside the admissible region, gamma
        kernel shapes reaching below `GAMMA_SHAPE_FLOOR`, or a mixing
        measure whose mass deviates from 1.
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
    # the lowest shape a draw can have is the law's at the support's lower corner
    shape = float(kernel_law(kernel, 1, [[lo for lo, _ in mixing.support_box()]])[1][0])
    if shape < GAMMA_SHAPE_FLOOR:
        raise ConfigurationError(
            f"gamma kernel shapes reach down to {shape}, below the sampler's floor "
            f"{GAMMA_SHAPE_FLOOR:.4f}"
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
        object.__setattr__(self, "interarrivals", check_interarrivals(self.interarrivals))

    @classmethod
    def from_interarrivals(cls, theta, interarrivals) -> "MrpPath":
        # the arrivals unchecked: the path checks its interarrivals once
        w = np.asarray(interarrivals, dtype=np.float64)
        return cls(theta_tuple(theta), w, np.append(0.0, compensated_cumsum(w)))

    @property
    def n_events(self) -> int:
        return int(self.interarrivals.size)


def _as_stream(rng: Union[int, UniformStream]) -> UniformStream:
    return rng if isinstance(rng, UniformStream) else UniformStream(int(rng))


def _in_support(model: MrpModel, theta) -> tuple:
    pt = theta_tuple(theta)
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


def _draw_span(model: MrpModel, n_events: int, root_seed: int, lo: int, hi: int, theta=None):
    """`_draw` on child streams lo..hi-1 of the root seed."""
    return _draw(model, StreamBank.from_root(root_seed, hi - lo, offset=lo), n_events, theta)


def _draw_paths(model: MrpModel, n_paths: int, n_events: int, root_seed: int, theta=None):
    """`_draw` on child streams 0..n_paths-1 of the root seed, a block at a time."""
    thetas = np.empty((n_paths, model.param_dim), dtype=np.float64)
    w = np.empty((n_paths, n_events), dtype=np.float64)
    for lo in range(0, n_paths, _RENDER_BLOCK):
        hi = min(lo + _RENDER_BLOCK, n_paths)
        thetas[lo:hi], w[lo:hi] = _draw_span(model, n_events, root_seed, lo, hi, theta)
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

    def manifest(self) -> dict:
        """The reproducible description of the ensemble, plus a ``run`` section
        with what differs between runs at the same seed (the timestamp)."""
        return _ensemble_manifest(
            self.model, self.root_seed, self.n_paths, self.n_events, self.created_at
        )


def _ensemble_manifest(
    model: MrpModel, root_seed: int, n_paths: int, n_events: int, created_at: str
) -> dict:
    # the manifest of `write_ensemble` and of `simulate_to_csv`
    return {
        "schema_version": 2,
        "model": model.to_dict(),
        "model_hash": model.model_hash(),
        "root_seed": int(root_seed),
        "n_paths": int(n_paths),
        "n_events": int(n_events),
        "truncation": int(n_events),
        "seed_rule": SEED_RULE,
        "run": {"created_at": created_at},
    }


def _utc_now() -> str:
    from datetime import datetime, timezone

    return datetime.now(timezone.utc).isoformat()


def _check_size(n_paths: int, n_events: int) -> None:
    if n_paths < 1 or n_events < 1:
        raise ConfigurationError("n_paths and n_events must be >= 1")
    if n_paths * n_events > MAX_ENSEMBLE_DRAWS:
        raise CapacityError(
            f"requested {n_paths} x {n_events} draws exceeds the "
            f"{MAX_ENSEMBLE_DRAWS} ensemble capacity"
        )


def simulate_ensemble(model: MrpModel, n_paths: int, n_events: int, root_seed: int) -> Ensemble:
    """Simulate `n_paths` independent truncated paths.

    Per-path seeds derive deterministically from the root seed, so the result
    is a pure function of (model, n_paths, n_events, root_seed) regardless of
    chunking.
    """
    _check_size(n_paths, n_events)
    thetas, w = _draw_paths(model, n_paths, n_events, root_seed)
    return Ensemble(
        model=model,
        root_seed=int(root_seed),
        n_paths=int(n_paths),
        n_events=int(n_events),
        thetas=thetas,
        interarrivals=w,
        arrivals=compensated_cumsum_rows(w),
        created_at=_utc_now(),
    )


def aux_seed(root_seed: int, tag: int) -> int:
    """Auxiliary substream seed (never collides with path streams)."""
    return child_seed(root_seed, _rng.AUX_INDEX_BASE + tag)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _write_chunks(path: str, chunks) -> None:
    """Write the byte chunks to `path` in order, through a temp file that is
    renamed into place; on failure the temp file is removed."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    """Write `text` (UTF-8) to `path` through a temp file; on failure remove the temp file."""
    _write_chunks(path, [text.encode()])


# CSV rows assembled at a time within a block
_RENDER_ROWS = 16_384

def _render_block(thetas, w, t, first_id: int) -> bytes:
    """CSV rows of the given paths, numbered from `first_id`:
    ``path_id,theta..,k,w,t`` for each event.

    Each column is a NUL-padded byte field (see :mod:`mrplab.floatrepr`), so a
    float reads as ``repr(float(v))``.  Paths are assembled about
    `_RENDER_ROWS` rows at a time, which bounds the row buffer however long
    the paths are, and the NULs are deleted once per assembly.
    """
    # imported here, so that commands which write no CSV do not load the encoder
    from .floatrepr import float_fields, int_fields

    n_paths, n_events = w.shape
    step = max(1, _RENDER_ROWS // n_events)
    k = int_fields(np.arange(1, n_events + 1))[None]
    parts = []
    for a in range(0, n_paths, step):
        b = min(a + step, n_paths)
        columns = [
            int_fields(np.arange(first_id + a, first_id + b))[:, None],
            *(float_fields(thetas[a:b, j])[:, None] for j in range(thetas.shape[1])),
            k,
            float_fields(w[a:b]).reshape(b - a, n_events, -1),
            float_fields(t[a:b]).reshape(b - a, n_events, -1),
        ]
        rows = np.full((b - a, n_events, sum(c.shape[2] + 1 for c in columns)), ord(","), dtype=np.uint8)
        end = 0
        for c in columns:
            rows[:, :, end:end + c.shape[2]] = c
            end += c.shape[2] + 1
        rows[:, :, -1] = ord("\n")
        parts.append(rows.tobytes().translate(None, b"\0"))
    return b"".join(parts)


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class ForkMap:
    """``fn(item)`` for each item, iterated once, in item order.

    n processes share the items: n is the number of available cores, at most
    the number of items, or 1 where the platform cannot ``fork``.  This
    process computes items 0, n, 2n, ... as the iteration reaches them;
    worker w of the n - 1 forked when the map is made computes items w,
    w + n, ... and writes each result, or error, to its own pipe, pickled.
    `fn` and the items reach the workers through the fork, so neither is
    pickled and `fn` may be a closure.  An error comes back typed; a worker
    that exits without a result raises ChildProcessError.  Closing the map
    stops the workers at their next result and waits for them; it is a
    context manager that closes on exit.
    """

    def __init__(self, fn, items):
        self._fn, self._items = fn, items
        self._n = max(1, min(_available_cores(), len(items))) if hasattr(os, "fork") else 1
        self._pipes, self._pids = [], []  # per worker: the read end of its pipe, its pid
        try:
            for w in range(1, self._n):
                r, wfd = os.pipe()
                self._pipes.append(os.fdopen(r, "rb"))
                with os.fdopen(wfd, "wb") as out:
                    pid = os.fork()
                    if pid == 0:
                        self._serve(w, out)
                self._pids.append(pid)
        except BaseException:
            self.close()
            raise

    def _serve(self, w: int, out) -> None:
        """Worker w's life in the forked process: each result as a frame of 8
        bytes of length and the pickle, written to `out`; then exit."""
        try:
            for pipe in self._pipes:  # so that a pipe closes when the map closes it
                pipe.close()
            for i in range(w, len(self._items), self._n):
                try:
                    frame = pickle.dumps((True, self._fn(self._items[i])))
                except Exception as exc:  # raised where the iteration reaches item i
                    frame = pickle.dumps((False, exc))
                out.write(len(frame).to_bytes(8, "little"))
                out.write(frame)
                out.flush()
        except BaseException:  # ends the worker, which never unwinds into the forking caller
            os._exit(1)
        os._exit(0)

    def __iter__(self):
        for i, item in enumerate(self._items):
            if i % self._n == 0:
                yield self._fn(item)
                continue
            # exact reads: a reader that reads ahead, as pickle.load does,
            # would wait for the worker's next result as well
            pipe = self._pipes[i % self._n - 1]
            head = pipe.read(8)
            size = int.from_bytes(head, "little")
            frame = pipe.read(size)
            if len(head) < 8 or len(frame) < size:
                raise ChildProcessError(f"the worker computing item {i} exited without its result")
            ok, value = pickle.loads(frame)
            if not ok:
                raise value
            yield value

    def close(self) -> None:
        # a worker's next write to its closed pipe fails, and it exits
        for pipe in self._pipes:
            pipe.close()
        for pid in self._pids:
            os.waitpid(pid, 0)
        self._pipes, self._pids = [], []

    def __enter__(self) -> "ForkMap":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _csv_chunks(dim: int, n_paths: int, block):
    """The CSV as bytes: the header, then ``block(lo, hi)``, the rows of paths
    lo..hi-1, for each block of `_RENDER_BLOCK` paths, in path order,
    computed by a `ForkMap` (so the bytes do not depend on the worker count).
    Closing the generator early closes the map.
    """
    theta_cols = ["theta"] if dim == 1 else [f"theta{j + 1}" for j in range(dim)]
    yield (",".join(["path_id", *theta_cols, "k", "w", "t"]) + "\n").encode()
    spans = [(lo, min(lo + _RENDER_BLOCK, n_paths)) for lo in range(0, n_paths, _RENDER_BLOCK)]
    with ForkMap(lambda span: block(*span), spans) as blocks:
        yield from blocks


def _ensemble_chunks(ensemble: Ensemble):
    thetas, w, t = ensemble.thetas, ensemble.interarrivals, ensemble.arrivals
    return _csv_chunks(thetas.shape[1], ensemble.n_paths,
                       lambda lo, hi: _render_block(thetas[lo:hi], w[lo:hi], t[lo:hi], lo))


def ensemble_csv_text(ensemble: Ensemble) -> str:
    """Render the ensemble as CSV (path_id, theta components, k, w, t).

    Floats are written with shortest round-trip repr, so identical ensembles
    produce byte-identical text: the text of the file that `write_ensemble`
    and `simulate_to_csv` write.  Blocks of paths are rendered on the
    available cores through a `ForkMap`.
    """
    return b"".join(_ensemble_chunks(ensemble)).decode("ascii")


def _write_csv(csv_path: str, chunks) -> None:
    # close the chunks even when the writer fails, so the block workers stop
    with contextlib.closing(chunks):
        _write_chunks(csv_path, chunks)


def _write_manifest(manifest: dict, csv_path: str) -> str:
    manifest_path = csv_path + ".manifest.json"
    manifest = dict(manifest, csv=os.path.basename(csv_path))
    atomic_write_text(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest_path


def write_ensemble(ensemble: Ensemble, csv_path: str) -> str:
    """Write the ensemble CSV and its manifest JSON atomically; returns the manifest path."""
    _write_csv(csv_path, _ensemble_chunks(ensemble))
    return _write_manifest(ensemble.manifest(), csv_path)


def simulate_to_csv(model: MrpModel, n_paths: int, n_events: int, root_seed: int, csv_path: str) -> str:
    """Simulate an ensemble straight to its CSV and manifest JSON; returns
    the manifest path.

    The files are those of ``write_ensemble(simulate_ensemble(...), csv_path)``
    (the manifest's ``run`` section aside), but each block of paths is drawn
    and rendered in one process and the blocks stream to the file in order,
    so no process holds the whole ensemble.
    """
    _check_size(n_paths, n_events)

    def block(lo: int, hi: int) -> bytes:
        # drawn on the paths' own child streams, so the rows equal those of `simulate_ensemble`
        thetas, w = _draw_span(model, n_events, root_seed, lo, hi)
        return _render_block(thetas, w, compensated_cumsum_rows(w), lo)

    _write_csv(csv_path, _csv_chunks(model.param_dim, n_paths, block))
    manifest = _ensemble_manifest(model, root_seed, n_paths, n_events, _utc_now())
    return _write_manifest(manifest, csv_path)
