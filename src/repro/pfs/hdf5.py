"""HDF5-like functional file layer over the simulated filesystem.

:class:`SimH5File` mimics the small slice of the HDF5 API the paper's
implementation uses: named 2-D datasets, *hyperslab* selections, a
serial access mode (one process reads chunk-by-chunk — the
conventional method) and a collective parallel mode (every rank of a
communicator reads its own contiguous hyperslab at once — Tier-1 of
the randomized distribution).  Reads return real numpy data and charge
the reading ranks' virtual clocks with the
:mod:`repro.pfs.lustre` cost model under
:attr:`~repro.simmpi.clock.TimeCategory.DATA_IO`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.pfs import lustre
from repro.simmpi.clock import RankClock, TimeCategory
from repro.simmpi.comm import SimComm
from repro.simmpi.machine import MachineModel
from repro.telemetry.recorder import DATA_IO, count as _tcount, span as _tspan

__all__ = ["Hyperslab", "SimDataset", "SimH5File"]


@dataclass(frozen=True)
class Hyperslab:
    """A contiguous rectangular selection: ``start`` offsets + ``count`` extents.

    Matches HDF5's simplest hyperslab form (stride = block = 1), which
    is all the paper's Tier-1 reader needs (row-wise contiguous
    blocks).
    """

    start: tuple[int, ...]
    count: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.start) != len(self.count):
            raise ValueError(
                f"start {self.start} and count {self.count} rank mismatch"
            )
        if any(s < 0 for s in self.start) or any(c < 0 for c in self.count):
            raise ValueError(f"negative start/count: {self}")

    def slices(self) -> tuple[slice, ...]:
        """Numpy basic-index equivalent of this selection."""
        return tuple(slice(s, s + c) for s, c in zip(self.start, self.count))

    def nelems(self) -> int:
        out = 1
        for c in self.count:
            out *= c
        return out

    @staticmethod
    def rows(start: int, count: int, ncols: int) -> "Hyperslab":
        """Row-block selection ``[start:start+count, 0:ncols]``."""
        return Hyperslab((start, 0), (count, ncols))


class SimDataset:
    """One named dataset inside a :class:`SimH5File`."""

    def __init__(self, name: str, data: np.ndarray) -> None:
        self.name = name
        self.data = np.ascontiguousarray(data)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def select(self, slab: Hyperslab) -> np.ndarray:
        """Return a copy of the hyperslab (bounds-checked)."""
        if len(slab.start) != self.data.ndim:
            raise ValueError(
                f"hyperslab rank {len(slab.start)} != dataset rank {self.data.ndim}"
            )
        for dim, (s, c, n) in enumerate(zip(slab.start, slab.count, self.shape)):
            if s + c > n:
                raise ValueError(
                    f"hyperslab overflows dim {dim}: start {s} + count {c} > {n}"
                )
        return np.array(self.data[slab.slices()], copy=True)


class SimH5File:
    """Simulated HDF5 file living on the simulated Lustre filesystem.

    Parameters
    ----------
    path:
        Identifier (no real filesystem is touched).
    stripe_count:
        Lustre stripe count the file was created with; ``None`` applies
        the site policy (:func:`repro.pfs.lustre.effective_stripes`)
        based on total size at read time.
    """

    def __init__(self, path: str, *, stripe_count: int | None = None) -> None:
        self.path = path
        self.stripe_count = stripe_count
        self._datasets: dict[str, SimDataset] = {}
        #: Number of times the file has been (re-)opened — the
        #: conventional method's pathology is visible here.
        self.open_count = 0

    def create_dataset(self, name: str, data: np.ndarray) -> SimDataset:
        """Add a dataset; name must be new."""
        if name in self._datasets:
            raise ValueError(f"dataset {name!r} already exists in {self.path}")
        ds = SimDataset(name, data)
        self._datasets[name] = ds
        return ds

    def dataset(self, name: str) -> SimDataset:
        if name not in self._datasets:
            raise KeyError(f"no dataset {name!r} in {self.path}")
        return self._datasets[name]

    def __contains__(self, name: str) -> bool:
        return name in self._datasets

    @property
    def nbytes(self) -> int:
        return sum(ds.nbytes for ds in self._datasets.values())

    def _stripes(self, machine: MachineModel) -> int:
        if self.stripe_count is not None:
            return self.stripe_count
        return lustre.effective_stripes(machine, self.nbytes)

    # ------------------------------------------------------------------
    # serial access (conventional method)
    # ------------------------------------------------------------------
    def read_serial(
        self,
        name: str,
        slab: Hyperslab,
        *,
        clock: RankClock | None = None,
        machine: MachineModel | None = None,
    ) -> np.ndarray:
        """One process reads one hyperslab through serial HDF5.

        Each call re-opens the file (the conventional method "would
        repeatedly open the data file"), pays a seek, and streams the
        selected bytes at the single-stream rate.
        """
        ds = self.dataset(name)
        with _tspan(
            "hdf5.read_serial", DATA_IO, path=self.path, dataset=name
        ):
            out = ds.select(slab)
        _tcount("io.bytes_read", out.nbytes)
        _tcount("io.serial_reads")
        self.open_count += 1
        if clock is not None:
            if machine is None:
                raise ValueError("machine is required when charging a clock")
            seconds = (
                machine.file_open_s
                + machine.seek_s
                + out.nbytes / (machine.serial_read_gbs * 1e9)
            )
            clock.charge(TimeCategory.DATA_IO, seconds)
        return out

    # ------------------------------------------------------------------
    # parallel collective access (Tier-1)
    # ------------------------------------------------------------------
    def read_parallel(
        self,
        comm: SimComm,
        name: str,
        slab: Hyperslab,
    ) -> np.ndarray:
        """Collective parallel read: every rank reads *its own* hyperslab.

        All ranks of ``comm`` must call this together (it synchronizes,
        like HDF5 collective I/O).  The modeled cost is one striped
        parallel read of the union of the selections, charged equally
        to every rank under DATA_IO.
        """
        ds = self.dataset(name)
        with _tspan(
            "hdf5.read_parallel",
            DATA_IO,
            path=self.path,
            dataset=name,
            rank=comm.rank,
        ):
            out = ds.select(slab)
        _tcount("io.bytes_read", out.nbytes)
        _tcount("io.parallel_reads")
        total = comm.allreduce(
            float(out.nbytes), category=TimeCategory.DATA_IO
        )
        self.open_count += 1 if comm.rank == 0 else 0
        seconds = lustre.parallel_read_time(
            comm.machine,
            int(total),
            comm.size,
            stripe_count=self._stripes(comm.machine),
        )
        comm.clock.charge(TimeCategory.DATA_IO, seconds)
        return out
