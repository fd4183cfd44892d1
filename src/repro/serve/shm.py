"""Shared-memory slot rings: the transport of process and pipeline workers.

A :class:`SlotRing` is one parent-owned ``multiprocessing.shared_memory``
segment cut into a fixed number of equally-sized **slots**.
:class:`~repro.shard.pipeline.ShardedPipeline` (which serves both
``workers="process"`` and ``pipeline_stages >= 2``) gives every edge of its
stage chain one ring:

* a batch is written straight into its slot (one copy), the stage runs its
  plan on a zero-copy view of that slot and writes its output into the
  next edge's ring (one copy); only tiny ``(seq, slot, shape)``
  coordinates cross the coordination queues;
* slots are owned by sequence number — batch ``seq`` uses slot
  ``seq % slots`` on every edge — and the pipeline's in-flight window,
  equal to the slot count, is the backpressure, so no free-slot queue is
  needed;
* the parent creates and unlinks the segments, so ``service.close()``
  always removes them from ``/dev/shm`` — even when a worker process
  crashed mid-batch (attachment in the worker is excluded from its
  resource tracker precisely so a dying worker cannot unlink the parent's
  segments first).

Slot sizes are learned from the first served batch, which travels by value
and doubles as the worker warm-up: ``max_batch`` rows of that batch's row
layout, so steady-state traffic is zero-copy while oversized one-off
requests transparently travel by value.

**Integrity (optional):** with ``checksum=True`` every slot is prefixed by
a 16-byte header carrying the CRC32 and byte count of its payload,
computed at :meth:`SlotRing.write` and verified by :meth:`SlotRing.read`.
A mismatch raises :class:`IntegrityError`, which the serving layer
classifies as a corrupt (re-dispatchable) batch rather than a dead worker.
The check is off the hot path by default (``checksum=False`` adds no
header bytes and no work) and both sides of a ring
must agree on the flag — it is part of the attach coordinates.
"""

from __future__ import annotations

import struct
import zlib
from multiprocessing import shared_memory
from typing import Optional, Tuple

import numpy as np

from repro.faults.injector import fire as _fault_fire

#: Per-slot integrity header: CRC32, reserved, payload byte count.
_HEADER = struct.Struct("<IIQ")
HEADER_NBYTES = _HEADER.size


class IntegrityError(RuntimeError):
    """A slot's payload failed its CRC32 check (bit-rot or torn write)."""


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker ownership.

    Python < 3.13 registers every attachment with the attaching process's
    resource tracker, which then unlinks the segment when that process
    exits — yanking it out from under the parent that owns it.  (Whether
    the worker shares the parent's tracker daemon or spawned its own
    depends on fork timing, so unregistering after the fact either
    double-removes the parent's entry or races the worker-tracker's exit
    cleanup.)  Registration is therefore suppressed for the attachment
    itself: the worker only ever *closes* its mapping; creating, tracking
    and unlinking stay with the parent that owns the segment.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        from multiprocessing import resource_tracker

        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register


class SlotRing:
    """One shared-memory segment cut into fixed-size array slots."""

    def __init__(self, slots: int, slot_nbytes: int,
                 segment: Optional[shared_memory.SharedMemory] = None,
                 checksum: bool = False) -> None:
        if slots < 1 or slot_nbytes < 1:
            raise ValueError("need at least one slot of at least one byte")
        self.slots = slots
        self.slot_nbytes = int(slot_nbytes)
        self.checksum = bool(checksum)
        #: Byte distance between slot starts (header + payload).
        self.slot_stride = self.slot_nbytes + (HEADER_NBYTES
                                               if self.checksum else 0)
        #: Fault-injection site prefix; when set, :meth:`write` fires
        #: ``<site>.write`` with the freshly written slot bytes *after*
        #: the CRC header is stored, so injected corruption is exactly
        #: the bit-rot the read-side check is meant to catch.
        self.fault_site: Optional[str] = None
        #: Transport counters for this process's side of the ring:
        #: cumulative slot writes and bytes copied through :meth:`write`.
        #: The metrics exposition reports them as shm transport gauges.
        self.writes = 0
        self.bytes_written = 0
        self.segment = (segment if segment is not None
                        else shared_memory.SharedMemory(
                            create=True, size=slots * self.slot_stride))

    @classmethod
    def attach(cls, name: str, slots: int, slot_nbytes: int,
               checksum: bool = False) -> "SlotRing":
        """Worker-side view of a parent-owned ring (never unlinks it).

        The segment must be large enough for the advertised geometry: a
        respawned worker attaching stale coordinates (a ring the parent
        has already replaced) would otherwise read/write out of bounds of
        the smaller segment, so a size mismatch fails loudly here and the
        serving layer treats it like any other broken-transport fault.
        """
        segment = attach_segment(name)
        stride = int(slot_nbytes) + (HEADER_NBYTES if checksum else 0)
        needed = slots * stride
        if segment.size < needed:
            segment.close()
            raise ValueError(
                f"segment {name!r} holds {segment.size} bytes but the "
                f"advertised ring geometry needs {needed} "
                f"({slots} slots x {slot_nbytes} bytes"
                f"{' + checksum headers' if checksum else ''}); stale "
                "attach coordinates?"
            )
        return cls(slots, slot_nbytes, segment=segment, checksum=checksum)

    @property
    def name(self) -> str:
        """The segment name (its ``/dev/shm`` entry)."""
        return self.segment.name

    def fits(self, nbytes: int) -> bool:
        """Whether an array of ``nbytes`` fits one slot."""
        return nbytes <= self.slot_nbytes

    def view(self, slot: int, shape: Tuple[int, ...],
             dtype=np.float64) -> np.ndarray:
        """A zero-copy array view of one slot's payload."""
        if not 0 <= slot < self.slots:
            raise IndexError(f"slot {slot} out of range 0..{self.slots - 1}")
        offset = slot * self.slot_stride
        if self.checksum:
            offset += HEADER_NBYTES
        view = np.ndarray(shape, dtype=dtype,
                          buffer=self.segment.buf[offset:offset + self.slot_nbytes])
        return view

    def write(self, slot: int, array: np.ndarray) -> None:
        """Copy ``array`` into ``slot`` (the transport's single copy).

        With ``checksum`` enabled the payload's CRC32 and byte count are
        stored into the slot header after the copy; :meth:`read` on the
        other side verifies them.
        """
        if not self.fits(array.nbytes):
            raise ValueError(
                f"array of {array.nbytes} bytes exceeds the "
                f"{self.slot_nbytes}-byte slot"
            )
        view = self.view(slot, array.shape, array.dtype)
        view[...] = array
        if self.checksum:
            self._write_header(slot, view)
        if self.fault_site is not None:
            _fault_fire(f"{self.fault_site}.write", view)
        self.writes += 1
        self.bytes_written += int(array.nbytes)

    def read(self, slot: int, shape: Tuple[int, ...],
             dtype=np.float64) -> np.ndarray:
        """A payload view of one slot, CRC-verified when checksums are on.

        Raises :class:`IntegrityError` when the stored header disagrees
        with the slot bytes (bit-rot, torn write) or with the requested
        geometry (a stale or mangled coordinate message).
        """
        view = self.view(slot, shape, dtype)
        if self.checksum:
            stored_crc, _, stored_nbytes = _HEADER.unpack_from(
                self.segment.buf, slot * self.slot_stride)
            if stored_nbytes != view.nbytes:
                raise IntegrityError(
                    f"slot {slot} header advertises {stored_nbytes} bytes "
                    f"but the requested view covers {view.nbytes}")
            actual_crc = zlib.crc32(view.reshape(-1).view(np.uint8).data)
            if actual_crc != stored_crc:
                raise IntegrityError(
                    f"slot {slot} payload CRC mismatch: stored "
                    f"{stored_crc:#010x}, computed {actual_crc:#010x} "
                    f"over {view.nbytes} bytes")
        return view

    def _write_header(self, slot: int, view: np.ndarray) -> None:
        crc = zlib.crc32(view.reshape(-1).view(np.uint8).data)
        _HEADER.pack_into(self.segment.buf, slot * self.slot_stride,
                          crc, 0, view.nbytes)

    def close(self) -> None:
        """Drop this process's mapping (the segment itself stays)."""
        try:
            self.segment.close()
        except BufferError:  # a live view still references the buffer
            pass

    def unlink(self) -> None:
        """Remove the segment from the system (owner side, idempotent)."""
        try:
            self.segment.unlink()
        except FileNotFoundError:
            pass


def segment_exists(name: str) -> bool:
    """Whether a shared-memory segment of this name still exists."""
    try:
        segment = attach_segment(name)
    except FileNotFoundError:
        return False
    segment.close()
    return True
