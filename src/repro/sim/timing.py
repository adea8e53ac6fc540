"""Latency model for flash operations (Table 2).

* page read: media sensing time (mode-dependent) + per-subpage channel
  transfer + BCH decode time (a function of the read subpages' RBER,
  computed by the FTL when it issues the op),
* page program: per-subpage channel transfer + media program time,
* erase: the Table 2 block erase time.

A *pseudo read* is a read of a logical address the trace never wrote:
the data is assumed to pre-exist in the high-density region, priced as an
MLC read at the base (undisturbed) RBER.
"""

from __future__ import annotations

import numpy as np

from ..config import SSDConfig
from ..error import EccModel, RberModel
from ..units import Ms
from .ops import OpKind, OpRecord

# Enum members used per request or per op, bound once (see
# docs/PERFORMANCE.md, "Enum members and level arithmetic on the hot path").
_ERASE = OpKind.ERASE
_PROGRAM = OpKind.PROGRAM


class TimingModel:
    """Prices :class:`~repro.sim.ops.OpRecord` instances."""

    def __init__(self, config: SSDConfig,
                 ecc: EccModel | None = None,
                 rber: RberModel | None = None):
        config.validate()
        self.config = config
        self.timing = config.timing
        self.ecc = ecc if ecc is not None else EccModel(config.timing, config.reliability)
        self.rber = rber if rber is not None else RberModel(config.reliability)
        # Table 2 latencies are fixed for a config; hoist them out of the
        # per-operation pricing path (attribute chains are hot here).
        t = self.timing
        self._erase_ms = t.erase_ms
        self._transfer = t.transfer_ms_per_subpage
        self._read = {True: t.slc_read_ms, False: t.mlc_read_ms}
        self._write = {True: t.slc_write_ms, False: t.mlc_write_ms}

    def duration_ms(self, op: OpRecord) -> Ms:
        """Service time of one operation on its chip/channel pair."""
        kind = op.kind
        if kind is _ERASE:
            return self._erase_ms
        transfer = self._transfer * op.channel_slots
        if kind is _PROGRAM:
            return transfer + self._write[op.is_slc]
        return self._read[op.is_slc] + transfer + op.ecc_ms

    def segments_ms(self, op: OpRecord) -> tuple[float, float, bool]:
        """(chip_ms, channel_ms, chip_first) for the pipelined bus model.

        ECC decode happens in the controller as data streams off the
        channel, so it is charged to the channel stage of reads.
        """
        kind = op.kind
        if kind is _ERASE:
            return self._erase_ms, 0.0, True
        transfer = self._transfer * op.channel_slots
        if kind is _PROGRAM:
            return self._write[op.is_slc], transfer, False
        return self._read[op.is_slc], transfer + op.ecc_ms, True

    def durations_ms(self, ops: "list[OpRecord]") -> np.ndarray:
        """Vectorised :meth:`duration_ms` over an operation batch.

        One gather pass plus elementwise float64 arithmetic — element
        ``i`` equals ``duration_ms(ops[i])`` bit for bit (the summation
        grouping matches the scalar path; tests assert the equivalence).
        Used by batch accounting paths (reports, the bench harness);
        replay keeps the scalar call because it needs each op's end time
        before pricing the next.
        """
        n = len(ops)
        slots = np.fromiter((op.channel_slots for op in ops),
                            dtype=np.float64, count=n)
        slc = np.fromiter((op.is_slc for op in ops), dtype=bool, count=n)
        ecc = np.fromiter((op.ecc_ms for op in ops), dtype=np.float64, count=n)
        is_erase = np.fromiter((op.kind is _ERASE for op in ops),
                               dtype=bool, count=n)
        is_program = np.fromiter((op.kind is _PROGRAM for op in ops),
                                 dtype=bool, count=n)
        transfer = self._transfer * slots
        read_ms = np.where(slc, self._read[True], self._read[False])
        write_ms = np.where(slc, self._write[True], self._write[False])
        out = read_ms + transfer + ecc
        out[is_program] = (transfer + write_ms)[is_program]
        out[is_erase] = self._erase_ms
        return out

    def pseudo_read_ecc_ms(self) -> Ms:
        """ECC decode time for never-written (pre-existing MLC) data."""
        base = self.rber.base(self.config.reliability.initial_pe_cycles, slc=False)
        return self.ecc.decode_ms(base)

    def pseudo_read_raw_errors(self, n_slots: int) -> float:
        """Expected raw bit errors of a pseudo read of ``n_slots`` subpages."""
        base = self.rber.base(self.config.reliability.initial_pe_cycles, slc=False)
        return self.ecc.expected_raw_errors(base, n_slots * self.config.geometry.subpage_size)
