"""Deterministic DRAM fault injection.

Four fault populations, each keyed off the counter-based PRNG
(:mod:`repro.ras.prng`) so runs are reproducible under process isolation
and functional warmup cannot perturb them:

* **Transient** bit flips — independent per *detailed* read attempt
  (particle strikes); a retry re-rolls them, which is what makes
  bounded retry an effective recovery policy.
* **Retention** errors — a cell leaked below threshold since its last
  refresh/write.  Keyed per (line, generation, read), so they persist
  across same-access retries; the rate scales up with the stack
  temperature estimate and down with the refresh-rate multiplier.
* **Stuck-at** TSV/bus faults — a channel either has a stuck line or it
  does not (drawn once per memory controller); a stuck line corrupts
  roughly half the data crossing it, persistently across retries.
* **Hard bank failures** — a bank drawn as weak dies after a keyed
  number of accesses; every later read returns garbage (8+ bit errors),
  which drives the bank-retirement degradation path.

The injector counts only *detailed* accesses: the functional-warmup
paths (``functional_touch``/``functional_fetch``) never reach it, so
sampled and full-detail runs key identically for the accesses they do
simulate in detail, and warmup length cannot roll fault state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .config import RasConfig
from .prng import hash64, uniform

# Draw streams: disjoint first key words so populations never collide.
_S_TRANSIENT_A = 0x51
_S_TRANSIENT_B = 0x52
_S_RETENTION = 0x53
_S_STUCK_CHANNEL = 0x54
_S_STUCK_DATA = 0x55
_S_HARD_DRAW = 0x56
_S_HARD_LIFE = 0x57


@dataclass(frozen=True)
class AccessToken:
    """Identity of one detailed DRAM read (stable across its retries)."""

    addr: int
    generation: int  # writes to the line bump this (fresh data)
    nth_read: int  # per-(line, generation) detailed read counter
    bank_access: int  # per-bank detailed access counter


@dataclass(frozen=True)
class ReadFaults:
    """Error-bit counts one read attempt carries, by population."""

    transient: int
    retention: int
    stuckat: int
    hard: int

    @property
    def total(self) -> int:
        return self.transient + self.retention + self.stuckat + self.hard

    @property
    def persistent(self) -> int:
        """Bits a same-access retry cannot shake off."""
        return self.retention + self.stuckat + self.hard


class FaultInjector:
    """Keyed fault draws for every detailed DRAM access."""

    def __init__(
        self, ras: RasConfig, seed: int, thermal_factor: float = 1.0
    ) -> None:
        self.ras = ras
        self._seed = hash64(seed)
        self.thermal_factor = thermal_factor if ras.thermal_scaling else 1.0
        # line addr -> [generation, reads_this_generation]
        self._line_state: Dict[int, List[int]] = {}
        # (mc, rank, bank) -> detailed accesses so far
        self._bank_accesses: Dict[Tuple[int, int, int], int] = {}
        # Lazy per-channel stuck-line draws and per-bank hard-fail draws.
        self._stuck_channel: Dict[int, bool] = {}
        self._hard_fail_after: Dict[Tuple[int, int, int], int] = {}

    # ------------------------------------------------------------------
    # Access accounting (detailed path only — never functional warmup)
    # ------------------------------------------------------------------
    def begin_read(self, mc: int, rank: int, bank: int, addr: int) -> AccessToken:
        """Account one detailed read and mint its draw identity."""
        state = self._line_state.get(addr)
        if state is None:
            state = self._line_state[addr] = [0, 0]
        nth = state[1]
        state[1] = nth + 1
        key = (mc, rank, bank)
        count = self._bank_accesses.get(key, 0) + 1
        self._bank_accesses[key] = count
        return AccessToken(addr, state[0], nth, count)

    def note_write(self, addr: int) -> None:
        """A write lands fresh data: new generation, read counter resets."""
        state = self._line_state.get(addr)
        if state is None:
            self._line_state[addr] = [1, 0]
        else:
            state[0] += 1
            state[1] = 0

    # ------------------------------------------------------------------
    # Fault draws (pure given the token — safe to re-evaluate)
    # ------------------------------------------------------------------
    def faults_for(
        self,
        mc: int,
        rank: int,
        bank: int,
        token: AccessToken,
        attempt: int = 0,
        refresh_multiplier: int = 1,
    ) -> ReadFaults:
        """Error bits read attempt ``attempt`` of this access carries.

        Only the transient population is keyed by ``attempt``; the rest
        re-derive identically, so retries face the same persistent bits.
        """
        ras = self.ras
        seed = self._seed
        addr, gen, nth = token.addr, token.generation, token.nth_read

        transient = 0
        rate = ras.transient_rate
        if rate > 0.0:
            if uniform(_S_TRANSIENT_A, seed, addr, gen, nth, attempt) < rate:
                transient += 1
            # A second, much rarer flip in the same line: gives SECDED a
            # genuine double-bit exposure that chipkill-lite still covers.
            if uniform(_S_TRANSIENT_B, seed, addr, gen, nth, attempt) < rate / 8.0:
                transient += 1

        retention = 0
        rate = ras.retention_rate
        if rate > 0.0:
            effective = rate * self.thermal_factor / refresh_multiplier
            if uniform(_S_RETENTION, seed, addr, gen, nth) < effective:
                retention = 1

        stuckat = 0
        if ras.stuckat_rate > 0.0 and self.channel_stuck(mc):
            # Whether the stuck line disagrees with this data is data-
            # dependent; model it as a fair keyed coin per access.
            if uniform(_S_STUCK_DATA, seed, mc, addr, gen, nth) < 0.5:
                stuckat = 1

        hard = 0
        if ras.hard_fail_rate > 0.0:
            fail_after = self._hard_fail_threshold(mc, rank, bank)
            if 0 <= fail_after < token.bank_access:
                hard = 8  # the whole word is garbage

        return ReadFaults(transient, retention, stuckat, hard)

    def channel_stuck(self, mc: int) -> bool:
        """Whether channel ``mc`` carries a stuck-at TSV/bus line."""
        stuck = self._stuck_channel.get(mc)
        if stuck is None:
            stuck = (
                uniform(_S_STUCK_CHANNEL, self._seed, mc) < self.ras.stuckat_rate
            )
            self._stuck_channel[mc] = stuck
        return stuck

    def _hard_fail_threshold(self, mc: int, rank: int, bank: int) -> int:
        key = (mc, rank, bank)
        fail_after = self._hard_fail_after.get(key)
        if fail_after is None:
            if uniform(_S_HARD_DRAW, self._seed, mc, rank, bank) < self.ras.hard_fail_rate:
                life = uniform(_S_HARD_LIFE, self._seed, mc, rank, bank)
                fail_after = 1 + int(life * self.ras.hard_fail_horizon)
            else:
                fail_after = -1
            self._hard_fail_after[key] = fail_after
        return fail_after

    # ------------------------------------------------------------------
    # Introspection (tests / sampling interplay assertions)
    # ------------------------------------------------------------------
    def tracked_lines(self) -> int:
        """How many distinct lines have detailed-read state."""
        return len(self._line_state)

    def total_reads_accounted(self) -> int:
        return sum(state[1] for state in self._line_state.values())
