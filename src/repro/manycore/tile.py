"""One manycore tile: an in-order core with I-cache, scratchpad, and inet.

The pipeline model follows the paper's CPU (8-stage, single-issue, in-order
issue, out-of-order writeback, in-order commit) at issue granularity: at
most one instruction issues per cycle, destination/source registers are
tracked with a scoreboard whose release times model functional-unit
latencies, and loads occupy one of two load-queue entries until their
response returns.  Taken branches cost a fixed bubble.

A tile operates in one of four roles (paper Figure 1/6):

* ``independent`` — ordinary MIMD execution, fetching from its I-cache;
* ``scalar``      — leads a vector group; fetches normally, plus issues
  ``vissue`` / ``vload`` / ``devec`` on the group's behalf;
* ``expander``    — fetches microthread instructions and forwards them on
  the inet; executes them as lane 0;
* ``vector``      — frontend and I-cache disabled; executes instructions
  popped from the inet and forwards them downstream.

Stall accounting uses *gap attribution*: when an instruction finally issues,
the idle gap since the core was last ready is charged to the most recent
blocking cause, producing the CPI stacks of Figures 12/13/15.
"""

from __future__ import annotations

import math
import operator

from ..core.vgroup import (ROLE_EXPANDER, ROLE_INDEPENDENT, ROLE_SCALAR,
                           ROLE_VECTOR)
from ..core.inet import InetQueue, MSG_DEVEC, MSG_INST, MSG_LAUNCH
from ..core.wide_access import expand_vload
from ..isa import opcodes as op
from ..isa.instruction import Instr
from .icache import ICache
from .llc import KIND_LOAD, KIND_STORE, KIND_WIDE, MemRequest
from .scratchpad import Scratchpad
from .stats import CoreStats

INF = 1 << 60

# run states
RUN = 0
WAIT_BARRIER = 1
WAIT_VCONFIG = 2
HALTED = 3

# stall causes (map onto CoreStats fields)
_CAUSE_FIELD = {
    'frame': 'stall_frame',
    'inet_input': 'stall_inet_input',
    'backpressure': 'stall_backpressure',
    'scoreboard': 'stall_scoreboard',
    'loadq': 'stall_loadq',
    'branch': 'stall_branch',
    'other': 'stall_other',
}

#: Instructions that execute even when the predication flag is clear.
_PRED_EXEMPT = frozenset([op.PRED_EQ, op.PRED_NEQ, op.FRAME_START, op.REMEM,
                          op.VEND, op.NOP])
_CONTROL = frozenset(o for o in op.NAMES if op.is_control(o))
_STRUCTURAL = frozenset([op.LW, op.FRAME_START, op.VISSUE, op.DEVEC])


class SimError(Exception):
    """An architectural error detected during simulation."""


class Tile:
    """One core of the fabric."""

    def __init__(self, core_id: int, fabric, cfg):
        self.core_id = core_id
        self.fabric = fabric
        self.cfg = cfg
        self.stats = CoreStats()
        self.icache = ICache(cfg.icache_capacity_bytes, cfg.icache_ways,
                             cfg.cache_line_bytes, self.stats)
        self.spad = Scratchpad(cfg.spad_words, self.stats)
        self.inet_in = InetQueue(cfg.inet_queue_entries,
                                 cfg.router_hop_latency)

        self.program = None
        self.pc = 0
        self.regs = [0] * 64
        self.vregs = [[0.0] * cfg.simd_width for _ in range(8)]
        self._busy = [0] * 64  # scoreboard: cycle the register frees
        self._busy_load = [False] * 64  # true if busy due to pending load
        self._vbusy = [0] * 8
        self.lq_count = 0

        self.mode = ROLE_INDEPENDENT
        self.state = RUN
        self.halted = False
        self.group = None
        self.successor = None  # next Tile on the inet path
        self.lane_idx = -1
        self.pred = True

        # expander microthread fetch state
        self.in_mt = False
        self.mt_pc = 0

        # frontend state
        self.fetch_stall_until = 0
        self._fetch_pc = -1

        # scheduling / accounting
        self.next_wake = 0
        # wake-heap bookkeeping (see Fabric._run_loop): id of this
        # tile's latest heap entry, its position in the active list,
        # and the rebuild epoch that position belongs to
        self._wake_entry = 0
        self._order = 0
        self._wake_epoch = -1
        self._ready_at = 0
        self._stall_cause = 'other'
        self.tid = 0
        self.ncores_csr = 1
        self.group_id_csr = 0
        self.ngroups_csr = 0
        self.job = None  # owning FabricJob; None in the classic flow

    # ------------------------------------------------------------------ wiring
    def reset_for_run(self, program, entry_pc: int, tid: int, ncores: int):
        self.program = program
        self.pc = entry_pc
        self.tid = tid
        self.ncores_csr = ncores
        self.next_wake = 0
        self._ready_at = 0
        self.state = RUN
        self.halted = False
        self.mode = ROLE_INDEPENDENT
        self._fetch_pc = -1
        self.job = None

    def reset_for_job(self, program, entry_pc: int, tid: int, ncores: int,
                      job, now: int) -> None:
        """Hand this tile to a new job on a live fabric.

        Unlike :meth:`reset_for_run` (fresh fabric, cycle 0) this scrubs
        every piece of architectural and microarchitectural state a prior
        tenant may have left — registers, scoreboard, load queue, inet
        queue, frame config, I-cache — so the new job's behaviour (and its
        numeric output) cannot depend on what ran here before.  The tile
        wakes at ``now + 1``: simulated time never moves backwards.
        """
        self.program = program
        self.pc = entry_pc
        self.tid = tid
        self.ncores_csr = ncores
        self.job = job
        self.regs = [0] * 64
        self.vregs = [[0.0] * self.cfg.simd_width for _ in range(8)]
        self._busy = [0] * 64
        self._busy_load = [False] * 64
        self._vbusy = [0] * 8
        self.lq_count = 0
        self.mode = ROLE_INDEPENDENT
        self.state = RUN
        self.halted = False
        self.group = None
        self.successor = None
        self.lane_idx = -1
        self.pred = True
        self.in_mt = False
        self.mt_pc = 0
        self.fetch_stall_until = 0
        self._fetch_pc = -1
        self.next_wake = now + 1
        self._ready_at = now + 1
        self._stall_cause = 'other'
        self.group_id_csr = 0
        self.ngroups_csr = 0
        self.inet_in.clear()
        self.spad.reset_frames()
        self.icache.flush()

    def wake(self, cycle: int) -> None:
        if cycle < self.next_wake:
            self.next_wake = cycle

    def push_inet(self, kind: str, payload, now: int) -> None:
        """Called by the upstream tile; wakes this tile when data lands."""
        self.inet_in.push(now, kind, payload)
        self.fabric.wake_tile(self, now + self.inet_in.hop_latency)

    # -------------------------------------------------------------- accounting
    def _stall(self, cause: str, wake: int) -> int:
        self._stall_cause = cause
        return wake

    def _commit_issue(self, inst: Instr, now: int) -> None:
        st = self.stats
        gap = now - self._ready_at
        if gap > 0:
            field = _CAUSE_FIELD[self._stall_cause]
            setattr(st, field, getattr(st, field) + gap)
        self._ready_at = now + 1
        st.instrs += 1
        field = MIX_CLASS[inst.op]
        setattr(st, field, getattr(st, field) + 1)
        if self.fabric.trace is not None:
            self.fabric.trace.record(self.core_id, now, inst, self.mode)

    def _charge_gap(self, now: int, cause: str) -> None:
        """Attribute idle time without an instruction issue (mode changes)."""
        gap = now - self._ready_at
        if gap > 0:
            st = self.stats
            field = _CAUSE_FIELD[cause]
            setattr(st, field, getattr(st, field) + gap)
        self._ready_at = now + 1

    # ------------------------------------------------------------------ stepping
    def step(self, now: int) -> int:
        """Advance this tile at cycle ``now``; returns the next wake cycle."""
        if self.state != RUN:
            return INF
        m = self.mode
        if m == ROLE_VECTOR:
            return self._step_vector(now)
        if m == ROLE_EXPANDER:
            return self._step_expander(now)
        return self._step_front(now)

    # -- frontend modes (independent / scalar) ---------------------------------
    def _step_front(self, now: int) -> int:
        if self.fetch_stall_until > now:
            return self.fetch_stall_until
        prog = self.program
        if self.pc >= len(prog.instrs):
            raise SimError(f'core {self.core_id} fell off the program end')
        inst = prog.instrs[self.pc]
        if self._fetch_pc != self.pc:
            pen = self.icache.fetch(self.pc)
            self._fetch_pc = self.pc
            if pen:
                self.fetch_stall_until = now + pen
                return self._stall('other', self.fetch_stall_until)
        wake = self._check_operands(inst, now)
        if wake is not None:
            return wake
        o = inst.op
        if o in _STRUCTURAL:  # structural checks that must precede issue
            if o == op.LW:
                if self.lq_count >= self.cfg.load_queue_entries:
                    return self._stall('loadq', INF)
            elif o == op.FRAME_START:
                if not self._frame_ready():
                    return self._stall('frame', INF)
            else:  # VISSUE, DEVEC
                succ = self.successor
                if succ is None:
                    raise SimError(f'{op.name(o)} outside a vector group '
                                   f'(core {self.core_id})')
                if not succ.inet_in.can_accept():
                    return self._stall('backpressure', now + 1)
        self._commit_issue(inst, now)
        self._execute_front(inst, now)
        return max(now + 1, self.fetch_stall_until)

    # -- expander ---------------------------------------------------------------
    def _step_expander(self, now: int) -> int:
        q = self.inet_in
        if not self.in_mt:
            msg = q.peek(now)
            if msg is None:
                nr = q.next_ready_cycle()
                return self._stall('inet_input', nr if nr is not None else INF)
            kind, payload = msg
            if kind == MSG_DEVEC:
                return self._handle_devec(payload, now)
            if kind == MSG_LAUNCH:
                q.pop(now)
                self.in_mt = True
                self.mt_pc = payload
                self.stats.microthreads += 1
                self._charge_gap(now, 'inet_input')
                self._fetch_pc = -1
                tel = self.fabric.telemetry
                if tel is not None:
                    tel.on_mt_launch((self.core_id, now, payload))
                return now + 1
            raise SimError(f'expander received unexpected inet message '
                           f'{kind!r}')
        if self.fetch_stall_until > now:
            return self.fetch_stall_until
        prog = self.program
        inst = prog.instrs[self.mt_pc]
        if self._fetch_pc != self.mt_pc:
            pen = self.icache.fetch(self.mt_pc)
            self._fetch_pc = self.mt_pc
            if pen:
                self.fetch_stall_until = now + pen
                return self._stall('other', self.fetch_stall_until)
        o = inst.op
        control = o in _CONTROL
        forward = self.successor is not None and not control and o != op.VEND
        if forward and not self.successor.inet_in.can_accept():
            return self._stall('backpressure', now + 1)
        skip = not self.pred and not control and o not in _PRED_EXEMPT
        if not skip:
            if o == op.FRAME_START and not self._frame_ready():
                return self._stall('frame', INF)
            wake = self._check_operands(inst, now)
            if wake is not None:
                return wake
        self._commit_issue(inst, now)
        if forward:
            self.successor.push_inet(MSG_INST, inst, now)
            self.stats.inet_forwards += 1
        if o == op.VEND:
            self.in_mt = False
            tel = self.fabric.telemetry
            if tel is not None:
                tel.on_mt_end((self.core_id, now))
            return now + 1
        if control:
            self._execute_control_mt(inst, now)
        else:
            if not skip:
                HANDLERS[o](self, inst, now)
            self.mt_pc += 1
        return max(now + 1, self.fetch_stall_until)

    def _execute_control_mt(self, inst: Instr, now: int) -> None:
        """Branches/jumps inside a microthread (expander only)."""
        o = inst.op
        if o in (op.J, op.JAL):
            if o == op.JAL:
                self.regs[inst.rd] = self.mt_pc + 1
            self.mt_pc = inst.imm
            bubble = True
        elif o == op.JR:
            self.mt_pc = int(self.regs[inst.rs1])
            bubble = True
        else:
            regs = self.regs
            taken = BRANCH_TEST[o](regs[inst.rs1], regs[inst.rs2])
            self.mt_pc = inst.imm if taken else self.mt_pc + 1
            # the expander pauses fetch on *every* branch until it resolves,
            # to avoid forwarding wrong-path instructions (paper Section 3.2)
            bubble = taken or self.cfg.expander_pause_on_branch
        if bubble:
            self.fetch_stall_until = now + self.cfg.branch_bubble
            self._stall_cause = 'branch'

    # -- vector lane --------------------------------------------------------------
    def _step_vector(self, now: int) -> int:
        q = self.inet_in
        msg = q.peek(now)
        if msg is None:
            nr = q.next_ready_cycle()
            return self._stall('inet_input', nr if nr is not None else INF)
        kind, payload = msg
        if kind == MSG_DEVEC:
            return self._handle_devec(payload, now)
        if kind != MSG_INST:
            raise SimError(f'vector core {self.core_id} received {kind!r}')
        inst: Instr = payload
        o = inst.op
        succ = self.successor
        if succ is not None and not succ.inet_in.can_accept():
            return self._stall('backpressure', now + 1)
        skip = not self.pred and o not in _PRED_EXEMPT
        if o == op.FRAME_START and not self._frame_ready():
            return self._stall('frame', INF)
        if not skip:
            wake = self._check_operands(inst, now)
            if wake is not None:
                return wake
        q.pop(now)
        if succ is not None:
            succ.push_inet(MSG_INST, inst, now)
            self.stats.inet_forwards += 1
        self._commit_issue(inst, now)
        if not skip:
            HANDLERS[o](self, inst, now)
        return now + 1

    def _handle_devec(self, resume_pc: int, now: int) -> int:
        succ = self.successor
        if succ is not None:
            if not succ.inet_in.can_accept():
                return self._stall('backpressure', now + 1)
            succ.push_inet(MSG_DEVEC, resume_pc, now)
        self.inet_in.pop(now)
        self._charge_gap(now, 'inet_input')
        self._leave_group(resume_pc)
        return now + 1

    def _leave_group(self, resume_pc: int) -> None:
        self.mode = ROLE_INDEPENDENT
        self.group = None
        self.successor = None
        self.lane_idx = -1
        self.pred = True
        self.in_mt = False
        self.pc = resume_pc
        self._fetch_pc = -1

    def _frame_ready(self) -> bool:
        fq = self.spad.frames
        if fq is None:
            raise SimError(f'frame_start with no frame config '
                           f'(core {self.core_id})')
        return fq.head_ready()

    # ---------------------------------------------------------------- scoreboard
    def _check_operands(self, inst: Instr, now: int):
        """None if all operands ready; else a wake hint (stall recorded)."""
        busy = self._busy
        worst = 0
        is_load = False
        for r in inst.reads:
            b = busy[r]
            if b > now and b > worst:
                worst = b
                is_load = self._busy_load[r]
        for w in inst.writes:
            b = busy[w]
            if b > now and b > worst:
                worst = b
                is_load = self._busy_load[w]
        if inst.vreads or inst.vwrites:
            vbusy = self._vbusy
            for r in inst.vreads:
                if vbusy[r] > worst:
                    worst = vbusy[r]
            for w in inst.vwrites:
                if vbusy[w] > worst:
                    worst = vbusy[w]
        if worst <= now:
            return None
        cause = 'frame' if is_load else 'scoreboard'
        return self._stall(cause, worst if worst < INF else INF)

    def _writeback(self, reg: int, value, at: int) -> None:
        if reg == 0:
            return
        self.regs[reg] = value
        self._busy[reg] = at

    # ---------------------------------------------------------------- execution
    def _execute_front(self, inst: Instr, now: int) -> None:
        """Execute in a frontend mode (independent/scalar); advances self.pc."""
        o = inst.op
        front = _FRONT_HANDLERS[o]
        if front is not None:
            front(self, inst, now)  # control and system ops move pc
            return
        HANDLERS[o](self, inst, now)
        self.pc += 1

    def _front_jump(self, inst: Instr, now: int) -> None:
        o = inst.op
        if o == op.JAL:
            self._writeback(inst.rd, self.pc + 1, now + 1)
        self.pc = int(self.regs[inst.rs1]) if o == op.JR else inst.imm
        self.fetch_stall_until = now + self.cfg.branch_bubble
        self._stall_cause = 'branch'

    def _front_branch(self, inst: Instr, now: int) -> None:
        regs = self.regs
        if BRANCH_TEST[inst.op](regs[inst.rs1], regs[inst.rs2]):
            self.pc = inst.imm
            self.fetch_stall_until = now + self.cfg.branch_bubble
            self._stall_cause = 'branch'
        else:
            self.pc += 1

    def _front_system(self, inst: Instr, now: int) -> None:
        """Role-specific ops only a frontend core executes."""
        o = inst.op
        self.pc += 1
        if o == op.HALT:
            self.halted = True
            self.state = HALTED
            self.fabric.on_halt(self, now)
        elif o == op.BARRIER:
            self.fabric.barrier_arrive(self, now)
        elif o == op.VCONFIG:
            handle = int(self.regs[inst.rs1])
            self.fabric.vconfig_arrive(self, handle, now)
        elif o == op.VISSUE:
            self.successor.push_inet(MSG_LAUNCH, inst.imm, now)
            self.stats.inet_forwards += 1
        else:  # DEVEC
            self.successor.push_inet(MSG_DEVEC, inst.imm, now)
            self.stats.inet_forwards += 1
            self.mode = ROLE_INDEPENDENT
            self.group = None
            self.successor = None

    # ------------------------------------------------------------------ memory
    def _issue_load(self, inst: Instr, now: int) -> None:
        addr = int(self.regs[inst.rs1]) + inst.imm
        rd = inst.rd
        self.lq_count += 1
        if rd != 0:
            self._busy[rd] = INF
            self._busy_load[rd] = True

        def on_data(value, at, tile=self, reg=rd):
            tile.lq_count -= 1
            if reg != 0:
                tile.regs[reg] = value
                tile._busy[reg] = at
                tile._busy_load[reg] = False
            tile.fabric.wake_tile(tile, at)

        req = MemRequest(KIND_LOAD, addr, 1, self.core_id, on_data=on_data)
        self.fabric.send_to_bank(req, now)

    def _issue_vload(self, inst: Instr, now: int) -> None:
        core_off, width, variant, part, _ = inst.ex
        addr = int(self.regs[inst.rs1])
        spad_off = int(self.regs[inst.rs2])
        lanes = self.group.lanes if self.group is not None else []
        expansion = expand_vload(addr, spad_off, core_off, width, variant,
                                 part, lanes, self.core_id,
                                 self.cfg.line_words)
        self.stats.vloads_issued += 1
        job = self.job
        if job is not None and job.rtrace is not None:
            job.rtrace.wide_issued += 1
        if expansion is None:
            return
        start, chunks = expansion
        nwords = sum(c[1] for c in chunks)
        req = MemRequest(KIND_WIDE, start, nwords, self.core_id,
                         chunks=chunks, is_frame=True)
        if self.fabric.telemetry is not None:
            req.t_issue = now
        self.fabric.send_to_bank(req, now)

    # ------------------------------------------------------------------- CSRs
    def _csr_write(self, csr: int, value) -> None:
        if csr == op.CSR_FRAME_CFG:
            v = int(value)
            frame_size = v & 0xFFF
            slots = (v >> 12) & 0xFFF
            fq = self.spad.configure_frames(frame_size, slots,
                                            self.cfg.frame_counters)
            if self.fabric.telemetry is not None:
                self.fabric.telemetry.watch_frames(self.core_id, fq)
        elif csr == op.CSR_VCONFIG:
            pass  # modeled via the VCONFIG instruction
        else:
            raise SimError(f'write to unknown CSR {csr}')

    def _csr_read(self, csr: int):
        if csr == op.CSR_TID:
            return self.lane_idx if self.lane_idx >= 0 else self.tid
        if csr == op.CSR_GROUP_SIZE:
            return self.group.num_lanes if self.group else 1
        if csr == op.CSR_COREID:
            return self.core_id
        if csr == op.CSR_NCORES:
            return self.ncores_csr
        if csr == op.CSR_GROUP_ID:
            return self.group_id_csr
        if csr == op.CSR_NGROUPS:
            return self.ngroups_csr
        raise SimError(f'read of unknown CSR {csr}')

    def __repr__(self):
        from ..core.vgroup import ROLE_NAMES
        return (f'<Tile {self.core_id} {ROLE_NAMES[self.mode]} pc={self.pc} '
                f'state={self.state}>')

    # ------------------------------------------------------------- diagnostics
    def blocked_instruction(self) -> str:
        """The instruction this tile is stuck on, best-effort by role."""
        from ..core.vgroup import ROLE_EXPANDER as _EXP, ROLE_VECTOR as _VEC
        if self.state == WAIT_BARRIER:
            return 'barrier'
        if self.state == WAIT_VCONFIG:
            return f'vconfig (group {self.group.group_id})' \
                if self.group else 'vconfig'
        if self.mode == _VEC or (self.mode == _EXP and not self.in_mt):
            msg = self.inet_in.peek(1 << 62)
            if msg is None:
                return '<inet empty>'
            kind, payload = msg
            return f'{kind} {payload!r}'
        prog, pc = self.program, (self.mt_pc if self.in_mt else self.pc)
        if prog is None or not 0 <= pc < len(prog.instrs):
            return f'<pc {pc} out of range>'
        return f'pc={pc} {prog.instrs[pc]!r}'

    def describe_wait_state(self) -> str:
        """One dump line for DeadlockError diagnostics."""
        from ..core.vgroup import ROLE_NAMES
        parts = [f'core {self.core_id} [{ROLE_NAMES[self.mode]}]',
                 f'stall={self._stall_cause}',
                 f'blocked-on: {self.blocked_instruction()}']
        fq = self.spad.frames
        if fq is not None:
            parts.append(f'frames: head={fq.head} '
                         f'open={fq.open_frames()}/{fq.num_counters} '
                         f'counters={fq.counters}')
        else:
            parts.append('frames: unconfigured')
        parts.append(f'inet-depth={len(self.inet_in)}/'
                     f'{self.inet_in.capacity}')
        parts.append(f'lq={self.lq_count}')
        if self.job is not None:
            parts.append(f'job={self.job.job_id}')
        return '  '.join(parts)


# ------------------------------------------------------------ dispatch tables
# Every per-issue decision that depends only on the opcode is a list
# indexed by the opcode integer, built once at import:
#   HANDLERS[o]    executes a non-control op in any role: fn(tile, inst, now)
#   LATENCY[o]     issue-to-writeback cycles (Table 1a; default 1)
#   MIX_CLASS[o]   the CoreStats opcode-mix counter (energy model input)
#   BRANCH_TEST[o] decides a conditional branch; None for every other op

def _illegal(t, inst, now):
    raise SimError(f'cannot execute {op.name(inst.op)} here '
                   f'(core {t.core_id}, mode {t.mode})')


def _rr(fn):
    """Handler for ``rd <- fn(rs1, rs2)``."""
    def handler(t, inst, now):
        regs = t.regs
        t._writeback(inst.rd, fn(regs[inst.rs1], regs[inst.rs2]),
                     now + LATENCY[inst.op])
    return handler


def _ri(fn):
    """Handler for ``rd <- fn(rs1, imm)``."""
    def handler(t, inst, now):
        t._writeback(inst.rd, fn(t.regs[inst.rs1], inst.imm),
                     now + LATENCY[inst.op])
    return handler


def _r(fn):
    """Handler for ``rd <- fn(rs1)``."""
    def handler(t, inst, now):
        t._writeback(inst.rd, fn(t.regs[inst.rs1]), now + LATENCY[inst.op])
    return handler


def _vv(fn):
    """Handler for the lane-wise SIMD ``vrd <- fn(vrs1, vrs2)``."""
    def handler(t, inst, now):
        vregs = t.vregs
        vregs[inst.rd] = list(map(fn, vregs[inst.rs1], vregs[inst.rs2]))
        t._vbusy[inst.rd] = now + LATENCY[inst.op]
    return handler


def _pred(test):
    def handler(t, inst, now):
        t.pred = test(t.regs[inst.rs1], t.regs[inst.rs2])
    return handler


def _rem(a, b):
    a, b = int(a), int(b)
    return a - int(a / b) * b if b else a


def _fma(t, inst, now):
    regs = t.regs
    t._writeback(inst.rd, regs[inst.rd] + regs[inst.rs1] * regs[inst.rs2],
                 now + LATENCY[inst.op])


def _sw(t, inst, now):
    regs = t.regs
    addr = int(regs[inst.rs1]) + inst.imm
    t.fabric.send_store(t.core_id, addr, regs[inst.rs2], now)


def _lwsp(t, inst, now):
    value = t.spad.read(int(t.regs[inst.rs1]) + inst.imm)
    t._writeback(inst.rd, value, now + t.cfg.spad_hit_latency)


def _swsp(t, inst, now):
    t.spad.write(int(t.regs[inst.rs1]) + inst.imm, t.regs[inst.rs2])


def _swrem(t, inst, now):
    regs = t.regs
    dest = int(regs[inst.rs2])
    off = int(regs[inst.rd]) + inst.imm
    t.fabric.send_remote_store(t.core_id, dest, off, regs[inst.rs1], now)


def _frame_start(t, inst, now):
    fq = t.spad.frames
    if fq is None:
        raise SimError(f'frame_start with no frame config '
                       f'(core {t.core_id})')
    tel = t.fabric.telemetry
    if tel is not None:
        tel.on_frame_start((t.core_id, fq.head, now))
    t._writeback(inst.rd, fq.head_offset(), now + LATENCY[inst.op])


def _remem(t, inst, now):
    fq = t.spad.frames
    tel = t.fabric.telemetry
    if tel is not None:
        tel.on_frame_free((t.core_id, fq.head, 0, now))
    fq.free_head()
    t.stats.frames_consumed += 1


def _csrr(t, inst, now):
    t._writeback(inst.rd, t._csr_read(inst.imm), now + LATENCY[inst.op])


def _print(t, inst, now):
    print(f'[core {t.core_id} @ {now}] r{inst.rs1} = {t.regs[inst.rs1]}')


def _vl4(t, inst, now):
    base = int(t.regs[inst.rs1]) + inst.imm
    read = t.spad.read
    t.vregs[inst.rd] = [read(base + i) for i in range(t.cfg.simd_width)]
    t._vbusy[inst.rd] = now + t.cfg.spad_hit_latency


def _vs4(t, inst, now):
    base = int(t.regs[inst.rs1]) + inst.imm
    for i, v in enumerate(t.vregs[inst.rd]):
        t.spad.write(base + i, v)


def _vfma4(t, inst, now):
    vregs = t.vregs
    a, b, d = vregs[inst.rs1], vregs[inst.rs2], vregs[inst.rd]
    vregs[inst.rd] = [acc + x * y for acc, x, y in zip(d, a, b)]
    t._vbusy[inst.rd] = now + LATENCY[inst.op]


def _vbcast(t, inst, now):
    t.vregs[inst.rd] = [t.regs[inst.rs1]] * t.cfg.simd_width
    t._vbusy[inst.rd] = now + LATENCY[inst.op]


def _vredsum4(t, inst, now):
    t._writeback(inst.rd, sum(t.vregs[inst.rs1]), now + LATENCY[inst.op])


def _nop(t, inst, now):
    pass


_HANDLER_OF = {
    # integer
    op.ADD: _rr(operator.add),
    op.SUB: _rr(operator.sub),
    op.MUL: _rr(operator.mul),
    op.DIV: _rr(lambda a, b: int(a / b) if b else -1),
    op.REM: _rr(_rem),
    op.AND: _rr(lambda a, b: int(a) & int(b)),
    op.OR: _rr(lambda a, b: int(a) | int(b)),
    op.XOR: _rr(lambda a, b: int(a) ^ int(b)),
    op.SLL: _rr(lambda a, b: int(a) << int(b)),
    op.SRL: _rr(lambda a, b: int(a) >> int(b)),
    op.SLT: _rr(lambda a, b: int(a < b)),
    op.ADDI: _ri(operator.add),
    op.ANDI: _ri(lambda a, imm: int(a) & imm),
    op.ORI: _ri(lambda a, imm: int(a) | imm),
    op.XORI: _ri(lambda a, imm: int(a) ^ imm),
    op.SLLI: _ri(lambda a, imm: int(a) << imm),
    op.SRLI: _ri(lambda a, imm: int(a) >> imm),
    op.SLTI: _ri(lambda a, imm: int(a < imm)),
    op.LI: _ri(lambda a, imm: imm),
    op.MV: _r(lambda a: a),
    # floating point
    op.FADD: _rr(operator.add),
    op.FSUB: _rr(operator.sub),
    op.FMUL: _rr(operator.mul),
    op.FDIV: _rr(operator.truediv),
    # IEEE sqrt of a negative is NaN; Python's ``x ** 0.5`` is complex
    op.FSQRT: _r(lambda a: math.nan if a < 0 else a ** 0.5),
    op.FMIN: _rr(min),
    op.FMAX: _rr(max),
    op.FMA: _fma,
    op.FABS: _r(abs),
    op.FNEG: _r(operator.neg),
    op.FLT: _rr(lambda a, b: int(a < b)),
    op.FLE: _rr(lambda a, b: int(a <= b)),
    op.FEQ: _rr(lambda a, b: int(a == b)),
    op.FCVT_WS: _r(int),
    op.FCVT_SW: _r(float),
    # memory
    op.LW: Tile._issue_load,
    op.SW: _sw,
    op.LWSP: _lwsp,
    op.SWSP: _swsp,
    op.SWREM: _swrem,
    # SDV
    op.VLOAD: Tile._issue_vload,
    op.FRAME_START: _frame_start,
    op.REMEM: _remem,
    op.PRED_EQ: _pred(operator.eq),
    op.PRED_NEQ: _pred(operator.ne),
    op.VEND: _nop,  # meaningful only on the expander (handled there)
    # system
    op.CSRW: lambda t, inst, now: t._csr_write(inst.imm, t.regs[inst.rs1]),
    op.CSRR: _csrr,
    op.NOP: _nop,
    op.PRINT: _print,
    # per-core SIMD
    op.VL4: _vl4,
    op.VS4: _vs4,
    op.VADD4: _vv(operator.add),
    op.VSUB4: _vv(operator.sub),
    op.VMUL4: _vv(operator.mul),
    op.VFMA4: _vfma4,
    op.VBCAST: _vbcast,
    op.VREDSUM4: _vredsum4,
}

_MIX_OPS = {
    'n_mem': (op.LW, op.SW, op.LWSP, op.SWSP, op.SWREM, op.VLOAD),
    'n_mul': (op.MUL,),
    'n_div': (op.DIV, op.REM, op.FDIV, op.FSQRT),
    'n_fp': (op.FADD, op.FSUB, op.FMUL, op.FMA, op.FMIN, op.FMAX, op.FABS,
             op.FNEG, op.FLT, op.FLE, op.FEQ, op.FCVT_WS, op.FCVT_SW),
    'n_simd': (op.VL4, op.VS4, op.VADD4, op.VSUB4, op.VMUL4, op.VFMA4,
               op.VBCAST, op.VREDSUM4),
    'n_control': tuple(_CONTROL),
}  # every other opcode counts as n_int_alu

_NUM_OPCODES = max(op.NAMES) + 1
HANDLERS = [_HANDLER_OF.get(o, _illegal) for o in range(_NUM_OPCODES)]
LATENCY = [op.LATENCY.get(o, 1) for o in range(_NUM_OPCODES)]
MIX_CLASS = ['n_int_alu'] * _NUM_OPCODES
BRANCH_TEST = [None] * _NUM_OPCODES
#: frontend-only ops (control flow, role-specific system ops) move pc
#: themselves; for ``None`` the frontend runs ``HANDLERS[o]``, then pc += 1
_FRONT_HANDLERS = [None] * _NUM_OPCODES
for _cls, _ops in _MIX_OPS.items():
    for _o in _ops:
        MIX_CLASS[_o] = _cls
for _o, _test in ((op.BEQ, operator.eq), (op.BNE, operator.ne),
                  (op.BLT, operator.lt), (op.BGE, operator.ge)):
    BRANCH_TEST[_o] = _test
    _FRONT_HANDLERS[_o] = Tile._front_branch
for _o in (op.J, op.JAL, op.JR):
    _FRONT_HANDLERS[_o] = Tile._front_jump
for _o in (op.HALT, op.BARRIER, op.VCONFIG, op.VISSUE, op.DEVEC):
    _FRONT_HANDLERS[_o] = Tile._front_system
