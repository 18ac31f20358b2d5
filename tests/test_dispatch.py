"""The tile interpreter's decode-once dispatch tables.

``repro.manycore.tile`` executes every instruction through lists indexed
by the opcode integer.  These tests pin the tables themselves: which
opcodes have a handler, the opcode-mix class the energy model reads, and
the per-opcode latency.
"""

import math

import pytest

from repro.isa import opcodes as op
from repro.isa.instruction import Instr
from repro.manycore import Fabric, SimError, small_config
from repro.manycore import tile
from tests.conftest import run_single_core

#: Ops ``HANDLERS`` rejects: control flow and the role-specific system
#: ops run only in a frontend role (``Tile._execute_front``), and
#: ``VOTE_ANY`` belongs to the GPU baseline.
ILLEGAL_IN_ANY_ROLE = {op.BEQ, op.BNE, op.BLT, op.BGE, op.J, op.JAL, op.JR,
                       op.HALT, op.BARRIER, op.VCONFIG, op.VISSUE, op.DEVEC,
                       op.VOTE_ANY}

#: The opcode-mix counter each opcode bumps, written out by hand.
MIX = {
    'n_int_alu': [op.ADD, op.SUB, op.AND, op.OR, op.XOR, op.SLL, op.SRL,
                  op.SLT, op.ADDI, op.ANDI, op.ORI, op.XORI, op.SLLI,
                  op.SRLI, op.SLTI, op.LI, op.MV, op.NOP, op.HALT,
                  op.BARRIER, op.CSRW, op.CSRR, op.PRINT, op.VCONFIG,
                  op.DEVEC, op.VISSUE, op.VEND, op.FRAME_START, op.REMEM,
                  op.PRED_EQ, op.PRED_NEQ, op.VOTE_ANY],
    'n_mul': [op.MUL],
    'n_div': [op.DIV, op.REM, op.FDIV, op.FSQRT],
    'n_fp': [op.FADD, op.FSUB, op.FMUL, op.FMA, op.FMIN, op.FMAX, op.FABS,
             op.FNEG, op.FLT, op.FLE, op.FEQ, op.FCVT_WS, op.FCVT_SW],
    'n_mem': [op.LW, op.SW, op.LWSP, op.SWSP, op.SWREM, op.VLOAD],
    'n_simd': [op.VL4, op.VS4, op.VADD4, op.VSUB4, op.VMUL4, op.VFMA4,
               op.VBCAST, op.VREDSUM4],
    'n_control': [op.BEQ, op.BNE, op.BLT, op.BGE, op.J, op.JAL, op.JR],
}


class TestTables:
    def test_every_opcode_has_a_handler_or_is_illegal(self):
        for o in op.NAMES:
            handler = tile.HANDLERS[o]
            assert callable(handler), op.name(o)
            assert (handler is tile._illegal) == (o in ILLEGAL_IN_ANY_ROLE), \
                op.name(o)

    def test_unnamed_opcodes_are_illegal(self):
        for o in range(len(tile.HANDLERS)):
            if o not in op.NAMES:
                assert tile.HANDLERS[o] is tile._illegal

    def test_mix_class_matches_hand_written_map(self):
        expected = {o: cls for cls, ops in MIX.items() for o in ops}
        assert sum(len(ops) for ops in MIX.values()) == len(expected)
        assert set(expected) == set(op.NAMES)
        for o in op.NAMES:
            assert tile.MIX_CLASS[o] == expected[o], op.name(o)
        assert set(tile.MIX_CLASS) == set(MIX)

    def test_latency_matches_opcode_table(self):
        assert len(tile.LATENCY) > max(op.NAMES)
        assert tile.LATENCY == [op.LATENCY.get(o, 1)
                                for o in range(len(tile.LATENCY))]

    def test_branch_test_covers_exactly_the_branches(self):
        assert {o for o, t in enumerate(tile.BRANCH_TEST) if t is not None} \
            == {op.BEQ, op.BNE, op.BLT, op.BGE}


class TestIllegalOpcodes:
    def test_handler_raises_the_interpreter_message(self):
        t = Fabric(small_config()).tiles[3]
        with pytest.raises(SimError,
                           match=r'^cannot execute vote_any here '
                                 r'\(core 3, mode 0\)$'):
            tile.HANDLERS[op.VOTE_ANY](t, Instr(op.VOTE_ANY, 1, 2), 0)

    def test_gpu_only_op_fails_a_manycore_run(self):
        def body(a):
            a.li('x5', 1)
            a.vote_any('x6', 'x5')

        with pytest.raises(SimError, match='cannot execute vote_any here'):
            run_single_core(body)


class TestFsqrt:
    def test_negative_operand_gives_nan_not_complex(self):
        def body(a):
            a.li('f1', -4)
            a.fcvt_sw('f1', 'f1')
            a.fsqrt('f2', 'f1')      # -4.0 -> nan
            a.li('x5', -9)
            a.fsqrt('f3', 'x5')      # integer operand, same rule
            a.li('f4', 9)
            a.fsqrt('f4', 'f4')      # 3.0, unchanged
            a.li('x8', 0)
            a.sw('f2', 'x8', 0)
            a.sw('f3', 'x8', 1)
            a.sw('f4', 'x8', 2)

        fabric, _ = run_single_core(body)
        assert math.isnan(fabric.memory[0])
        assert math.isnan(fabric.memory[1])
        assert fabric.memory[2] == 3.0
        for t in fabric.tiles:
            assert not any(isinstance(v, complex) for v in t.regs)
