//! rvr-style tracer hooks: the interpreter calls into a [`Tracer`] for every
//! retired instruction, memory access, conditional branch, and vector op.
//! Implementations consume what they need: characterization feeds only the
//! branches to a predictor, while a recorder can keep every event for a
//! full replay through `rvhpc-archsim`'s `replay` module.

use crate::ir::Instr;

/// Observer for interpreter-emitted events. All hooks default to no-ops so
/// implementations only override what they consume.
pub trait Tracer {
    /// An instruction retired at `pc`.
    fn retire(&mut self, _pc: u64, _instr: &Instr) {}
    /// A scalar memory access of `bytes` at `addr`.
    fn mem(&mut self, _addr: u64, _bytes: u8, _is_store: bool) {}
    /// A conditional branch at `pc` resolved as `taken`.
    fn branch(&mut self, _pc: u64, _taken: bool) {}
    /// A vector op retired touching `elems` lanes; `gather` marks indexed
    /// (vluxei) element accesses. Per-lane memory traffic is emitted
    /// separately through `mem`.
    fn vector(&mut self, _elems: u32, _gather: bool) {}
}

/// Tracer that discards everything (interpreter-only runs, decode benches).
pub struct NullTracer;

impl Tracer for NullTracer {}
