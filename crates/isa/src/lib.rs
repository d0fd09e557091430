//! # rvhpc-isa
//!
//! An instruction-level RV64 backend modeled on the rvr static-recompiler
//! pipeline: decoder → typed mini-IR → basic-block CFG → deterministic
//! interpreter with pluggable trace hooks. It gives the repo a second,
//! trace-driven prediction backend next to the profile-driven one: synthetic
//! NPB-shaped kernels (STREAM triad, CG SpMV inner loop, MG residual
//! stencil, EP accumulate) are assembled as real RV64IMAC+Zba/Zbb (+ minimal
//! RVV) machine code, decoded, and interpreted while every memory access,
//! conditional branch, and vector op streams into the archsim cache / TLB /
//! branch-predictor models.
//!
//! The paper can only ablate extensions through compiler flags (§6); this
//! backend ablates them at instruction granularity: building a kernel
//! without Zba re-materialises every shNadd as slli+add, without Zbb the
//! running maxima become branchy compare/move sequences (changing the branch
//! stream too), and without RVV the triad falls back to scalar code.
//!
//! ```
//! use rvhpc_isa::{characterize, IsaExt, KernelId};
//!
//! let machine = rvhpc_machines::presets::sg2044();
//! let full = characterize(KernelId::Triad, &machine, 1, IsaExt::full());
//! let no_zba = characterize(
//!     KernelId::Triad,
//!     &machine,
//!     1,
//!     IsaExt { zba: false, ..IsaExt::full() },
//! );
//! // Dropping Zba costs extra address-arithmetic instructions.
//! assert!(no_zba.instret > full.instret);
//! ```

pub mod backend;
pub mod cfg;
pub mod decode;
pub mod encode;
pub mod interp;
pub mod ir;
pub mod kernels;
pub mod trace;

pub use backend::{
    characterize, characterize_key, characterize_keys, CharKey, IsaExt, KernelCharacter,
};
pub use cfg::{build_cfg, BasicBlock, Cfg};
pub use decode::{decode, decode_compressed, decode_program, DecodedProgram};
pub use encode::Asm;
pub use interp::{run, Cpu, ExecStats, Memory, Trap};
pub use ir::{ExtSet, Instr, Op};
pub use kernels::{build, BuiltKernel, KernelId};
pub use trace::{NullTracer, Tracer};
