//! # pythia-ir — the PIR intermediate representation
//!
//! PIR is a small, typed, SSA-style intermediate representation modelled on
//! the subset of LLVM IR used by the Pythia paper ("Pythia: Compiler-Guided
//! Defense Against Non-Control Data Attacks", ASPLOS 2024). It is the
//! substrate every other crate in this workspace builds on:
//!
//! - [`Ty`] — the type system (64-bit machine model);
//! - [`Inst`] — instructions, including the ARM-PA ops (`pacsign`,
//!   `pacauth`, `pacstrip`) and DFI ops (`setdef`, `chkdef`) that the
//!   instrumentation passes insert;
//! - [`Function`] / [`Module`] — the code containers;
//! - [`FunctionBuilder`] — ergonomic construction;
//! - [`printer`] / [`parser`] — a round-trippable textual format;
//! - [`verify`] — structural/type verification;
//! - [`layout`] — the memory layout of frames and globals;
//! - [`Intrinsic`] — the modelled C library, with the paper's six
//!   *input channel* categories (Definition 2.1).
//!
//! # Examples
//!
//! Build, print, and re-parse a function:
//!
//! ```
//! use pythia_ir::{FunctionBuilder, Module, Ty, printer, parser, verify};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut m = Module::new("demo");
//! let mut b = FunctionBuilder::new("id", vec![Ty::I64], Ty::I64);
//! let x = b.func().arg(0);
//! b.ret(Some(x));
//! m.add_function(b.finish());
//! verify::verify_module(&m).map_err(|e| format!("{e:?}"))?;
//!
//! let text = printer::print_module(&m);
//! let reparsed = parser::parse_module(&text)?;
//! assert_eq!(text, printer::print_module(&reparsed));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod error;
pub mod function;
pub mod instr;
pub mod intrinsics;
pub mod layout;
pub mod module;
pub mod parser;
pub mod printer;
pub mod types;
pub mod verify;

pub use builder::FunctionBuilder;
pub use error::{DetectionKind, ErrorContext, PythiaError};
pub use function::{Block, Function, Placement, ValueData, ValueKind};
pub use instr::{
    dfi_def_id, BinOp, BlockId, Callee, CastKind, CmpPred, FuncId, GlobalId, Inst, PaKey,
    Successors, ValueId,
};
pub use intrinsics::{IcCategory, Intrinsic, IntrinsicSignature};
pub use module::{Global, GlobalInit, Module};
pub use types::Ty;
