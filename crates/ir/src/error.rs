//! The workspace-wide typed error taxonomy.
//!
//! A defense evaluator must be able to tell three failure worlds apart
//! (cf. DFI's fail-stop semantics, Castro et al. OSDI'06):
//!
//! - **Setup** — the harness was asked to do something impossible: a
//!   missing or duplicate entry function, a module that fails
//!   verification, an invalid heap geometry. The input is at fault.
//! - **Fault** — a benign machine fault on adversarial-but-legal input: a
//!   wild address, an unsupported access width. The *program* is at
//!   fault; the harness behaved correctly.
//! - **Detection** — a defense mechanism fired (canary mismatch, data-PAC
//!   authentication failure, DFI last-writer violation). This is the
//!   *success* case of an attack evaluation and must never be conflated
//!   with the other two.
//! - **Internal** — a harness invariant broke (a worker panicked, a table
//!   lost an entry). This is a bug in the reproduction itself and the
//!   only variant CI treats as fatal.
//!
//! Every variant carries an [`ErrorContext`] naming the function,
//! instruction, and address involved, when known. Construct with the
//! [`PythiaError::setup`]-style helpers and decorate with the
//! `with_*` builders:
//!
//! ```
//! use pythia_ir::error::PythiaError;
//!
//! let e = PythiaError::setup("no function named `main`").with_function("main");
//! assert_eq!(e.variant(), "setup");
//! assert!(!e.is_internal());
//! assert!(e.to_string().contains("main"));
//! ```

use crate::parser::ParseError;
use crate::verify::VerifyError;
use std::fmt;

/// Where an error happened, when known.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ErrorContext {
    /// The function involved (entry name, worker function, ...).
    pub function: Option<String>,
    /// The instruction (value id) being executed or transformed.
    pub instruction: Option<u32>,
    /// The memory address involved.
    pub address: Option<u64>,
}

impl ErrorContext {
    /// True when no context field is set.
    pub fn is_empty(&self) -> bool {
        self.function.is_none() && self.instruction.is_none() && self.address.is_none()
    }
}

impl fmt::Display for ErrorContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut sep = "";
        if let Some(func) = &self.function {
            write!(f, "in `{func}`")?;
            sep = ", ";
        }
        if let Some(v) = self.instruction {
            write!(f, "{sep}at %{v}")?;
            sep = ", ";
        }
        if let Some(a) = self.address {
            write!(f, "{sep}addr {a:#x}")?;
        }
        Ok(())
    }
}

/// Which defense fired, for [`PythiaError::Detection`]. Mirrors the VM's
/// `DetectionMechanism` without depending on the VM crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectionKind {
    /// PA-signed stack canary (`Ga` key) mismatch.
    Canary,
    /// Data-value PAC authentication failure (CPA / Pythia heap).
    DataPac,
    /// DFI SETDEF/CHKDEF last-writer violation.
    Dfi,
}

impl fmt::Display for DetectionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DetectionKind::Canary => write!(f, "canary"),
            DetectionKind::DataPac => write!(f, "data-pac"),
            DetectionKind::Dfi => write!(f, "dfi"),
        }
    }
}

/// The typed error every fallible layer of the workspace returns.
#[derive(Debug, Clone, PartialEq)]
pub enum PythiaError {
    /// Impossible request: bad entry point, unverifiable module, invalid
    /// configuration. The caller's input is at fault.
    Setup {
        /// What was wrong.
        what: String,
        /// Where.
        context: ErrorContext,
    },
    /// A benign machine fault on legal-but-hostile input (wild address,
    /// unsupported access width). The simulated program is at fault.
    Fault {
        /// What faulted.
        what: String,
        /// Where.
        context: ErrorContext,
    },
    /// A defense mechanism fired. Attack evaluations treat this as data,
    /// never as a harness failure.
    Detection {
        /// Which defense.
        mechanism: DetectionKind,
        /// What it reported.
        what: String,
        /// Where.
        context: ErrorContext,
    },
    /// A harness invariant broke — a bug in the reproduction itself. The
    /// only variant `scripts/check.sh` treats as fatal.
    Internal {
        /// What broke.
        what: String,
        /// Where.
        context: ErrorContext,
    },
}

impl PythiaError {
    /// A [`PythiaError::Setup`] with message `what`.
    pub fn setup(what: impl Into<String>) -> Self {
        PythiaError::Setup {
            what: what.into(),
            context: ErrorContext::default(),
        }
    }

    /// A [`PythiaError::Fault`] with message `what`.
    pub fn fault(what: impl Into<String>) -> Self {
        PythiaError::Fault {
            what: what.into(),
            context: ErrorContext::default(),
        }
    }

    /// A [`PythiaError::Detection`] for `mechanism`.
    pub fn detection(mechanism: DetectionKind, what: impl Into<String>) -> Self {
        PythiaError::Detection {
            mechanism,
            what: what.into(),
            context: ErrorContext::default(),
        }
    }

    /// A [`PythiaError::Internal`] with message `what`.
    pub fn internal(what: impl Into<String>) -> Self {
        PythiaError::Internal {
            what: what.into(),
            context: ErrorContext::default(),
        }
    }

    /// Run `body`, turning a panic inside it into an
    /// [`PythiaError::Internal`] error instead of unwinding into the
    /// caller. Every isolated unit of work (a scheme variant, a pool
    /// task, an nginx worker) runs through here.
    pub fn catch_panic<T>(body: impl FnOnce() -> Result<T, PythiaError>) -> Result<T, PythiaError> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(body))
            .unwrap_or_else(|p| Err(PythiaError::from_panic(p.as_ref())))
    }

    /// Classify a caught panic payload as an [`PythiaError::Internal`]
    /// error.
    pub fn from_panic(payload: &(dyn std::any::Any + Send)) -> Self {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic with non-string payload".to_owned());
        PythiaError::internal(format!("worker panicked: {msg}"))
    }

    /// The context (shared across variants).
    pub fn context(&self) -> &ErrorContext {
        match self {
            PythiaError::Setup { context, .. }
            | PythiaError::Fault { context, .. }
            | PythiaError::Detection { context, .. }
            | PythiaError::Internal { context, .. } => context,
        }
    }

    fn context_mut(&mut self) -> &mut ErrorContext {
        match self {
            PythiaError::Setup { context, .. }
            | PythiaError::Fault { context, .. }
            | PythiaError::Detection { context, .. }
            | PythiaError::Internal { context, .. } => context,
        }
    }

    /// Attach the function name.
    pub fn with_function(mut self, name: impl Into<String>) -> Self {
        self.context_mut().function = Some(name.into());
        self
    }

    /// Attach the instruction (value id).
    pub fn with_instruction(mut self, value: u32) -> Self {
        self.context_mut().instruction = Some(value);
        self
    }

    /// Attach the address.
    pub fn with_address(mut self, addr: u64) -> Self {
        self.context_mut().address = Some(addr);
        self
    }

    /// Append `extra` to the message, keeping variant and context (used
    /// when aggregating several failures into one representative error).
    pub fn amend(mut self, extra: impl AsRef<str>) -> Self {
        let what = match &mut self {
            PythiaError::Setup { what, .. }
            | PythiaError::Fault { what, .. }
            | PythiaError::Detection { what, .. }
            | PythiaError::Internal { what, .. } => what,
        };
        what.push(' ');
        what.push_str(extra.as_ref());
        self
    }

    /// Stable lowercase variant name (`setup` / `fault` / `detection` /
    /// `internal`), for reports and JSON.
    pub fn variant(&self) -> &'static str {
        match self {
            PythiaError::Setup { .. } => "setup",
            PythiaError::Fault { .. } => "fault",
            PythiaError::Detection { .. } => "detection",
            PythiaError::Internal { .. } => "internal",
        }
    }

    /// Whether this is the fatal-for-CI [`PythiaError::Internal`] variant.
    pub fn is_internal(&self) -> bool {
        matches!(self, PythiaError::Internal { .. })
    }
}

impl fmt::Display for PythiaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (label, what) = match self {
            PythiaError::Setup { what, .. } => ("setup error", what.as_str()),
            PythiaError::Fault { what, .. } => ("fault", what.as_str()),
            PythiaError::Detection {
                mechanism, what, ..
            } => {
                write!(f, "detection ({mechanism}): {what}")?;
                if !self.context().is_empty() {
                    write!(f, " ({})", self.context())?;
                }
                return Ok(());
            }
            PythiaError::Internal { what, .. } => ("internal error", what.as_str()),
        };
        write!(f, "{label}: {what}")?;
        if !self.context().is_empty() {
            write!(f, " ({})", self.context())?;
        }
        Ok(())
    }
}

impl std::error::Error for PythiaError {}

impl From<ParseError> for PythiaError {
    fn from(e: ParseError) -> Self {
        PythiaError::setup(e.to_string())
    }
}

impl From<Vec<VerifyError>> for PythiaError {
    fn from(errs: Vec<VerifyError>) -> Self {
        let first = errs
            .first()
            .map(|e| e.to_string())
            .unwrap_or_else(|| "verification failed".to_owned());
        let mut err = PythiaError::setup(if errs.len() > 1 {
            format!("{first} (+{} more)", errs.len() - 1)
        } else {
            first
        });
        if let Some(e) = errs.first() {
            err = err.with_function(e.func.clone());
            if let Some(iv) = e.instruction {
                err = err.with_instruction(iv.0);
            }
        }
        err
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_classify_and_render() {
        let s = PythiaError::setup("no function named `main`").with_function("main");
        assert_eq!(s.variant(), "setup");
        assert!(s.to_string().contains("`main`"));

        let f = PythiaError::fault("wild read").with_address(0xdead_beef);
        assert_eq!(f.variant(), "fault");
        assert!(f.to_string().contains("0xdeadbeef"));

        let d = PythiaError::detection(DetectionKind::Canary, "canary mismatch")
            .with_function("vuln")
            .with_instruction(7);
        assert_eq!(d.variant(), "detection");
        assert!(!d.is_internal());
        assert!(d.to_string().contains("canary"));
        assert!(d.to_string().contains("%7"));

        let i = PythiaError::internal("slot lost");
        assert!(i.is_internal());
    }

    #[test]
    fn verify_errors_become_setup() {
        let errs = vec![
            VerifyError {
                func: "f".into(),
                block: None,
                instruction: Some(crate::instr::ValueId(4)),
                message: "unterminated block".into(),
            },
            VerifyError {
                func: "g".into(),
                block: None,
                instruction: None,
                message: "bad operand".into(),
            },
        ];
        let e: PythiaError = errs.into();
        assert_eq!(e.variant(), "setup");
        assert_eq!(e.context().function.as_deref(), Some("f"));
        assert_eq!(e.context().instruction, Some(4));
        assert!(e.to_string().contains("+1 more"));
    }

    #[test]
    fn panic_payloads_become_internal() {
        let e = PythiaError::from_panic(&"boom");
        assert!(e.is_internal());
        assert!(e.to_string().contains("boom"));
        let e = PythiaError::from_panic(&String::from("heap boom"));
        assert!(e.to_string().contains("heap boom"));
        let e = PythiaError::catch_panic::<()>(|| panic!("caught boom")).unwrap_err();
        assert!(e.is_internal());
        assert!(e.to_string().contains("caught boom"));
        assert_eq!(PythiaError::catch_panic(|| Ok(7)).unwrap(), 7);
    }
}
