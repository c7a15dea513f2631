//! Modules and globals.

use crate::function::Function;
use crate::instr::{FuncId, GlobalId};
use crate::types::Ty;

/// Initializer of a module global.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GlobalInit {
    /// Zero-initialized storage.
    Zero,
    /// Raw bytes (must match the global's type size).
    Bytes(Vec<u8>),
    /// A NUL-terminated string; the global's type should be `[n x i8]` with
    /// `n == len + 1`.
    Str(String),
}

/// A module-level global variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Global {
    /// Symbol name.
    pub name: String,
    /// Storage type.
    pub ty: Ty,
    /// Initial contents.
    pub init: GlobalInit,
    /// Whether the storage is read-only.
    pub is_const: bool,
}

impl Global {
    /// Size in bytes of the global's storage.
    pub fn size(&self) -> u64 {
        self.ty.size()
    }

    /// Materialize the initializer bytes (zero-padded/truncated to size).
    pub fn init_bytes(&self) -> Vec<u8> {
        let size = self.size() as usize;
        let mut out = vec![0u8; size];
        match &self.init {
            GlobalInit::Zero => {}
            GlobalInit::Bytes(b) => {
                let n = b.len().min(size);
                out[..n].copy_from_slice(&b[..n]);
            }
            GlobalInit::Str(s) => {
                let b = s.as_bytes();
                let n = b.len().min(size.saturating_sub(1));
                out[..n].copy_from_slice(&b[..n]);
            }
        }
        out
    }
}

/// A compilation unit: functions plus globals.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Module {
    /// Module (program) name.
    pub name: String,
    functions: Vec<Function>,
    globals: Vec<Global>,
}

impl Module {
    /// Create an empty module.
    pub fn new(name: impl Into<String>) -> Self {
        Module {
            name: name.into(),
            functions: Vec::new(),
            globals: Vec::new(),
        }
    }

    /// Add a function, returning its id.
    pub fn add_function(&mut self, f: Function) -> FuncId {
        let id = FuncId(self.functions.len() as u32);
        self.functions.push(f);
        id
    }

    /// Add a global, returning its id.
    pub fn add_global(&mut self, g: Global) -> GlobalId {
        let id = GlobalId(self.globals.len() as u32);
        self.globals.push(g);
        id
    }

    /// Convenience: add a NUL-terminated string constant global.
    pub fn add_str_global(&mut self, name: impl Into<String>, s: &str) -> GlobalId {
        self.add_global(Global {
            name: name.into(),
            ty: Ty::array(Ty::I8, s.len() as u32 + 1),
            init: GlobalInit::Str(s.to_owned()),
            is_const: true,
        })
    }

    /// The function with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.functions[id.0 as usize]
    }

    /// Mutable access to function `id`.
    pub fn func_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.functions[id.0 as usize]
    }

    /// Global with id `id`.
    pub fn global(&self, id: GlobalId) -> &Global {
        &self.globals[id.0 as usize]
    }

    /// All function ids.
    pub fn func_ids(&self) -> impl Iterator<Item = FuncId> + '_ {
        (0..self.functions.len() as u32).map(FuncId)
    }

    /// All global ids.
    pub fn global_ids(&self) -> impl Iterator<Item = GlobalId> + '_ {
        (0..self.globals.len() as u32).map(GlobalId)
    }

    /// Functions slice.
    pub fn functions(&self) -> &[Function] {
        &self.functions
    }

    /// Globals slice.
    pub fn globals(&self) -> &[Global] {
        &self.globals
    }

    /// Look a function up by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.functions
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId(i as u32))
    }

    /// Look a global up by name.
    pub fn global_by_name(&self, name: &str) -> Option<GlobalId> {
        self.globals
            .iter()
            .position(|g| g.name == name)
            .map(|i| GlobalId(i as u32))
    }

    /// Total static instruction count over all functions — the paper's
    /// "binary size" proxy (Fig. 4b).
    pub fn num_insts(&self) -> usize {
        self.functions.iter().map(Function::num_insts).sum()
    }

    /// Total number of values across functions (≈ "program variables").
    pub fn num_values(&self) -> usize {
        self.functions.iter().map(Function::num_values).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_name() {
        let mut m = Module::new("m");
        let f = m.add_function(Function::new("main", vec![], Ty::I64));
        let g = m.add_function(Function::new("helper", vec![Ty::I64], Ty::Void));
        assert_eq!(m.func_by_name("main"), Some(f));
        assert_eq!(m.func_by_name("helper"), Some(g));
        assert_eq!(m.func_by_name("nope"), None);
    }

    #[test]
    fn str_global_bytes_nul_terminated() {
        let mut m = Module::new("m");
        let g = m.add_str_global("msg", "admin");
        let gl = m.global(g);
        assert_eq!(gl.size(), 6);
        assert_eq!(gl.init_bytes(), b"admin\0");
        assert_eq!(m.global_by_name("msg"), Some(g));
    }

    #[test]
    fn bytes_initializer_truncates_and_pads() {
        let g = Global {
            name: "g".into(),
            ty: Ty::array(Ty::I8, 4),
            init: GlobalInit::Bytes(vec![1, 2]),
            is_const: false,
        };
        assert_eq!(g.init_bytes(), vec![1, 2, 0, 0]);
        let g2 = Global {
            name: "g2".into(),
            ty: Ty::array(Ty::I8, 2),
            init: GlobalInit::Bytes(vec![1, 2, 3, 4]),
            is_const: false,
        };
        assert_eq!(g2.init_bytes(), vec![1, 2]);
    }

    #[test]
    fn module_wide_counts() {
        let mut m = Module::new("m");
        m.add_function(Function::new("a", vec![Ty::I64], Ty::Void));
        m.add_function(Function::new("b", vec![], Ty::Void));
        assert_eq!(m.num_insts(), 0);
        assert_eq!(m.num_values(), 1); // one argument value
    }
}
