//! The intrinsic (library-function) catalogue, including the six *input
//! channel* categories from Definition 2.1 of the paper.
//!
//! An **input channel** is any library function that can move external data
//! into program memory (or, for `print`-class functions, interact with it in
//! a way that has historically been exploitable, e.g. format strings). The
//! paper's six categories are `print`, `scan`, `move/copy`, `get`, `put` and
//! `map`; attackers exploit the memory-*writing* channels to overflow into
//! branch variables.

use std::fmt;
use std::str::FromStr;

/// Category of an input-channel function (paper §2.6, Definition 2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IcCategory {
    /// Formatted output (`printf`, `fprintf`, `puts`, ...).
    Print,
    /// Formatted input (`scanf`, `sscanf`, ...).
    Scan,
    /// Bulk memory movement (`memcpy`, `memmove`, `strcpy`, `strncpy`, ...).
    MoveCopy,
    /// Line/stream readers (`fgets`, `gets`, `read`, ...).
    Get,
    /// Appending writers (`strcat`, `strncat`, `sprintf`, ...).
    Put,
    /// Address-space mapping (`mmap`).
    Map,
}

impl IcCategory {
    /// All categories, in a stable order.
    pub const ALL: [IcCategory; 6] = [
        IcCategory::Print,
        IcCategory::Scan,
        IcCategory::MoveCopy,
        IcCategory::Get,
        IcCategory::Put,
        IcCategory::Map,
    ];

    /// Whether this category of channel writes attacker-influenced bytes
    /// into program memory (and can therefore be the source of an overflow).
    pub fn writes_memory(self) -> bool {
        !matches!(self, IcCategory::Print)
    }
}

impl fmt::Display for IcCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            IcCategory::Print => "print",
            IcCategory::Scan => "scan",
            IcCategory::MoveCopy => "move/copy",
            IcCategory::Get => "get",
            IcCategory::Put => "put",
            IcCategory::Map => "map",
        };
        f.write_str(s)
    }
}

/// A known library function modelled by the VM.
///
/// Besides input channels this includes allocation, string helpers and the
/// runtime-support calls the instrumentation passes insert
/// (`secure_malloc`, `pythia_random`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
#[allow(missing_docs)] // variants are the canonical C function names
pub enum Intrinsic {
    // --- print ---
    Printf,
    Fprintf,
    Puts,
    // --- scan ---
    Scanf,
    Sscanf,
    // --- move/copy ---
    Memcpy,
    Memmove,
    Strcpy,
    Strncpy,
    /// ProFTPd's safe-ish string copy (Listing 2).
    Sstrncpy,
    // --- get ---
    Fgets,
    Gets,
    Read,
    // --- put ---
    Strcat,
    Strncat,
    Sprintf,
    // --- map ---
    Mmap,
    // --- non-IC library calls ---
    Malloc,
    Calloc,
    Realloc,
    Free,
    Strlen,
    Strcmp,
    Strncmp,
    Memset,
    Exit,
    Abort,
    // --- runtime support inserted by instrumentation ---
    /// Allocate from the *isolated* heap section (Pythia, Alg. 4).
    SecureMalloc,
    /// Fresh random 64-bit canary value (Pythia, Alg. 3).
    PythiaRandom,
    /// One-time heap sectioning setup call (paper §6.1: ~"23ns" class cost).
    HeapSectionInit,
}

impl Intrinsic {
    /// All intrinsics, in a stable order.
    pub const ALL: [Intrinsic; 29] = [
        Intrinsic::Printf,
        Intrinsic::Fprintf,
        Intrinsic::Puts,
        Intrinsic::Scanf,
        Intrinsic::Sscanf,
        Intrinsic::Memcpy,
        Intrinsic::Memmove,
        Intrinsic::Strcpy,
        Intrinsic::Strncpy,
        Intrinsic::Sstrncpy,
        Intrinsic::Fgets,
        Intrinsic::Gets,
        Intrinsic::Read,
        Intrinsic::Strcat,
        Intrinsic::Strncat,
        Intrinsic::Sprintf,
        Intrinsic::Mmap,
        Intrinsic::Malloc,
        Intrinsic::Calloc,
        Intrinsic::Realloc,
        Intrinsic::Free,
        Intrinsic::Strlen,
        Intrinsic::Strcmp,
        Intrinsic::Strncmp,
        Intrinsic::Memset,
        Intrinsic::Exit,
        Intrinsic::Abort,
        Intrinsic::SecureMalloc,
        Intrinsic::PythiaRandom,
    ];

    /// Canonical (C-library) name of the function.
    pub fn name(self) -> &'static str {
        match self {
            Intrinsic::Printf => "printf",
            Intrinsic::Fprintf => "fprintf",
            Intrinsic::Puts => "puts",
            Intrinsic::Scanf => "scanf",
            Intrinsic::Sscanf => "sscanf",
            Intrinsic::Memcpy => "memcpy",
            Intrinsic::Memmove => "memmove",
            Intrinsic::Strcpy => "strcpy",
            Intrinsic::Strncpy => "strncpy",
            Intrinsic::Sstrncpy => "sstrncpy",
            Intrinsic::Fgets => "fgets",
            Intrinsic::Gets => "gets",
            Intrinsic::Read => "read",
            Intrinsic::Strcat => "strcat",
            Intrinsic::Strncat => "strncat",
            Intrinsic::Sprintf => "sprintf",
            Intrinsic::Mmap => "mmap",
            Intrinsic::Malloc => "malloc",
            Intrinsic::Calloc => "calloc",
            Intrinsic::Realloc => "realloc",
            Intrinsic::Free => "free",
            Intrinsic::Strlen => "strlen",
            Intrinsic::Strcmp => "strcmp",
            Intrinsic::Strncmp => "strncmp",
            Intrinsic::Memset => "memset",
            Intrinsic::Exit => "exit",
            Intrinsic::Abort => "abort",
            Intrinsic::SecureMalloc => "secure_malloc",
            Intrinsic::PythiaRandom => "pythia_random",
            Intrinsic::HeapSectionInit => "heap_section_init",
        }
    }

    /// The input-channel category, or `None` for non-IC intrinsics.
    pub fn ic_category(self) -> Option<IcCategory> {
        use IcCategory::*;
        match self {
            Intrinsic::Printf | Intrinsic::Fprintf | Intrinsic::Puts => Some(Print),
            Intrinsic::Scanf | Intrinsic::Sscanf => Some(Scan),
            Intrinsic::Memcpy
            | Intrinsic::Memmove
            | Intrinsic::Strcpy
            | Intrinsic::Strncpy
            | Intrinsic::Sstrncpy => Some(MoveCopy),
            Intrinsic::Fgets | Intrinsic::Gets | Intrinsic::Read => Some(Get),
            Intrinsic::Strcat | Intrinsic::Strncat | Intrinsic::Sprintf => Some(Put),
            Intrinsic::Mmap => Some(Map),
            _ => None,
        }
    }

    /// Whether this intrinsic is an input channel at all.
    pub fn is_input_channel(self) -> bool {
        self.ic_category().is_some()
    }

    /// Whether a call to this intrinsic can write attacker-influenced bytes
    /// to the memory reachable from its arguments.
    pub fn writes_memory(self) -> bool {
        match self.ic_category() {
            Some(c) => c.writes_memory(),
            None => matches!(self, Intrinsic::Memset),
        }
    }

    /// Index (position) of the *destination* pointer argument for writing
    /// channels, i.e. the argument whose pointee an overflow corrupts.
    pub fn dest_arg(self) -> Option<usize> {
        match self {
            Intrinsic::Memcpy
            | Intrinsic::Memmove
            | Intrinsic::Strcpy
            | Intrinsic::Strncpy
            | Intrinsic::Sstrncpy
            | Intrinsic::Fgets
            | Intrinsic::Gets
            | Intrinsic::Strcat
            | Intrinsic::Strncat
            | Intrinsic::Sprintf
            | Intrinsic::Memset => Some(0),
            // scanf("%d", &x): all pointer args after the format are sinks;
            // we model the first.
            Intrinsic::Scanf => Some(1),
            Intrinsic::Sscanf => Some(2),
            Intrinsic::Read => Some(1),
            _ => None,
        }
    }

    /// The call-shape contract of this intrinsic, as the verifier and the
    /// VM agree on it: required argument count, whether extra (variadic)
    /// arguments are allowed, and which positions must be pointer-typed.
    pub fn signature(self) -> IntrinsicSignature {
        let sig = |min_args, variadic, ptr_args| IntrinsicSignature {
            min_args,
            variadic,
            ptr_args,
        };
        match self {
            // printf(fmt, ...): the format is a pointer, the rest free.
            Intrinsic::Printf => sig(1, true, &[0]),
            // fprintf(stream, fmt, ...): the stream is modelled as an
            // opaque scalar, only the format must point somewhere.
            Intrinsic::Fprintf => sig(2, true, &[1]),
            Intrinsic::Puts => sig(1, false, &[0]),
            // scanf(fmt, dst, ...): at least one sink pointer.
            Intrinsic::Scanf => sig(2, true, &[0, 1]),
            // sscanf(src, fmt, dst, ...).
            Intrinsic::Sscanf => sig(3, true, &[0, 1, 2]),
            Intrinsic::Memcpy | Intrinsic::Memmove => sig(3, false, &[0, 1]),
            Intrinsic::Strcpy => sig(2, false, &[0, 1]),
            Intrinsic::Strncpy | Intrinsic::Sstrncpy => sig(3, false, &[0, 1]),
            Intrinsic::Fgets => sig(2, false, &[0]),
            Intrinsic::Gets => sig(1, false, &[0]),
            // read(fd, buf, len): the fd is a scalar.
            Intrinsic::Read => sig(3, false, &[1]),
            Intrinsic::Strcat => sig(2, false, &[0, 1]),
            Intrinsic::Strncat => sig(3, false, &[0, 1]),
            // sprintf(dst, fmt?, ...): callers in this IR sometimes fold
            // the format away, so only the destination is required.
            Intrinsic::Sprintf => sig(1, true, &[0]),
            Intrinsic::Mmap => sig(1, false, &[]),
            Intrinsic::Malloc | Intrinsic::SecureMalloc => sig(1, false, &[]),
            Intrinsic::Calloc => sig(2, false, &[]),
            Intrinsic::Realloc => sig(2, false, &[0]),
            Intrinsic::Free => sig(1, false, &[0]),
            Intrinsic::Strlen => sig(1, false, &[0]),
            Intrinsic::Strcmp => sig(2, false, &[0, 1]),
            Intrinsic::Strncmp => sig(3, false, &[0, 1]),
            Intrinsic::Memset => sig(3, false, &[0]),
            Intrinsic::Exit => sig(1, false, &[]),
            Intrinsic::Abort | Intrinsic::PythiaRandom | Intrinsic::HeapSectionInit => {
                sig(0, false, &[])
            }
        }
    }

    /// Whether this intrinsic allocates heap memory and returns a pointer.
    pub fn is_allocator(self) -> bool {
        matches!(
            self,
            Intrinsic::Malloc
                | Intrinsic::Calloc
                | Intrinsic::Realloc
                | Intrinsic::Mmap
                | Intrinsic::SecureMalloc
        )
    }
}

/// The call-shape contract of an intrinsic (see [`Intrinsic::signature`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntrinsicSignature {
    /// Required argument count (exact unless `variadic`).
    pub min_args: usize,
    /// Whether arguments beyond `min_args` are allowed.
    pub variadic: bool,
    /// Argument positions that must be pointer-typed.
    pub ptr_args: &'static [usize],
}

impl IntrinsicSignature {
    /// Whether a call with `n` arguments satisfies the arity contract.
    pub fn accepts_arity(&self, n: usize) -> bool {
        if self.variadic {
            n >= self.min_args
        } else {
            n == self.min_args
        }
    }
}

impl fmt::Display for Intrinsic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown intrinsic name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseIntrinsicError(pub String);

impl fmt::Display for ParseIntrinsicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown intrinsic `{}`", self.0)
    }
}

impl std::error::Error for ParseIntrinsicError {}

impl FromStr for Intrinsic {
    type Err = ParseIntrinsicError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        for i in Intrinsic::ALL {
            if i.name() == s {
                return Ok(i);
            }
        }
        if s == Intrinsic::HeapSectionInit.name() {
            return Ok(Intrinsic::HeapSectionInit);
        }
        Err(ParseIntrinsicError(s.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories_match_paper() {
        assert_eq!(Intrinsic::Printf.ic_category(), Some(IcCategory::Print));
        assert_eq!(Intrinsic::Scanf.ic_category(), Some(IcCategory::Scan));
        assert_eq!(Intrinsic::Memcpy.ic_category(), Some(IcCategory::MoveCopy));
        assert_eq!(Intrinsic::Strcpy.ic_category(), Some(IcCategory::MoveCopy));
        assert_eq!(Intrinsic::Fgets.ic_category(), Some(IcCategory::Get));
        assert_eq!(Intrinsic::Strcat.ic_category(), Some(IcCategory::Put));
        assert_eq!(Intrinsic::Mmap.ic_category(), Some(IcCategory::Map));
        assert_eq!(Intrinsic::Malloc.ic_category(), None);
    }

    #[test]
    fn print_channels_do_not_write() {
        assert!(!Intrinsic::Printf.writes_memory());
        assert!(Intrinsic::Strcpy.writes_memory());
        assert!(Intrinsic::Scanf.writes_memory());
        assert!(Intrinsic::Memset.writes_memory());
        assert!(!Intrinsic::Strlen.writes_memory());
    }

    #[test]
    fn dest_args() {
        assert_eq!(Intrinsic::Strcpy.dest_arg(), Some(0));
        assert_eq!(Intrinsic::Scanf.dest_arg(), Some(1));
        assert_eq!(Intrinsic::Printf.dest_arg(), None);
    }

    #[test]
    fn name_round_trip() {
        for i in Intrinsic::ALL {
            assert_eq!(i.name().parse::<Intrinsic>().unwrap(), i);
        }
        assert!("not_a_function".parse::<Intrinsic>().is_err());
    }

    #[test]
    fn signatures_cover_every_intrinsic() {
        for i in Intrinsic::ALL
            .into_iter()
            .chain([Intrinsic::HeapSectionInit])
        {
            let sig = i.signature();
            assert!(
                sig.ptr_args.iter().all(|&p| p < sig.min_args),
                "{i}: pointer positions must be within the required args"
            );
            assert!(sig.accepts_arity(sig.min_args));
            assert_eq!(sig.accepts_arity(sig.min_args + 1), sig.variadic);
            if let Some(d) = i.dest_arg() {
                assert!(
                    sig.ptr_args.contains(&d),
                    "{i}: the destination argument must be required to be a pointer"
                );
            }
        }
    }

    #[test]
    fn known_signatures() {
        assert_eq!(Intrinsic::Gets.signature().min_args, 1);
        assert!(!Intrinsic::Gets.signature().variadic);
        assert_eq!(Intrinsic::Memcpy.signature().min_args, 3);
        assert_eq!(Intrinsic::Memcpy.signature().ptr_args, &[0, 1]);
        assert!(Intrinsic::Printf.signature().accepts_arity(4));
        assert!(!Intrinsic::Memcpy.signature().accepts_arity(2));
    }

    #[test]
    fn allocators() {
        assert!(Intrinsic::Malloc.is_allocator());
        assert!(Intrinsic::SecureMalloc.is_allocator());
        assert!(!Intrinsic::Free.is_allocator());
    }
}
