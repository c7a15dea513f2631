//! Memory layout of stack frames and globals.
//!
//! The VM materializes this layout and the static analyses reason about
//! it (overflow reach compares byte offsets of neighbouring objects), so
//! both read it from here. The rule:
//!
//! - objects are placed in declaration order: allocas in entry-block
//!   order, globals in id order;
//! - each starts at the next multiple of `max(align, 8)`;
//! - each occupies `max(elem size, 1) × max(count, 1)` bytes.

use crate::{Function, Inst, Module, Ty, ValueId};

/// One placed object: where it starts and how many bytes it occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// Start offset (frames) or absolute address (globals).
    pub start: u64,
    /// Object size in bytes.
    pub size: u64,
}

impl Slot {
    /// First byte past the object.
    pub fn end(&self) -> u64 {
        self.start.saturating_add(self.size)
    }
}

/// Bytes an object of `count` elements of type `elem` occupies.
pub fn object_size(elem: &Ty, count: u32) -> u64 {
    elem.size().max(1).saturating_mul(u64::from(count.max(1)))
}

/// Place an object after `cursor` and advance the cursor past it.
fn place(cursor: &mut u64, elem: &Ty, count: u32) -> Slot {
    let align = elem.align().max(8);
    let start = cursor.div_ceil(align).saturating_mul(align);
    let slot = Slot {
        start,
        size: object_size(elem, count),
    };
    *cursor = slot.end();
    slot
}

/// The frame of `f`: every entry-block alloca with its slot (offsets
/// from the frame base), in entry-block order.
pub fn frame_slots(f: &Function) -> Vec<(ValueId, Slot)> {
    let mut cursor = 0u64;
    f.allocas()
        .into_iter()
        .filter_map(|a| match f.inst(a) {
            Some(Inst::Alloca { elem, count }) => Some((a, place(&mut cursor, elem, *count))),
            _ => None,
        })
        .collect()
}

/// Every global of `m` in id order, placed upward from address `base`.
pub fn global_slots(m: &Module, base: u64) -> Vec<Slot> {
    let mut cursor = base;
    m.global_ids()
        .map(|g| place(&mut cursor, &m.global(g).ty, 1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FunctionBuilder, Global, GlobalInit};

    fn spans(slots: impl IntoIterator<Item = Slot>) -> Vec<(u64, u64)> {
        slots.into_iter().map(|s| (s.start, s.size)).collect()
    }

    #[test]
    fn mixed_alignment_allocas_pack_in_entry_order() {
        let mut b = FunctionBuilder::new("f", vec![], Ty::Void);
        let allocas = [
            b.alloca(Ty::I8),
            b.alloca_n(Ty::I32, 3),
            b.alloca(Ty::array(Ty::I64, 2)),
            b.alloca(Ty::I16),
            b.alloca(Ty::strukt(vec![])),
        ];
        b.ret(None);
        let slots = frame_slots(&b.finish());
        let order: Vec<ValueId> = slots.iter().map(|(a, _)| *a).collect();
        assert_eq!(order, allocas);
        // A 1-byte i8; 3 × i32 = 12 bytes, 8-aligned despite the
        // element's 4; 2 × i64; an i16; a zero-sized struct still
        // occupies one byte.
        assert_eq!(
            spans(slots.into_iter().map(|(_, s)| s)),
            [(0, 1), (8, 12), (24, 16), (40, 2), (48, 1)]
        );
    }

    #[test]
    fn globals_are_placed_upward_from_the_base_in_id_order() {
        let mut m = Module::new("m");
        let tys = [Ty::I8, Ty::array(Ty::I32, 5), Ty::array(Ty::I8, 3), Ty::I64];
        for (i, ty) in tys.into_iter().enumerate() {
            let (name, init, is_const) = (format!("g{i}"), GlobalInit::Zero, false);
            m.add_global(Global {
                name,
                ty,
                init,
                is_const,
            });
        }
        // An unaligned base is rounded up before the first global.
        assert_eq!(
            spans(global_slots(&m, 0x1003)),
            [(0x1008, 1), (0x1010, 20), (0x1028, 3), (0x1030, 8)]
        );
    }
}
