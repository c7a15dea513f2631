//! A fixed piece of work that measures how fast the host runs right now.
//!
//! On a shared host the same call can take half again as long from one
//! second to the next, and slow spells last from seconds to minutes. A run
//! times the yardstick before its window and after every call, and divides
//! each call's time by the mean of the two yardsticks around it. The
//! quotient cancels most of the host's speed, because the yardstick shares
//! the call's moment and runs the same kinds of code: ordered and hashed
//! maps with string keys, sorting, and a bytecode interpreter's dispatch
//! loop over a small memory.
//!
//! The yardstick belongs to the benchmark and calls nothing in the program,
//! so a change to the program cannot move it.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Keys inserted into the maps per measurement.
const KEYS: u64 = 3000;
/// Instructions the interpreter executes per measurement.
const STEPS: usize = 400_000;
/// Length of the interpreted program, and of its memory.
const CODE_LEN: usize = 4096;

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The yardstick, with the program and memory its interpreter reuses.
pub struct Yardstick {
    code: Vec<u8>,
    memory: Vec<u64>,
}

impl Default for Yardstick {
    fn default() -> Self {
        Yardstick {
            code: (0..CODE_LEN as u64).map(|i| (splitmix(i) % 12) as u8).collect(),
            memory: vec![0; CODE_LEN],
        }
    }
}

impl Yardstick {
    /// Do the fixed work once and return its wall-clock seconds (about
    /// 7 ms on a 2.1 GHz Xeon).
    pub fn measure(&mut self) -> f64 {
        let t0 = Instant::now();
        black_box(self.maps());
        black_box(self.interpret());
        t0.elapsed().as_secs_f64()
    }

    fn maps(&self) -> u64 {
        let mut x: u64 = 7;
        let mut tree: BTreeMap<String, u64> = BTreeMap::new();
        let mut hash: HashMap<u64, Vec<u32>> = HashMap::new();
        for k in 0..KEYS {
            x = splitmix(x);
            let key = format!("f{}.b{}.v{k}", x % 97, (x >> 8) % 31);
            let v = tree.entry(key).or_default();
            *v = v.wrapping_add(x);
            hash.entry(x % 1021).or_default().push(k as u32);
        }
        let mut keys: Vec<&String> = tree.keys().collect();
        keys.sort_by(|a, b| b.len().cmp(&a.len()).then(a.cmp(b)));
        let mut acc = 0u64;
        for k in keys.iter().step_by(3) {
            for (_, v) in tree.range::<String, _>(*k..).take(4) {
                acc = acc.wrapping_add(*v);
            }
        }
        for v in hash.values_mut() {
            v.sort_unstable_by(|a, b| b.cmp(a));
            acc ^= v.iter().fold(0u64, |s, &e| s.rotate_left(3) ^ u64::from(e));
        }
        acc
    }

    fn interpret(&mut self) -> [u64; 8] {
        let mut regs = [1u64; 8];
        let mut pc = 0usize;
        let mask = CODE_LEN - 1;
        for _ in 0..STEPS {
            let (a, b) = (pc & 7, (pc >> 3) & 7);
            match self.code[pc] {
                0 => regs[a] = regs[a].wrapping_add(regs[b]),
                1 => regs[a] = regs[a].wrapping_sub(regs[b] | 1),
                2 => regs[a] ^= regs[b].rotate_left(5),
                3 => regs[a] = regs[a].wrapping_mul(regs[b] | 3),
                4 => self.memory[regs[b] as usize & mask] = regs[a],
                5 => regs[a] = self.memory[regs[b] as usize & mask],
                6 if regs[a] & 1 == 0 => pc = (pc + (regs[b] as usize & 63)) & mask,
                7 => regs[a] = regs[a] >> 1 | 1,
                8 => regs[a] = regs[a].min(regs[b]).wrapping_add(9),
                9 => regs[a] = regs[a].max(regs[b]) >> 2,
                10 => regs[a] = splitmix(regs[a]),
                _ => regs[a] = u64::from(regs[a].count_ones()).wrapping_add(regs[b]),
            }
            pc = (pc + 1) & mask;
        }
        regs
    }
}
