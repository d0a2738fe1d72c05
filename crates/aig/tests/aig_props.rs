//! Property-based tests of the AIG substrate: structural hashing laws,
//! AIGER round-trips and damaged files, rebuild equivalence, and the
//! one-pass miter reader against reading both files and mitering them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;

use parsweep_aig::random::{random_aig, SplitMix64};
use parsweep_aig::{miter, read_aiger, read_miter, Aig, ReadMiterError};

/// The system allocator, recording the largest block each thread asks
/// for, so a test can show that a parse sized nothing from a header claim.
struct LargestBlock;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note_block(size: usize) {
    // `try_with`: the thread-local may be gone while a thread exits.
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: every call is forwarded unchanged to `System`; the only extra
// work is a store to a const-initialised thread-local, which allocates
// nothing.
unsafe impl GlobalAlloc for LargestBlock {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_block(layout.size());
        // SAFETY: the caller's contract for `alloc` is passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_block(new_size);
        // SAFETY: the caller's contract for `realloc` is passed on as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: LargestBlock = LargestBlock;

/// A network as an AIGER file may hold it, not as [`Aig`] would build
/// it: inputs are variables `1..=inputs`, AND `k` defines variable
/// `inputs + 1 + k`, and gates may repeat, fold (`x & !x`, `x & 1`,
/// `x & x`) or drive constant outputs.
#[derive(Clone, Debug)]
struct RawNet {
    inputs: u32,
    ands: Vec<(u32, u32)>,
    pos: Vec<u32>,
}

impl RawNet {
    /// `gates` more gates after `base`'s (if any), then `pos` outputs.
    fn random(inputs: u32, base: &[(u32, u32)], gates: usize, pos: usize, seed: u64) -> RawNet {
        let mut rng = SplitMix64::new(seed);
        let mut ands = base.to_vec();
        for _ in 0..gates {
            let v = inputs + 1 + ands.len() as u32;
            let x = rng.below(2 * v as usize) as u32;
            let gate = match rng.below(8) {
                0 if !ands.is_empty() => {
                    let (a, b) = ands[rng.below(ands.len())];
                    if rng.bool() {
                        (b, a)
                    } else {
                        (a, b)
                    }
                }
                1 => (x, x ^ 1),
                2 => (x, rng.below(2) as u32),
                3 => (x, x),
                _ => (x, rng.below(2 * v as usize) as u32),
            };
            ands.push(gate);
        }
        let top = 2 * (inputs + 1 + ands.len() as u32);
        let pos = (0..pos)
            .map(|_| match rng.below(6) {
                0 => rng.below(2) as u32,
                _ => rng.below(top as usize) as u32,
            })
            .collect();
        RawNet { inputs, ands, pos }
    }

    fn max_var(&self) -> u32 {
        self.inputs + self.ands.len() as u32
    }

    /// The binary file, and the offset at which its AND section starts.
    fn binary(&self) -> (Vec<u8>, usize) {
        let mut out = format!(
            "aig {} {} 0 {} {}\n",
            self.max_var(),
            self.inputs,
            self.pos.len(),
            self.ands.len()
        );
        for po in &self.pos {
            out += &format!("{po}\n");
        }
        let mut bytes = out.into_bytes();
        let body = bytes.len();
        for (k, &(a, b)) in self.ands.iter().enumerate() {
            let lhs = 2 * (self.inputs + 1 + k as u32);
            let (hi, lo) = (a.max(b), a.min(b));
            for mut delta in [lhs - hi, hi - lo] {
                while delta >= 0x80 {
                    bytes.push(delta as u8 | 0x80);
                    delta >>= 7;
                }
                bytes.push(delta as u8);
            }
        }
        (bytes, body)
    }

    /// The ASCII file with variable `v` numbered `v * stride`, its AND
    /// lines shuffled when `shuffle` is `Some(seed)`.
    fn ascii(&self, stride: u32, shuffle: Option<u64>) -> String {
        let code = |c: u32| ((c >> 1) * stride * 2) | (c & 1);
        let mut defs: Vec<String> = self
            .ands
            .iter()
            .enumerate()
            .map(|(k, &(a, b))| {
                let lhs = 2 * (self.inputs + 1 + k as u32);
                format!("{} {} {}", code(lhs), code(a), code(b))
            })
            .collect();
        if let Some(seed) = shuffle {
            let mut rng = SplitMix64::new(seed);
            for i in (1..defs.len()).rev() {
                defs.swap(i, rng.below(i + 1));
            }
        }
        let mut out = format!(
            "aag {} {} 0 {} {}\n",
            self.max_var() * stride,
            self.inputs,
            self.pos.len(),
            self.ands.len()
        );
        for v in 1..=self.inputs {
            out += &format!("{}\n", code(2 * v));
        }
        for &po in &self.pos {
            out += &format!("{}\n", code(po));
        }
        for d in defs {
            out += &d;
            out += "\n";
        }
        out
    }
}

/// True when two networks have the same nodes, PIs and POs.
fn same_network(a: &Aig, b: &Aig) -> bool {
    a.nodes() == b.nodes() && a.pis() == b.pis() && a.pos() == b.pos()
}

/// The two-step path: read each file, then miter the two networks.
fn two_step(left: &[u8], right: &[u8]) -> Aig {
    miter(&read_aiger(left).unwrap(), &read_aiger(right).unwrap()).unwrap()
}

#[test]
fn a_header_claiming_a_missing_body_is_an_error_and_reserves_nothing() {
    // 2^31 - 4 ANDs claimed, one present: sized from the claim, the parse
    // would ask for gigabytes.
    let binary = b"aig 2147483647 3 0 1 2147483644\n2\n\x02\x02".to_vec();
    let ascii = b"aag 2147483647 3 0 1 2147483644\n2\n4\n6\n8\n8 2 4\n".to_vec();
    let good = b"aag 3 3 0 1 0\n2\n4\n6\n2\n".to_vec();
    for claim in [binary, ascii] {
        LARGEST.with(|l| l.set(0));
        assert!(read_aiger(&claim[..]).is_err());
        assert!(matches!(
            read_miter(&good[..], &claim[..]),
            Err(ReadMiterError::Right(_))
        ));
        let largest = LARGEST.with(Cell::get);
        assert!(largest < 1 << 16, "a {largest}-byte block was allocated");
    }
}

fn eval_all(aig: &Aig, cases: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut rng = parsweep_aig::random::SplitMix64::new(seed);
    (0..cases)
        .map(|_| {
            let bits: Vec<bool> = (0..aig.num_pis()).map(|_| rng.bool()).collect();
            aig.eval(&bits)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_aigs_satisfy_invariants(
        pis in 1usize..10, ands in 0usize..120, pos in 1usize..6, seed in any::<u64>()
    ) {
        let aig = random_aig(pis, ands, pos, seed);
        prop_assert!(aig.check_invariants().is_ok());
        prop_assert_eq!(aig.num_pis(), pis);
        prop_assert_eq!(aig.num_pos(), pos);
    }

    #[test]
    fn clean_preserves_function(
        pis in 1usize..8, ands in 0usize..100, pos in 1usize..5, seed in any::<u64>()
    ) {
        let aig = random_aig(pis, ands, pos, seed);
        let cleaned = aig.clean();
        prop_assert!(cleaned.num_ands() <= aig.num_ands());
        prop_assert_eq!(eval_all(&aig, 32, seed ^ 1), eval_all(&cleaned, 32, seed ^ 1));
    }

    #[test]
    fn double_contains_two_copies(
        pis in 1usize..6, ands in 0usize..60, pos in 1usize..4, seed in any::<u64>()
    ) {
        let aig = random_aig(pis, ands, pos, seed);
        let d = aig.double();
        prop_assert_eq!(d.num_pis(), 2 * pis);
        prop_assert_eq!(d.num_pos(), 2 * pos);
        let mut rng = parsweep_aig::random::SplitMix64::new(seed ^ 2);
        for _ in 0..16 {
            let half: Vec<bool> = (0..pis).map(|_| rng.bool()).collect();
            let mut both = half.clone();
            both.extend(half.iter().copied());
            let out = d.eval(&both);
            let single = aig.eval(&half);
            prop_assert_eq!(&out[..pos], &single[..]);
            prop_assert_eq!(&out[pos..], &single[..]);
        }
    }

    #[test]
    fn ascii_aiger_roundtrip_preserves_function(
        pis in 1usize..8, ands in 0usize..80, pos in 1usize..4, seed in any::<u64>()
    ) {
        let aig = random_aig(pis, ands, pos, seed);
        let mut buf = Vec::new();
        parsweep_aig::aiger::write_ascii(&aig, &mut buf).unwrap();
        let back = read_aiger(&buf[..]).unwrap();
        prop_assert_eq!(eval_all(&aig, 32, seed ^ 3), eval_all(&back, 32, seed ^ 3));
    }

    #[test]
    fn binary_aiger_roundtrip_preserves_structure(
        pis in 1usize..8, ands in 0usize..80, pos in 1usize..4, seed in any::<u64>()
    ) {
        let aig = random_aig(pis, ands, pos, seed);
        let mut buf = Vec::new();
        parsweep_aig::aiger::write_binary(&aig, &mut buf).unwrap();
        let back = read_aiger(&buf[..]).unwrap();
        prop_assert_eq!(back.num_pis(), aig.num_pis());
        prop_assert_eq!(back.num_ands(), aig.num_ands());
        prop_assert_eq!(eval_all(&aig, 32, seed ^ 4), eval_all(&back, 32, seed ^ 4));
    }

    #[test]
    fn damaged_aiger_is_an_error_never_a_panic(
        pis in 1usize..6, ands in 0usize..40, pos in 1usize..4, seed in any::<u64>()
    ) {
        let aig = random_aig(pis, ands, pos, seed);
        let mut rng = parsweep_aig::random::SplitMix64::new(seed ^ 5);
        let mut files = [Vec::new(), Vec::new()];
        parsweep_aig::aiger::write_ascii(&aig, &mut files[0]).unwrap();
        parsweep_aig::aiger::write_binary(&aig, &mut files[1]).unwrap();
        for file in &files {
            let parses = |bytes: &[u8]| std::panic::catch_unwind(|| read_aiger(bytes)).is_ok();
            for len in 0..file.len() {
                prop_assert!(parses(&file[..len]), "panicked on a {len}-byte prefix");
            }
            for _ in 0..32 {
                let mut damaged = file.clone();
                let at = rng.below(damaged.len());
                damaged[at] = rng.next_u64() as u8;
                prop_assert!(parses(&damaged), "panicked on byte {at} set to {}", damaged[at]);
            }
        }
    }

    #[test]
    fn strash_and_is_commutative_and_idempotent(seed in any::<u64>()) {
        let mut aig = Aig::new();
        let xs = aig.add_inputs(4);
        let mut rng = parsweep_aig::random::SplitMix64::new(seed);
        let a = xs[rng.below(4)].xor(rng.bool());
        let b = xs[rng.below(4)].xor(rng.bool());
        let ab = aig.and(a, b);
        let ba = aig.and(b, a);
        prop_assert_eq!(ab, ba);
        let count = aig.num_ands();
        let again = aig.and(a, b);
        prop_assert_eq!(ab, again);
        prop_assert_eq!(aig.num_ands(), count);
    }

    #[test]
    fn verilog_export_is_well_formed(
        pis in 1usize..7, ands in 1usize..60, pos in 1usize..4, seed in any::<u64>()
    ) {
        let aig = random_aig(pis, ands, pos, seed);
        let v = parsweep_aig::verilog::to_verilog_string(&aig, "dut");
        prop_assert!(v.starts_with("// generated by parsweep"));
        prop_assert!(v.contains("module dut ("));
        prop_assert!(v.trim_end().ends_with("endmodule"));
        // One gate instance per AND node of the *reachable* network.
        prop_assert_eq!(v.matches("  and u_and").count(), aig.num_ands());
        // One buf per PO.
        prop_assert_eq!(v.matches("  buf u_po").count(), aig.num_pos());
    }

    #[test]
    fn cofactor_shannon_expansion(
        pis in 2usize..7, ands in 1usize..60, pos in 1usize..4, seed in any::<u64>()
    ) {
        let aig = random_aig(pis, ands, pos, seed);
        let c0 = aig.cofactor_pi(0, false);
        let c1 = aig.cofactor_pi(0, true);
        prop_assert_eq!(c0.num_pis(), pis - 1);
        let mut rng = parsweep_aig::random::SplitMix64::new(seed ^ 6);
        for _ in 0..16 {
            let rest: Vec<bool> = (0..pis - 1).map(|_| rng.bool()).collect();
            let mut full0 = vec![false];
            full0.extend(rest.iter().copied());
            let mut full1 = vec![true];
            full1.extend(rest.iter().copied());
            prop_assert_eq!(c0.eval(&rest), aig.eval(&full0));
            prop_assert_eq!(c1.eval(&rest), aig.eval(&full1));
        }
    }

    #[test]
    fn miter_of_identical_networks_is_proved(
        pis in 1usize..8, ands in 0usize..80, pos in 1usize..4, seed in any::<u64>()
    ) {
        let aig = random_aig(pis, ands, pos, seed);
        let m = parsweep_aig::miter(&aig, &aig).unwrap();
        prop_assert!(parsweep_aig::is_proved(&m));
    }

    #[test]
    fn read_miter_builds_the_two_step_miter_node_for_node(
        inputs in 1u32..7, gates in 0usize..40, more in 0usize..40, pos in 1usize..5,
        stride in 1u32..4, seed in any::<u64>()
    ) {
        let left = RawNet::random(inputs, &[], gates, pos, seed);
        // The right side repeats a prefix of the left's gates, so its
        // gates hash against the left's in the miter.
        let shared = &left.ands[..left.ands.len() / 2];
        let right = RawNet::random(inputs, shared, more, pos, seed ^ 7);
        let (left_bin, _) = left.binary();
        let (right_bin, _) = right.binary();
        let encodings: [(Vec<u8>, Vec<u8>); 4] = [
            (left_bin.clone(), right_bin.clone()),
            (left.ascii(stride, None).into(), right.ascii(stride, None).into()),
            (left.ascii(stride, Some(seed)).into(), right.ascii(stride, Some(!seed)).into()),
            (left_bin, right.ascii(stride, Some(seed)).into()),
        ];
        let mut built = Vec::new();
        for (l, r) in &encodings {
            let m = read_miter(&l[..], &r[..]).unwrap();
            prop_assert!(m.check_invariants().is_ok());
            prop_assert!(same_network(&m, &two_step(l, r)));
            built.push(m);
        }
        // Sparse numbering in file order reads to the binary file's network.
        prop_assert!(same_network(&built[0], &built[1]));
        // A shuffled file is the same function.
        let mut rng = SplitMix64::new(seed ^ 9);
        for _ in 0..16 {
            let bits: Vec<bool> = (0..inputs).map(|_| rng.bool()).collect();
            prop_assert_eq!(built[2].eval(&bits), built[0].eval(&bits));
            prop_assert_eq!(built[3].eval(&bits), built[0].eval(&bits));
        }
    }

    #[test]
    fn a_truncated_right_file_is_an_error_never_a_panic(
        inputs in 1u32..6, gates in 1usize..30, pos in 1usize..4, seed in any::<u64>()
    ) {
        let left = RawNet::random(inputs, &[], gates, pos, seed);
        let right = RawNet::random(inputs, &left.ands[..1], gates, pos, seed ^ 11);
        let (left_bin, _) = left.binary();
        let (right_bin, and_section) = right.binary();
        let right_ascii = right.ascii(2, Some(seed)).into_bytes();
        let read = |r: &[u8]| std::panic::catch_unwind(|| read_miter(&left_bin[..], r).err());
        for len in 0..right_bin.len() {
            let err = read(&right_bin[..len]);
            prop_assert!(err.is_ok(), "panicked on a {len}-byte binary prefix");
            if len >= and_section {
                prop_assert!(
                    matches!(err, Ok(Some(ReadMiterError::Right(_)))),
                    "a {len}-byte binary prefix cuts the AND section"
                );
            }
        }
        let last_line = right_ascii[..right_ascii.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |k| k + 1);
        for len in 0..right_ascii.len() {
            let err = read(&right_ascii[..len]);
            prop_assert!(err.is_ok(), "panicked on a {len}-byte ASCII prefix");
            if len < last_line && (len == 0 || right_ascii[len - 1] == b'\n') {
                prop_assert!(
                    matches!(err, Ok(Some(ReadMiterError::Right(_)))),
                    "a {len}-byte ASCII prefix drops whole lines"
                );
            }
        }
    }
}
