//! Observability don't-care (ODC) masks and exact replaceability
//! checking — don't-care-aware resimulation in the shape of rrr's
//! `DcSimulator`.
//!
//! A node deep inside the miter is rarely observable at every output for
//! every pattern: reconvergence and controlling fanin values mask many
//! of its value bits. [`OdcMasks`] computes an approximate per-node
//! *care* mask over the simulated patterns by pulling observability
//! down the level structure from the miter's output cones (one declared
//! kernel launch per level, descending). Class refinement can then
//! ignore masked bits: a candidate pair whose fresh signatures differ
//! only in don't-care bits of the would-be-substituted member is *not*
//! discarded but recorded (see [`crate::refine_classes`]) and
//! handed to [`check_replaceable`], an exact bounded proof that
//! replacing the member with its representative preserves every output
//! function. The masks are a filter, never a proof: merges only happen
//! when the exact check succeeds.

use std::collections::HashMap;

use parsweep_aig::{Aig, Node, Var};
use parsweep_par::{Effect, EffectTable, Executor, Pattern, PooledBuf};

use crate::partial::Signatures;
use crate::tt::{projection_word, word_len};

/// Knobs of the ODC layer (engine-level `None` disables it entirely).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OdcConfig {
    /// Maximum ODC candidate pairs examined by the exact replaceability
    /// check per refinement round.
    pub check_limit: usize,
    /// Maximum TFO cone size explored around a candidate member; larger
    /// cones give up (the check must stay cheap).
    pub cone_cap: usize,
    /// Maximum primary-input support of the exhaustively evaluated
    /// region (`2^max_inputs` assignments, 64 per word).
    pub max_inputs: usize,
    /// Exempt proven-replaceable substitutions from dirty-cone resim
    /// taint: their TFO keeps memoized words (stale only in
    /// unobservable bits, which output scans never read).
    pub resim_skip: bool,
}

impl Default for OdcConfig {
    fn default() -> Self {
        OdcConfig {
            check_limit: 8,
            cone_cap: 32,
            max_inputs: 12,
            resim_skip: true,
        }
    }
}

/// A split pair whose disagreement was entirely masked by the member's
/// don't-care bits: `member`'s fresh words differ from `repr`'s only
/// where flipping `member` cannot reach an output. Produced by
/// [`crate::refine_classes`]; merged only after [`check_replaceable`]
/// proves the substitution `member := repr ^ complement` exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OdcCandidate {
    /// The class representative (minimum id — the substitution target).
    pub repr: Var,
    /// The member that split away on don't-care bits only.
    pub member: Var,
    /// Relative phase of the pair under the base table.
    pub complement: bool,
}

/// Hard bound on the exhaustively re-evaluated region, independent of
/// its PI support (keeps a pathological deep-but-narrow cone cheap).
const REGION_CAP: usize = 2048;

/// Forward fanout edges of an AIG in CSR form ([`Aig`] itself only
/// stores fanins; `topo.rs` only offers counts). One entry per distinct
/// fanin var of each AND node.
#[derive(Debug)]
pub struct Fanouts {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Fanouts {
    /// Builds the CSR from the network's AND nodes.
    pub fn build(aig: &Aig) -> Self {
        let n = aig.num_nodes();
        let mut counts = vec![0u32; n];
        let each = |aig: &Aig, mut f: Box<dyn FnMut(usize, usize) + '_>| {
            for i in 0..n {
                if let Node::And(a, b) = aig.node(Var::new(i as u32)) {
                    f(a.var().index(), i);
                    if b.var() != a.var() {
                        f(b.var().index(), i);
                    }
                }
            }
        };
        each(aig, Box::new(|fanin, _| counts[fanin] += 1));
        let mut offsets = vec![0u32; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + counts[i];
        }
        let mut next = offsets[..n].to_vec();
        let mut targets = vec![0u32; offsets[n] as usize];
        each(
            aig,
            Box::new(|fanin, u| {
                targets[next[fanin] as usize] = u as u32;
                next[fanin] += 1;
            }),
        );
        Fanouts { offsets, targets }
    }

    /// The AND nodes reading `v`.
    pub fn of(&self, v: Var) -> &[u32] {
        let (lo, hi) = (
            self.offsets[v.index()] as usize,
            self.offsets[v.index() + 1] as usize,
        );
        &self.targets[lo..hi]
    }
}

/// Approximate per-node care masks over one simulated pattern set:
/// bit `p` of `care(v)` is 1 when flipping `v` in pattern `p` *may* be
/// observable at an output (single-gate sensitivity pulled through the
/// fanout CSR, reconvergence ignored). A zero bit is only a *filter*
/// signal — exact checking gates every merge.
#[derive(Debug)]
pub struct OdcMasks {
    num_words: usize,
    care: PooledBuf<u64>,
}

impl OdcMasks {
    /// Computes care masks from a simulated table, level-wise from the
    /// output cones: output driver vars care about every bit; an inner
    /// node's care is the OR over its fanouts `u` of
    /// `care(u) & sensitivity(u wrt v)`. One declared launch per level,
    /// descending, on one stream.
    ///
    /// `sigs` must cover every node on a path to an output (the pruned
    /// tables of miter-mode refinement rounds do — their live set is
    /// extended with the PO vars). Nodes outside that cone get zero
    /// care, which is exact: they reach no output.
    pub fn compute(aig: &Aig, exec: &Executor, sigs: &Signatures, fanouts: &Fanouts) -> Self {
        let w = sigs.num_words();
        let n = aig.num_nodes();
        let mut care = exec.arena().take::<u64>(n * w);
        let mut is_output = vec![false; n];
        for &po in aig.pos() {
            if !po.is_const() {
                is_output[po.var().index()] = true;
            }
        }
        // Seed output drivers host-side (their kernels still run — the
        // ones-write is idempotent — but seeding keeps levels with no
        // outputs correct too).
        for (v, &out) in is_output.iter().enumerate() {
            if out {
                care[v * w..(v + 1) * w].fill(u64::MAX);
            }
        }
        let mut groups = aig.level_groups();
        groups.reverse();
        {
            let table = EffectTable::new();
            let care_buf = table.buffer("sim.odc.care", n * w);
            let cells = exec.bind_table(&table, care_buf, &mut care);
            let cells = &cells;
            let effects = [
                Effect::read(care_buf, Pattern::Indexed { lo: 0, hi: n * w }),
                Effect::write(care_buf, Pattern::Indexed { lo: 0, hi: n * w }),
            ];
            let is_output = &is_output;
            let mut stream = exec.stream();
            for group in &groups {
                let group = &group[..];
                stream.launch_declared(&table, "sim.odc.level", group.len(), &effects, move |t| {
                    let v = group[t];
                    let vi = v.index();
                    if is_output[vi] {
                        for k in 0..w {
                            // SAFETY: each tid writes only its own
                            // node's care words.
                            unsafe { cells.write(t, vi * w + k, u64::MAX) };
                        }
                        return;
                    }
                    for k in 0..w {
                        let mut acc = 0u64;
                        for &u in fanouts.of(v) {
                            let uv = Var::new(u);
                            let Node::And(a, b) = aig.node(uv) else {
                                continue;
                            };
                            // SAFETY: fanouts sit at strictly higher
                            // levels, written by earlier (descending)
                            // launches on this stream.
                            let cu = unsafe { cells.read(t, u as usize * w + k) };
                            let sens = if a.var() == b.var() {
                                // Degenerate AND over one var: either
                                // the identity/complement (fully
                                // sensitive) or constant false.
                                if a.is_complemented() == b.is_complemented() {
                                    u64::MAX
                                } else {
                                    0
                                }
                            } else {
                                let other = if a.var() == v { b } else { a };
                                let mask = if other.is_complemented() { u64::MAX } else { 0 };
                                sigs.sig(other.var())[k] ^ mask
                            };
                            acc |= cu & sens;
                        }
                        // SAFETY: each tid writes only its own node's
                        // care words.
                        unsafe { cells.write(t, vi * w + k, acc) };
                    }
                });
            }
            stream.sync();
        }
        OdcMasks { num_words: w, care }
    }

    /// Words per node (matches the table the masks were computed from).
    pub fn num_words(&self) -> usize {
        self.num_words
    }

    /// The care mask words of `var`.
    pub fn care(&self, var: Var) -> &[u64] {
        &self.care[var.index() * self.num_words..(var.index() + 1) * self.num_words]
    }
}

/// Exact bounded replaceability: may `member` be replaced by
/// `repr ^ complement` without changing any output function?
///
/// Explores `member`'s TFO (capped at [`OdcConfig::cone_cap`] nodes),
/// takes the cone's *frontier outputs* `O` (cone nodes driving an
/// output or read outside the cone), re-evaluates the exact region
/// `tfi(O ∪ {repr})` exhaustively over its primary-input support
/// (capped at [`OdcConfig::max_inputs`] PIs, [`REGION_CAP`] nodes) in
/// both the original and the patched network, and accepts only if every
/// frontier output computes an identical function. A `true` verdict is
/// a proof; `false` means "could not prove cheaply", never "wrong".
pub fn check_replaceable(
    aig: &Aig,
    repr: Var,
    member: Var,
    complement: bool,
    fanouts: &Fanouts,
    cfg: &OdcConfig,
) -> bool {
    if repr >= member {
        return false; // ascending eval order patches member after repr
    }
    // Bounded TFO cone of the member.
    let mut cone: Vec<Var> = vec![member];
    let mut in_cone: HashMap<Var, ()> = HashMap::from([(member, ())]);
    let mut i = 0;
    while i < cone.len() {
        for &u in fanouts.of(cone[i]) {
            let uv = Var::new(u);
            if in_cone.insert(uv, ()).is_none() {
                cone.push(uv);
                if cone.len() > cfg.cone_cap {
                    return false;
                }
            }
        }
        i += 1;
    }
    // Frontier outputs: cone nodes observable outside the cone.
    let mut is_output = vec![false; aig.num_nodes()];
    for &po in aig.pos() {
        if !po.is_const() {
            is_output[po.var().index()] = true;
        }
    }
    let outputs: Vec<Var> = cone
        .iter()
        .copied()
        .filter(|&c| {
            is_output[c.index()]
                || fanouts
                    .of(c)
                    .iter()
                    .any(|&u| !in_cone.contains_key(&Var::new(u)))
        })
        .collect();
    if outputs.is_empty() {
        return true; // nothing observable depends on the member
    }
    // The exact region: every node feeding a frontier output or the
    // representative, evaluated exhaustively over its PI support.
    let mut roots = outputs.clone();
    roots.push(repr);
    let region = aig.tfi_cone(&roots); // sorted ascending
    if region.len() > REGION_CAP {
        return false;
    }
    let mut support: Vec<Var> = Vec::new();
    for &v in &region {
        if matches!(aig.node(v), Node::Input(_)) {
            support.push(v);
        }
    }
    if support.len() > cfg.max_inputs {
        return false;
    }
    let k = support.len();
    let words = word_len(k);
    let proj: HashMap<Var, usize> = support.iter().enumerate().map(|(j, &v)| (v, j)).collect();
    let eval = |patch: bool| -> Vec<Vec<u64>> {
        let mut values: HashMap<Var, Vec<u64>> = HashMap::new();
        for &v in &region {
            let val: Vec<u64> = match aig.node(v) {
                Node::Const => vec![0; words],
                Node::Input(_) => {
                    let j = proj[&v];
                    (0..words).map(|x| projection_word(j, x)).collect()
                }
                Node::And(a, b) => {
                    let ma = if a.is_complemented() { u64::MAX } else { 0 };
                    let mb = if b.is_complemented() { u64::MAX } else { 0 };
                    let va = &values[&a.var()];
                    let vb = &values[&b.var()];
                    (0..words).map(|x| (va[x] ^ ma) & (vb[x] ^ mb)).collect()
                }
            };
            let val = if patch && v == member {
                let mc = if complement { u64::MAX } else { 0 };
                values[&repr].iter().map(|&x| x ^ mc).collect()
            } else {
                val
            };
            values.insert(v, val);
        }
        outputs
            .iter()
            .map(|o| values.remove(o).expect("frontier output evaluated"))
            .collect()
    };
    eval(false) == eval(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partial::{simulate, Patterns};
    use parsweep_aig::Aig;
    use parsweep_par::Executor;

    #[test]
    fn output_drivers_care_about_everything() {
        let mut aig = Aig::new();
        let xs = aig.add_inputs(2);
        let f = aig.and(xs[0], xs[1]);
        aig.add_po(f);
        let exec = Executor::with_threads(1);
        let sigs = simulate(&aig, &exec, &Patterns::random(2, 2, 7));
        let fanouts = Fanouts::build(&aig);
        let masks = OdcMasks::compute(&aig, &exec, &sigs, &fanouts);
        assert!(masks.care(f.var()).iter().all(|&m| m == u64::MAX));
    }

    #[test]
    fn controlled_fanin_is_masked() {
        // g = a & b, f = g & a: when a = 0, g is unobservable through f
        // (a controls the AND), and nothing else reads g.
        let mut aig = Aig::new();
        let xs = aig.add_inputs(2);
        let g = aig.and(xs[0], xs[1]);
        let f = aig.and(g, xs[0]);
        aig.add_po(f);
        let exec = Executor::with_threads(1);
        let patterns = Patterns::random(2, 2, 13);
        let sigs = simulate(&aig, &exec, &patterns);
        let fanouts = Fanouts::build(&aig);
        let masks = OdcMasks::compute(&aig, &exec, &sigs, &fanouts);
        for k in 0..2 {
            let a_val = sigs.sig(xs[0].var())[k];
            assert_eq!(
                masks.care(g.var())[k],
                a_val,
                "g is observable exactly where a = 1"
            );
        }
    }

    #[test]
    fn replaceability_proves_odc_equivalent_pair() {
        // f = a & b; m = a | b; out = f & m. The OR is stored as a
        // complemented NOR node w (m = !w), so the candidate pair is
        // (f, w) with complement=true: w is only observable through out
        // when f = 1 (a = b = 1), where w = 0 = !f. Replacing w by !f
        // preserves out, though w and !f differ on (1,0)/(0,1) — a
        // plain signature comparison would never merge them.
        let mut aig = Aig::new();
        let xs = aig.add_inputs(2);
        let f = aig.and(xs[0], xs[1]);
        let m = aig.or(xs[0], xs[1]);
        let out = aig.and(f, m);
        aig.add_po(out);
        let fanouts = Fanouts::build(&aig);
        let cfg = OdcConfig::default();
        assert!(check_replaceable(
            &aig,
            f.var(),
            m.var(),
            true,
            &fanouts,
            &cfg
        ));
        // The same-phase substitution (w := f) turns out into
        // f & !f = 0: refuted.
        assert!(!check_replaceable(
            &aig,
            f.var(),
            m.var(),
            false,
            &fanouts,
            &cfg
        ));
    }

    #[test]
    fn replaceability_refutes_observable_difference() {
        let mut aig = Aig::new();
        let xs = aig.add_inputs(2);
        let f = aig.and(xs[0], xs[1]);
        let m = aig.or(xs[0], xs[1]);
        aig.add_po(f);
        aig.add_po(m);
        let fanouts = Fanouts::build(&aig);
        let cfg = OdcConfig::default();
        assert!(!check_replaceable(
            &aig,
            f.var(),
            m.var(),
            false,
            &fanouts,
            &cfg
        ));
    }
}
