//! Frozen inputs and what a seed derives from them.
//!
//! `benchmark gen` builds every pair once (a generator from
//! `parsweep-bench` against its `resyn2`, both sides doubled), and the
//! `eng_cex` mutants from them, and commits them under `inputs/` with a
//! manifest. Every run loads the pairs it needs and re-hashes them against
//! the manifest. The engine workloads hand the committed files to the
//! program under test as they are. The service workloads derive every job
//! from a small frozen pair: a PI permutation + polarity layer and a PO
//! permutation applied to *both* sides, so equivalence holds by
//! construction, plus mutations whose firing pattern is known from how they
//! were made. At seed 1 the bytes of the first derived files are held
//! against a digest in the manifest too.

use std::path::{Path, PathBuf};

use parsweep_aig::random::SplitMix64;
use parsweep_aig::{miter, read_aiger_file, write_aiger_file, Aig, Lit};

use crate::json::Json;

/// Engine pairs, by workload. Names read `<family>_<params>_<n>xd`.
const ENG_PO: &[&str] = &[
    "log2_w12f6_2xd",
    "sin_w12_2xd",
    "hyp_w9_1xd",
    "square_w10_2xd",
];
const ENG_LOCAL: &[&str] = &["multiplier_w10_1xd", "voter_n25_2xd"];
const ENG_GLOBAL: &[&str] = &["sqrt_w12_0xd", "sqrt_w10_1xd"];
/// Pairs `eng_cex` runs a `rare` and a `flip` mutant of.
const ENG_CEX: &[&str] = &["multiplier_w10_0xd", "sqrt_w10_1xd", "voter_n25_2xd"];
/// Small base pairs the service jobs are derived from.
pub const SVC_BASES: &[&str] = &[
    "multiplier_w4_1xd",
    "multiplier_w5_1xd",
    "sqrt_w4_1xd",
    "square_w5_1xd",
    "hyp_w3_1xd",
    "max_w6_1xd",
    "alu_w5_1xd",
    "voter_n9_1xd",
    "crc_w8r2_1xd",
    "bus_g2w8_1xd",
    "vga_c6l2_1xd",
    "sin_w6_1xd",
];

/// The seed whose derived service files the manifest has a digest of.
pub const FROZEN_SEED: u64 = 1;

/// What a pair is mutated with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// None: the pair stays equivalent.
    None,
    /// One PO of the right side XORed with `y0 & y1`: a quarter of all
    /// patterns fire, the first random simulation round finds one.
    Flip,
    /// One PO of the right side XORed with a conjunction of 20 or more PI
    /// literals: random simulation essentially never fires it.
    Rare,
}

/// The mutants `eng_cex` runs of each of its pairs, by name suffix.
const MUTANTS: &[(&str, Mutation)] = &[(".rare", Mutation::Rare), (".flip", Mutation::Flip)];

/// The pairs of an engine workload; `None` for a service workload. Every
/// list ends with its cheapest pair: that one is what the smoke run keeps
/// and what the traced run sends through the service layers.
pub fn engine_pairs(workload: &str) -> Option<&'static [&'static str]> {
    match workload {
        "eng_po" => Some(ENG_PO),
        "eng_local" => Some(ENG_LOCAL),
        "eng_global" => Some(ENG_GLOBAL),
        "eng_cex" => Some(ENG_CEX),
        _ => None,
    }
}

/// The manifest entries behind `pairs` of `workload`: the pairs
/// themselves, or for `eng_cex` their mutants.
pub fn engine_entries(workload: &str, pairs: &[&str]) -> Vec<String> {
    if workload != "eng_cex" {
        return pairs.iter().map(|p| (*p).to_owned()).collect();
    }
    pairs
        .iter()
        .flat_map(|p| {
            MUTANTS
                .iter()
                .map(move |(suffix, _)| format!("{p}{suffix}"))
        })
        .collect()
}

/// FNV-1a, continued from `hash` (start at `FNV_START`): a fixed seed per
/// name, a digest of bytes.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3)
    })
}
pub const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

/// Builds the original circuit a pair name describes, before doubling.
fn generate(name: &str) -> Result<(Aig, usize), String> {
    use parsweep_bench::gen;
    let bad = || format!("unknown pair name '{name}'");
    let parts: Vec<&str> = name.split('_').collect();
    let [family, params, doubling] = parts[..] else {
        return Err(bad());
    };
    let nums: Vec<usize> = params
        .split(|c: char| c.is_ascii_alphabetic())
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().map_err(|_| bad()))
        .collect::<Result<_, _>>()?;
    let doublings = doubling
        .strip_suffix("xd")
        .and_then(|d| d.parse().ok())
        .ok_or_else(bad)?;
    let aig = match (family, &nums[..]) {
        ("hyp", [w]) => gen::gen_hyp(*w),
        ("log2", [w, f]) => gen::gen_log2(*w, *f),
        ("multiplier", [w]) => gen::gen_multiplier(*w),
        ("sqrt", [w]) => gen::gen_sqrt(*w),
        ("square", [w]) => gen::gen_square(*w),
        ("sin", [w]) => gen::gen_sin(*w),
        ("voter", [n]) => gen::gen_voter(*n),
        ("max", [w]) => gen::gen_max(*w),
        ("alu", [w]) => gen::gen_alu(*w),
        ("crc", [w, r]) => gen::gen_crc(*w, *r, 0x1d),
        ("bus", [g, w]) => gen::gen_bus_ctrl(*g, *w, 7),
        ("vga", [c, l]) => gen::gen_video_timing(*c, *l, 3),
        _ => return Err(bad()),
    };
    Ok((aig, doublings))
}

fn hash_hex(aig: &Aig) -> String {
    format!("{:016x}", aig.structural_hash())
}

/// Writes `aig` to `dir/file` and describes what a reader gets back, not
/// what the writer was given: that is what every run re-hashes.
fn freeze(dir: &Path, file: &str, aig: &Aig) -> Result<Json, String> {
    write_aiger_file(aig, dir.join(file)).map_err(|e| format!("{file}: {e}"))?;
    let aig = read_aiger_file(dir.join(file)).map_err(|e| format!("{file}: {e}"))?;
    Ok(Json::obj([
        ("file", Json::str(file)),
        ("pis", Json::Num(aig.num_pis() as f64)),
        ("pos", Json::Num(aig.num_pos() as f64)),
        ("ands", Json::Num(aig.num_ands() as f64)),
        ("structural_hash", Json::str(hash_hex(&aig))),
    ]))
}

/// `benchmark gen`: writes every pair, every `eng_cex` mutant and their
/// manifest to `dir`. Ground truth does not come from the checker. The
/// right side is the left after `resyn2`, and random patterns are
/// evaluated on the miter here as a guard against a broken optimiser; a
/// mutant is inequivalent by construction, and the pattern that fires its
/// mutation is evaluated on the miter here and stored.
pub fn generate_frozen(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let mut names: Vec<&str> = [ENG_PO, ENG_LOCAL, ENG_GLOBAL, ENG_CEX, SVC_BASES].concat();
    names.sort_unstable();
    names.dedup();
    let mut pairs = Vec::new();
    for name in names {
        let started = std::time::Instant::now();
        let (base, doublings) = generate(name)?;
        let left = base.double_times(doublings);
        let right = parsweep_synth::resyn2(&base).double_times(doublings);
        let m = miter(&left, &right).map_err(|e| e.to_string())?;
        let mut rng = SplitMix64::new(0x6e6);
        for _ in 0..64 {
            let bits: Vec<bool> = (0..m.num_pis()).map(|_| rng.bool()).collect();
            if m.eval(&bits).contains(&true) {
                return Err(format!("{name}: resyn2 changed the function"));
            }
        }
        let left_entry = freeze(dir, &format!("{name}.L.aig"), &left)?;
        // A pair that only `eng_cex` uses is run as its mutants alone.
        if [ENG_PO, ENG_LOCAL, ENG_GLOBAL, SVC_BASES]
            .concat()
            .contains(&name)
        {
            pairs.push(Json::obj([
                ("name", Json::str(name)),
                ("verdict", Json::str("equivalent")),
                ("left", left_entry.clone()),
                ("right", freeze(dir, &format!("{name}.R.aig"), &right)?),
            ]));
        }
        let mutants: &[_] = if ENG_CEX.contains(&name) {
            MUTANTS
        } else {
            &[]
        };
        for (suffix, mutation) in mutants {
            let tag = format!("{name}{suffix}");
            // The mutant's site and literals come from its name.
            let mut rng = SplitMix64::new(fnv1a(FNV_START, tag.as_bytes()));
            let identity: Vec<usize> = (0..right.num_pis()).collect();
            let order: Vec<usize> = (0..right.num_pos()).collect();
            let neg = vec![false; right.num_pis()];
            let (mutant, fires) =
                mutated(&right, &identity, &neg, &order, *mutation, &mut rng, &tag)?;
            expect_mutant(&tag, &left, &mutant, &fires)?;
            let fires: String = fires.iter().map(|&b| if b { '1' } else { '0' }).collect();
            pairs.push(Json::obj([
                ("name", Json::str(&*tag)),
                ("verdict", Json::str("not-equivalent")),
                ("fires", Json::str(fires)),
                ("left", left_entry.clone()),
                ("right", freeze(dir, &format!("{tag}.R.aig"), &mutant)?),
            ]));
        }
        eprintln!(
            "gen: {name}: {} PIs, {} POs, {} vs {} ANDs ({:.1}s)",
            left.num_pis(),
            left.num_pos(),
            left.num_ands(),
            right.num_ands(),
            started.elapsed().as_secs_f64()
        );
    }
    let manifest = Json::obj([
        (
            "format",
            Json::str(
                "binary AIGER; right = resyn2(left), both doubled; a mutant's right has one PO \
                 XORed with a conjunction of PI literals, which the pattern 'fires' (one bit per \
                 PI) makes true",
            ),
        ),
        ("pairs", Json::Arr(pairs)),
    ]);
    write_manifest(dir, &manifest)
}

fn read_manifest(dir: &Path) -> Result<Json, String> {
    let path = dir.join("manifest.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text)
}

fn write_manifest(dir: &Path, manifest: &Json) -> Result<(), String> {
    std::fs::write(dir.join("manifest.json"), manifest.pretty()).map_err(|e| e.to_string())
}

/// `benchmark gen`, last step: adds to the manifest in `dir` the digest of
/// what each service workload derives first at `FROZEN_SEED`.
pub fn record_derived(dir: &Path, digests: &[(&str, u64)]) -> Result<(), String> {
    let manifest = read_manifest(dir)?;
    let mut fields: Vec<(String, Json)> = manifest
        .as_obj()
        .ok_or("manifest is not an object")?
        .iter()
        .filter(|(k, _)| k != "derived")
        .cloned()
        .collect();
    let digests = digests
        .iter()
        .map(|(workload, digest)| (*workload, Json::str(format!("{digest:016x}"))));
    fields.push(("derived".into(), Json::obj(digests)));
    write_manifest(dir, &Json::obj(fields))
}

/// Holds the digest of the files `workload` derived first at
/// `FROZEN_SEED` against the manifest: the program under test reads those
/// files, so a change to how they are built or written must not pass
/// unseen.
pub fn check_derived(dir: &Path, workload: &str, digest: u64) -> Result<(), String> {
    let manifest = read_manifest(dir)?;
    let frozen = manifest
        .get("derived")
        .and_then(|d| d.get(workload))
        .and_then(Json::as_str)
        .ok_or(format!("manifest has no derived digest for {workload}"))?;
    if frozen != format!("{digest:016x}") {
        return Err(format!(
            "{workload}: the files derived at seed {FROZEN_SEED} differ from the manifest's digest"
        ));
    }
    Ok(())
}

/// What the checker must answer for an item.
#[derive(Clone, Debug)]
pub enum Expect {
    Equivalent,
    /// Inequivalent by construction. `miter` is kept so a returned
    /// counter-example can be evaluated.
    NotEquivalent {
        miter: Aig,
    },
}

/// One operation's input: a pair of files and its ground truth.
#[derive(Clone, Debug)]
pub struct Item {
    pub tag: String,
    pub left: PathBuf,
    pub right: PathBuf,
    pub expect: Expect,
}

impl Item {
    pub fn expected_verdict(&self) -> &'static str {
        match self.expect {
            Expect::Equivalent => "equivalent",
            Expect::NotEquivalent { .. } => "not-equivalent",
        }
    }

    /// True when `cex` (one bool per miter PI) makes the miter fire.
    pub fn cex_fires(&self, cex: &[bool]) -> bool {
        match &self.expect {
            Expect::Equivalent => false,
            Expect::NotEquivalent { miter } => {
                cex.len() == miter.num_pis() && miter.eval(cex).contains(&true)
            }
        }
    }
}

/// A frozen pair, loaded and checked against the manifest.
pub struct Frozen {
    pub left: Aig,
    pub right: Aig,
    /// The committed files themselves as an operation's input.
    pub item: Item,
}

/// Inequivalent by construction; evaluating the known pattern confirms it
/// without asking the checker.
fn expect_mutant(tag: &str, left: &Aig, right: &Aig, fires: &[bool]) -> Result<Expect, String> {
    let m = miter(left, right).map_err(|e| format!("{tag}: {e}"))?;
    if fires.len() != m.num_pis() || !m.eval(fires).contains(&true) {
        return Err(format!("{tag}: mutation does not fire on its own pattern"));
    }
    Ok(Expect::NotEquivalent { miter: m })
}

/// Loads the named manifest entries from `dir`, aborting on any digest
/// mismatch, so a reader or generator change can never silently change the
/// workload.
pub fn load_frozen<S: AsRef<str>>(dir: &Path, names: &[S]) -> Result<Vec<Frozen>, String> {
    let manifest = read_manifest(dir)?;
    let pairs = manifest
        .get("pairs")
        .and_then(Json::as_arr)
        .ok_or("manifest has no 'pairs'")?;
    let load_side = |entry: &Json| -> Result<(PathBuf, Aig), String> {
        let field = |k: &str| entry.get(k).ok_or(format!("manifest entry lacks '{k}'"));
        let file = field("file")?.as_str().ok_or("'file' is not a string")?;
        let aig = read_aiger_file(dir.join(file)).map_err(|e| format!("{file}: {e}"))?;
        let counts = [
            ("pis", aig.num_pis()),
            ("pos", aig.num_pos()),
            ("ands", aig.num_ands()),
        ];
        for (key, got) in counts {
            if field(key)?.as_f64() != Some(got as f64) {
                return Err(format!("{file}: '{key}' differs from the manifest"));
            }
        }
        if field("structural_hash")?.as_str() != Some(&hash_hex(&aig)) {
            return Err(format!("{file}: structural hash differs from the manifest"));
        }
        Ok((dir.join(file), aig))
    };
    names
        .iter()
        .map(|name| {
            let name = name.as_ref();
            let entry = pairs
                .iter()
                .find(|p| p.get("name").and_then(Json::as_str) == Some(name))
                .ok_or(format!("{name}: not in the manifest"))?;
            let field = |k: &str| entry.get(k).ok_or(format!("{name}: no '{k}'"));
            let (left_path, left) = load_side(field("left")?)?;
            let (right_path, right) = load_side(field("right")?)?;
            let expect = match field("verdict")?.as_str() {
                Some("equivalent") => Expect::Equivalent,
                Some("not-equivalent") => {
                    let fires = field("fires")?.as_str().ok_or("'fires' is not a string")?;
                    let fires: Vec<bool> = fires.bytes().map(|b| b == b'1').collect();
                    expect_mutant(name, &left, &right, &fires)?
                }
                other => return Err(format!("{name}: verdict {other:?}")),
            };
            Ok(Frozen {
                left,
                right,
                item: Item {
                    tag: name.to_owned(),
                    left: left_path,
                    right: right_path,
                    expect,
                },
            })
        })
        .collect()
}

/// Fisher-Yates.
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

fn shuffled(n: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    shuffle(&mut p, rng);
    p
}

/// Rebuilds `aig` with old PI `i` driven by new PI `perm[i]`, inverted if
/// `neg[i]`; returns it with its PIs and its PO literals (still
/// unregistered, so a mutation can edit them).
fn relabel(aig: &Aig, perm: &[usize], neg: &[bool]) -> (Aig, Vec<Lit>, Vec<Lit>) {
    let mut out = Aig::with_capacity(aig.num_nodes());
    let pis = out.add_inputs(aig.num_pis());
    let map: Vec<Lit> = (0..aig.num_pis())
        .map(|i| pis[perm[i]].xor(neg[i]))
        .collect();
    let pos = out.append(aig, &map);
    (out, pis, pos)
}

/// Registers `pos` as the POs of `aig`, in `order`.
fn finish(mut aig: Aig, pos: &[Lit], order: &[usize]) -> Aig {
    for &j in order {
        aig.add_po(pos[j]);
    }
    aig
}

/// `right` relabelled (see `relabel`) with `mutation` applied to one PO,
/// its site and literals drawn from `rng`, and the POs in `order`. With it
/// comes the pattern that triggers the mutation: every literal of the
/// conjunction true, every other PI false.
fn mutated(
    right: &Aig,
    perm: &[usize],
    neg: &[bool],
    order: &[usize],
    mutation: Mutation,
    rng: &mut SplitMix64,
    tag: &str,
) -> Result<(Aig, Vec<bool>), String> {
    let n = right.num_pis();
    let (mut right, pis, mut pos) = relabel(right, perm, neg);
    let mut fires = vec![false; n];
    if mutation != Mutation::None {
        let site = rng.below(pos.len());
        let lits: Vec<Lit> = if mutation == Mutation::Flip {
            fires[0] = true;
            fires[1] = true;
            vec![pis[0], pis[1]]
        } else {
            if n < 20 {
                return Err(format!("{tag}: a rare mutant needs 20 PIs"));
            }
            let width = 20 + rng.below(5.min(n - 19));
            shuffled(n, rng)
                .into_iter()
                .take(width)
                .map(|i| {
                    fires[i] = rng.bool();
                    pis[i].xor(!fires[i])
                })
                .collect()
        };
        let conj = right.and_all(lits);
        pos[site] = right.xor(pos[site], conj);
    }
    Ok((finish(right, &pos, order), fires))
}

/// Derives one service job from a frozen pair and writes its two files
/// under `dir` as `<tag>.L.aig` / `<tag>.R.aig`.
///
/// `layer_seed` fixes the PI permutation + polarity layer and the
/// mutation's site; `po_seed`, when given, reorders the POs of both sides.
/// The same `layer_seed` under another `po_seed` is the same pair of
/// functions with another whole-miter hash.
pub fn derive_item(
    pair: &Frozen,
    tag: &str,
    mutation: Mutation,
    layer_seed: u64,
    po_seed: Option<u64>,
    dir: &Path,
) -> Result<Item, String> {
    let mut rng = SplitMix64::new(layer_seed);
    let n = pair.left.num_pis();
    let perm = shuffled(n, &mut rng);
    let neg: Vec<bool> = (0..n).map(|_| rng.bool()).collect();
    let order = match po_seed {
        Some(seed) => shuffled(pair.left.num_pos(), &mut SplitMix64::new(seed)),
        None => (0..pair.left.num_pos()).collect(),
    };
    let (left, _, left_pos) = relabel(&pair.left, &perm, &neg);
    let left = finish(left, &left_pos, &order);
    let (right, fires) = mutated(&pair.right, &perm, &neg, &order, mutation, &mut rng, tag)?;
    let expect = if mutation == Mutation::None {
        Expect::Equivalent
    } else {
        expect_mutant(tag, &left, &right, &fires)?
    };
    let item = Item {
        tag: tag.to_owned(),
        left: dir.join(format!("{tag}.L.aig")),
        right: dir.join(format!("{tag}.R.aig")),
        expect,
    };
    write_aiger_file(&left, &item.left).map_err(|e| e.to_string())?;
    write_aiger_file(&right, &item.right).map_err(|e| e.to_string())?;
    Ok(item)
}
