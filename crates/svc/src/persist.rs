//! Disk persistence for the semantic cache tier.
//!
//! Settled canonical verdicts are append-only facts — an NPN class's
//! satisfiability never changes — so the persistent tier is a plain
//! line-oriented append log. One record per line:
//!
//! ```text
//! sem1 <k> <canon-hex> <one-index|-> <zero-index|-> [<engine> <cost-micros>]
//! ```
//!
//! where `<canon-hex>` is the canonical truth table in
//! [`TruthTable::to_hex`] notation, `<one-index>` is a canonical
//! assignment on which the function is 1 (`-` when it is constant 0,
//! i.e. the class is equivalent), `<zero-index>` the dual, and the
//! optional engine/cost pair is the [`RoutingInfo`](crate::RoutingInfo)
//! a restarted service replays into its prover on the entry's first hit.
//!
//! Loading is tolerant by design: a truncated tail, an editor's stray
//! line, or a record whose witnesses contradict its own table are
//! *skipped and counted*, never fatal — a damaged cache file degrades to
//! a smaller corpus, not a dead service. Every surviving record is
//! internally consistent, and the in-memory tier re-verifies against the
//! probing cone anyway, so a hand-forged record can waste a probe but
//! cannot produce a wrong verdict.

use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;
use std::sync::Mutex;

use parsweep_sat::EngineKind;
use parsweep_sim::{TruthTable, MAX_NPN_VARS};

use crate::cache::RoutingInfo;

/// Line tag of the current record format.
pub const PERSIST_RECORD_TAG: &str = "sem1";

/// One decoded semantic verdict record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PersistRecord {
    /// The canonical truth table (masked; `from_hex` output).
    pub canon: TruthTable,
    /// A canonical assignment index with value 1, if any.
    pub ones_witness: Option<u64>,
    /// A canonical assignment index with value 0, if any.
    pub zeros_witness: Option<u64>,
    /// Engine routing of the proof that settled the class.
    pub routing: Option<RoutingInfo>,
}

/// Encodes a record as one log line (without trailing newline).
pub fn encode_record(rec: &PersistRecord) -> String {
    let witness = |w: Option<u64>| w.map_or_else(|| "-".to_string(), |i| i.to_string());
    let mut line = format!(
        "{PERSIST_RECORD_TAG} {} {} {} {}",
        rec.canon.num_vars(),
        rec.canon.to_hex(),
        witness(rec.ones_witness),
        witness(rec.zeros_witness),
    );
    if let Some(r) = rec.routing {
        line.push_str(&format!(" {} {}", r.engine.name(), r.cost_micros));
    }
    line
}

/// Decodes one log line; `None` for anything malformed or inconsistent.
pub fn decode_record(line: &str) -> Option<PersistRecord> {
    let mut parts = line.split_ascii_whitespace();
    if parts.next()? != PERSIST_RECORD_TAG {
        return None;
    }
    let k: usize = parts.next()?.parse().ok()?;
    if k > MAX_NPN_VARS {
        return None;
    }
    let canon = TruthTable::from_hex(k, parts.next()?)?;
    let witness = |tok: &str| -> Option<Option<u64>> {
        if tok == "-" {
            Some(None)
        } else {
            let i: u64 = tok.parse().ok()?;
            (i < 1u64 << k).then_some(Some(i))
        }
    };
    let ones_witness = witness(parts.next()?)?;
    let zeros_witness = witness(parts.next()?)?;
    let routing = match parts.next() {
        None => None,
        Some(name) => {
            let engine = EngineKind::from_name(name)?;
            let cost_micros: u64 = parts.next()?.parse().ok()?;
            Some(RoutingInfo {
                engine,
                cost_micros,
            })
        }
    };
    if parts.next().is_some() {
        return None; // trailing junk
    }
    // Witnesses must tell the truth about their own table.
    let consistent = |w: Option<u64>, want: bool, absent_iff: bool| match w {
        Some(i) => canon.value(i as usize) == want,
        None => absent_iff,
    };
    if !consistent(ones_witness, true, canon.is_zero())
        || !consistent(zeros_witness, false, canon.is_ones())
    {
        return None;
    }
    Some(PersistRecord {
        canon,
        ones_witness,
        zeros_witness,
        routing,
    })
}

/// Reads every valid record from `path`. Returns the records and the
/// number of lines skipped as corrupt. A missing file is an empty corpus
/// (fresh start); other I/O errors surface to the caller.
pub fn load_records(path: &Path) -> io::Result<(Vec<PersistRecord>, usize)> {
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
        Err(e) => return Err(e),
    };
    let mut records = Vec::new();
    let mut skipped = 0usize;
    for line in BufReader::new(file).split(b'\n') {
        let line = line?;
        let text = String::from_utf8_lossy(&line);
        let text = text.trim();
        if text.is_empty() {
            continue;
        }
        match decode_record(text) {
            Some(rec) => records.push(rec),
            None => skipped += 1,
        }
    }
    Ok((records, skipped))
}

/// An append handle to the persistent log. Each record is written as one
/// `write_all` of a full line, so a crash can at worst truncate the final
/// line — which the tolerant loader then skips.
#[derive(Debug)]
pub struct PersistLog {
    file: Mutex<File>,
}

impl PersistLog {
    /// Opens (creating if needed) the log for appending.
    pub fn open_append(path: &Path) -> io::Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(PersistLog {
            file: Mutex::new(file),
        })
    }

    /// Appends one record; true on success. Write errors are reported to
    /// the caller as a skipped append, never a panic — losing a record
    /// only costs a future re-proof.
    pub fn append(&self, rec: &PersistRecord) -> bool {
        let mut line = encode_record(rec);
        line.push('\n');
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        file.write_all(line.as_bytes()).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PersistRecord {
        PersistRecord {
            canon: TruthTable::from_fn(3, |i| i == 5 || i == 6),
            ones_witness: Some(5),
            zeros_witness: Some(0),
            routing: Some(RoutingInfo {
                engine: EngineKind::SatSweep,
                cost_micros: 777,
            }),
        }
    }

    #[test]
    fn records_round_trip() {
        let rec = sample();
        assert_eq!(decode_record(&encode_record(&rec)), Some(rec.clone()));
        let bare = PersistRecord {
            routing: None,
            ..rec
        };
        assert_eq!(decode_record(&encode_record(&bare)), Some(bare));
        let zero = PersistRecord {
            canon: TruthTable::zeros(2),
            ones_witness: None,
            zeros_witness: Some(0),
            routing: None,
        };
        assert_eq!(decode_record(&encode_record(&zero)), Some(zero));
    }

    #[test]
    fn corrupt_lines_are_rejected() {
        let good = encode_record(&sample());
        for bad in [
            "".to_string(),
            "sem0 3 60 5 0".to_string(),             // wrong tag
            "sem1 9 60 5 0".to_string(),             // k too large
            "sem1 3 zz 5 0".to_string(),             // bad hex
            "sem1 3 60 99 0".to_string(),            // witness out of range
            "sem1 3 60 0 0".to_string(),             // ones witness on a 0-bit
            "sem1 3 60 - 0".to_string(),             // missing ones on a sat table
            "sem1 3 60 5 0 nosuch 1".to_string(),    // unknown engine
            "sem1 3 60 5 0 sat_sweep x".to_string(), // bad cost
            format!("{good} extra"),                 // trailing junk
            good[..good.len() - 3].to_string(),      // truncated tail
        ] {
            assert_eq!(decode_record(&bad), None, "line {bad:?}");
        }
    }

    #[test]
    fn load_skips_garbage_and_missing_file_is_empty() {
        let dir = std::env::temp_dir().join(format!("parsweep-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.log");
        let rec = sample();
        std::fs::write(
            &path,
            format!("{}\nnot a record\n\n{}", encode_record(&rec), "sem1 3 tr"),
        )
        .unwrap();
        let (records, skipped) = load_records(&path).unwrap();
        assert_eq!(records, vec![rec]);
        assert_eq!(skipped, 2);
        let missing = dir.join("nope.log");
        assert_eq!(load_records(&missing).unwrap(), (Vec::new(), 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_then_load() {
        let dir = std::env::temp_dir().join(format!("parsweep-append-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log");
        let log = PersistLog::open_append(&path).unwrap();
        let rec = sample();
        assert!(log.append(&rec));
        assert!(log.append(&rec));
        drop(log);
        let (records, skipped) = load_records(&path).unwrap();
        assert_eq!(records, vec![rec.clone(), rec]);
        assert_eq!(skipped, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
