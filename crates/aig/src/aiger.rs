//! AIGER file format support (ASCII `aag` and binary `aig`).
//!
//! Combinational networks only: latch counts other than zero are rejected.
//! On write, variables are renumbered into the canonical AIGER layout
//! (inputs first, then AND gates in topological order).

use std::fmt;
use std::io::{self, BufRead, Read, Write};

use crate::{Aig, Lit, Node};

/// Error reading an AIGER file.
#[derive(Debug)]
pub enum ParseAigerError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The header line is malformed.
    BadHeader(String),
    /// The file contains latches, which are not supported.
    HasLatches(usize),
    /// A literal or line is malformed.
    BadLine {
        /// 1-based line number (0 for binary section).
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// The binary delta encoding is invalid or truncated.
    BadBinary(String),
    /// A variable is defined more than once (as an input or AND lhs).
    DefinedTwice(u32),
}

impl fmt::Display for ParseAigerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseAigerError::Io(e) => write!(f, "i/o error: {e}"),
            ParseAigerError::BadHeader(h) => write!(f, "malformed AIGER header: {h:?}"),
            ParseAigerError::HasLatches(n) => {
                write!(f, "sequential AIGER not supported ({n} latches)")
            }
            ParseAigerError::BadLine { line, message } => {
                write!(f, "line {line}: {message}")
            }
            ParseAigerError::BadBinary(m) => write!(f, "bad binary AND section: {m}"),
            ParseAigerError::DefinedTwice(v) => write!(f, "variable {v} is defined twice"),
        }
    }
}

impl std::error::Error for ParseAigerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseAigerError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ParseAigerError {
    fn from(e: io::Error) -> Self {
        ParseAigerError::Io(e)
    }
}

struct Header {
    m: u32,
    i: u32,
    o: u32,
    a: u32,
    binary: bool,
}

fn parse_header(line: &str) -> Result<Header, ParseAigerError> {
    let mut it = line.split_whitespace();
    let tag = it
        .next()
        .ok_or_else(|| ParseAigerError::BadHeader(line.into()))?;
    let binary = match tag {
        "aag" => false,
        "aig" => true,
        _ => return Err(ParseAigerError::BadHeader(line.into())),
    };
    let mut nums = [0u32; 5];
    for slot in nums.iter_mut() {
        *slot = it
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| ParseAigerError::BadHeader(line.into()))?;
    }
    if nums[2] != 0 {
        return Err(ParseAigerError::HasLatches(nums[2] as usize));
    }
    let [m, i, _, o, a] = nums;
    // Every input and AND defines its own variable, all of them at most
    // M; the binary format numbers them 1..=I+A with nothing left over.
    // Literal 2M+1 must fit the 32-bit literal codes.
    let defined = u64::from(i) + u64::from(a);
    if defined > u64::from(m) || (binary && defined != u64::from(m)) || m > u32::MAX >> 1 {
        return Err(ParseAigerError::BadHeader(line.into()));
    }
    Ok(Header { m, i, o, a, binary })
}

/// Reads an AIGER network (ASCII or binary, auto-detected from the header).
///
/// Malformed input of any kind is an error, never a panic, and memory is
/// sized from the body actually read, not from the header's counts (a
/// binary file's inputs, which have no body, excepted).
///
/// # Errors
///
/// Returns [`ParseAigerError`] on I/O failure or malformed input, including
/// files with latches.
pub fn read_aiger<R: Read>(reader: R) -> Result<Aig, ParseAigerError> {
    let mut reader = io::BufReader::new(reader);
    let mut header_line = String::new();
    reader.read_line(&mut header_line)?;
    let header = parse_header(header_line.trim_end())?;
    if header.binary {
        read_binary(reader, &header)
    } else {
        read_ascii(reader, &header)
    }
}

/// Parses a literal of file line `line`, bounded by the header's `M`.
fn parse_lit_token(tok: &str, line: usize, m: u32) -> Result<u32, ParseAigerError> {
    match tok.parse::<u32>() {
        Ok(code) if code >> 1 <= m => Ok(code),
        Ok(code) => Err(ParseAigerError::BadLine {
            line,
            message: format!("literal {code} exceeds the maximum variable {m}"),
        }),
        Err(_) => Err(ParseAigerError::BadLine {
            line,
            message: format!("bad literal {tok:?}"),
        }),
    }
}

/// Parses a literal that defines a variable (an input or an AND lhs):
/// positive and not constant.
fn parse_def_token(tok: &str, line: usize, m: u32, what: &str) -> Result<u32, ParseAigerError> {
    let code = parse_lit_token(tok, line, m)?;
    if code < 2 || code & 1 == 1 {
        return Err(ParseAigerError::BadLine {
            line,
            message: format!("invalid {what} literal {code}"),
        });
    }
    Ok(code >> 1)
}

fn read_ascii<R: BufRead>(reader: R, h: &Header) -> Result<Aig, ParseAigerError> {
    let (i, o) = (h.i as usize, h.o as usize);
    let need = [h.o, h.a]
        .into_iter()
        .try_fold(i, |sum, n| sum.checked_add(n as usize));
    // Read no more lines than the header asks for: a symbol table or
    // comment section may follow.
    let lines: Vec<String> = reader
        .lines()
        .take(need.unwrap_or(usize::MAX))
        .collect::<Result<_, _>>()?;
    if need != Some(lines.len()) {
        return Err(ParseAigerError::BadLine {
            line: lines.len() + 2,
            message: "unexpected end of file".into(),
        });
    }
    // `line_of(k)` is the 1-based file line of body line k (header is 1).
    let line_of = |k: usize| k + 2;
    let mut inputs = Vec::with_capacity(i);
    for (k, line) in lines[..i].iter().enumerate() {
        inputs.push(parse_def_token(line.trim(), line_of(k), h.m, "input")?);
    }
    let mut pos = Vec::with_capacity(o);
    for (k, line) in lines.iter().enumerate().take(i + o).skip(i) {
        pos.push(parse_lit_token(line.trim(), line_of(k), h.m)?);
    }
    let mut ands = Vec::with_capacity(lines.len() - i - o);
    for (k, line) in lines.iter().enumerate().skip(i + o) {
        let mut it = line.split_whitespace();
        let mut next = || {
            it.next().ok_or(ParseAigerError::BadLine {
                line: line_of(k),
                message: "expected three literals".into(),
            })
        };
        let lhs = parse_def_token(next()?, line_of(k), h.m, "AND lhs")?;
        let rhs0 = parse_lit_token(next()?, line_of(k), h.m)?;
        let rhs1 = parse_lit_token(next()?, line_of(k), h.m)?;
        ands.push((lhs, rhs0, rhs1));
    }
    build(inputs, ands, pos)
}

fn read_binary<R: BufRead>(mut reader: R, h: &Header) -> Result<Aig, ParseAigerError> {
    // Output literals, one per line.
    let mut pos = Vec::new();
    let mut line = String::new();
    for k in 0..h.o as usize {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(ParseAigerError::BadLine {
                line: k + 2,
                message: "unexpected end of file in output section".into(),
            });
        }
        pos.push(parse_lit_token(line.trim(), k + 2, h.m)?);
    }
    // Delta-encoded AND section.
    let read_delta = |reader: &mut R| -> Result<u32, ParseAigerError> {
        let mut result: u64 = 0;
        let mut shift = 0u32;
        loop {
            let mut byte = [0u8; 1];
            reader
                .read_exact(&mut byte)
                .map_err(|_| ParseAigerError::BadBinary("truncated delta".into()))?;
            result |= u64::from(byte[0] & 0x7f) << shift;
            if byte[0] & 0x80 == 0 {
                break;
            }
            shift += 7;
            if shift > 35 {
                return Err(ParseAigerError::BadBinary("delta too large".into()));
            }
        }
        u32::try_from(result).map_err(|_| ParseAigerError::BadBinary("delta overflow".into()))
    };
    let mut ands = Vec::new();
    // Binary format: inputs are implicitly variables 1..=I and AND k
    // defines variable I+1+k (at most M, which the header bounds).
    for lhs in (h.i + 1..=h.m).map(|v| v << 1) {
        let delta0 = read_delta(&mut reader)?;
        let delta1 = read_delta(&mut reader)?;
        let rhs0 = lhs
            .checked_sub(delta0)
            .ok_or_else(|| ParseAigerError::BadBinary("delta0 exceeds lhs".into()))?;
        let rhs1 = rhs0
            .checked_sub(delta1)
            .ok_or_else(|| ParseAigerError::BadBinary("delta1 exceeds rhs0".into()))?;
        ands.push((lhs >> 1, rhs0, rhs1));
    }
    build((1..=h.i).collect(), ands, pos)
}

/// Builds the network from a parsed body: the variables `inputs` defines,
/// the `(lhs variable, rhs0, rhs1)` AND definitions and the output
/// literals, every variable already bounded by the header's `M`. A
/// variable defined twice is an error. Variables are renumbered densely
/// by rank first, so the variable map is sized from the body, not from
/// `M` (legal ASCII may number its variables sparsely).
fn build(
    inputs: Vec<u32>,
    mut ands: Vec<(u32, u32, u32)>,
    mut pos: Vec<u32>,
) -> Result<Aig, ParseAigerError> {
    let n = inputs.len() + ands.len();
    let mut sorted: Vec<u32> = inputs
        .iter()
        .copied()
        .chain(ands.iter().map(|d| d.0))
        .collect();
    sorted.sort_unstable();
    if let Some(w) = sorted.windows(2).find(|w| w[0] == w[1]) {
        return Err(ParseAigerError::DefinedTwice(w[0]));
    }
    // Dense rank of each defined variable; an undefined one maps past
    // the table and stays undefined. A variable is tried at its own
    // index first: in a densely numbered file (every binary one, nearly
    // every ASCII one) it is found there, with no search.
    let rank = |v: u32| match v {
        0 => 0,
        _ if sorted.get(v as usize - 1) == Some(&v) => v,
        _ => sorted
            .binary_search(&v)
            .map_or(n as u32 + 1, |r| r as u32 + 1),
    };
    let lit = |code: u32| rank(code >> 1) << 1 | (code & 1);
    for d in &mut ands {
        *d = (rank(d.0), lit(d.1), lit(d.2));
    }
    for code in &mut pos {
        *code = lit(*code);
    }
    // Map from ranked AIGER variable index to our literal.
    let mut var_map: Vec<Option<Lit>> = vec![None; n + 1];
    var_map[0] = Some(Lit::FALSE);
    let mut aig = Aig::with_capacity(n + 1);
    for v in inputs {
        var_map[rank(v) as usize] = Some(aig.add_input());
    }
    build_ands(&mut aig, &mut var_map, ands)?;
    finish_pos(&mut aig, &var_map, &pos)?;
    Ok(aig)
}

fn build_ands(
    aig: &mut Aig,
    var_map: &mut [Option<Lit>],
    mut remaining: Vec<(u32, u32, u32)>,
) -> Result<(), ParseAigerError> {
    // ASCII AIGER does not require topological order in the file; process
    // definitions in dependency order with a simple worklist over passes.
    while !remaining.is_empty() {
        let before = remaining.len();
        remaining.retain(|&(lhs, rhs0, rhs1)| {
            let f0 = var_map.get(rhs0 as usize >> 1).copied().flatten();
            let f1 = var_map.get(rhs1 as usize >> 1).copied().flatten();
            match (f0, f1) {
                (Some(a), Some(b)) => {
                    let la = a.xor(rhs0 & 1 == 1);
                    let lb = b.xor(rhs1 & 1 == 1);
                    let lit = aig.and(la, lb);
                    var_map[lhs as usize] = Some(lit);
                    false
                }
                _ => true,
            }
        });
        if remaining.len() == before {
            return Err(ParseAigerError::BadBinary(
                "cyclic or undefined AND definitions".into(),
            ));
        }
    }
    Ok(())
}

fn finish_pos(
    aig: &mut Aig,
    var_map: &[Option<Lit>],
    po_codes: &[u32],
) -> Result<(), ParseAigerError> {
    for &code in po_codes {
        let base = var_map
            .get(code as usize >> 1)
            .copied()
            .flatten()
            .ok_or_else(|| ParseAigerError::BadLine {
                line: 0,
                message: format!("output references undefined literal {code}"),
            })?;
        aig.add_po(base.xor(code & 1 == 1));
    }
    Ok(())
}

/// Computes the canonical AIGER numbering of an [`Aig`]: inputs get
/// variables `1..=I`, AND gates follow in topological order.
fn aiger_numbering(aig: &Aig) -> Vec<u32> {
    let mut number = vec![0u32; aig.num_nodes()];
    let mut next = 1u32;
    for pi in aig.pis() {
        number[pi.index()] = next;
        next += 1;
    }
    for v in aig.and_vars() {
        number[v.index()] = next;
        next += 1;
    }
    number
}

fn lit_code(number: &[u32], lit: Lit) -> u32 {
    (number[lit.var().index()] << 1) | lit.is_complemented() as u32
}

/// Writes an ASCII AIGER (`aag`) file.
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
pub fn write_ascii<W: Write>(aig: &Aig, writer: W) -> io::Result<()> {
    let mut w = io::BufWriter::new(writer);
    let number = aiger_numbering(aig);
    let i = aig.num_pis() as u32;
    let a = aig.num_ands() as u32;
    writeln!(w, "aag {} {} 0 {} {}", i + a, i, aig.num_pos(), a)?;
    for pi in aig.pis() {
        writeln!(w, "{}", number[pi.index()] << 1)?;
    }
    for &po in aig.pos() {
        writeln!(w, "{}", lit_code(&number, po))?;
    }
    for v in aig.and_vars() {
        if let Node::And(f0, f1) = aig.node(v) {
            let lhs = number[v.index()] << 1;
            let (c0, c1) = (lit_code(&number, f0), lit_code(&number, f1));
            // AIGER convention: rhs0 >= rhs1.
            let (hi, lo) = if c0 >= c1 { (c0, c1) } else { (c1, c0) };
            writeln!(w, "{lhs} {hi} {lo}")?;
        }
    }
    w.flush()
}

/// Writes a binary AIGER (`aig`) file.
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
pub fn write_binary<W: Write>(aig: &Aig, writer: W) -> io::Result<()> {
    let mut w = io::BufWriter::new(writer);
    let number = aiger_numbering(aig);
    let i = aig.num_pis() as u32;
    let a = aig.num_ands() as u32;
    writeln!(w, "aig {} {} 0 {} {}", i + a, i, aig.num_pos(), a)?;
    for &po in aig.pos() {
        writeln!(w, "{}", lit_code(&number, po))?;
    }
    let write_delta = |w: &mut io::BufWriter<W>, mut d: u32| -> io::Result<()> {
        loop {
            let mut byte = (d & 0x7f) as u8;
            d >>= 7;
            if d != 0 {
                byte |= 0x80;
            }
            w.write_all(&[byte])?;
            if d == 0 {
                return Ok(());
            }
        }
    };
    for v in aig.and_vars() {
        if let Node::And(f0, f1) = aig.node(v) {
            let lhs = number[v.index()] << 1;
            let (c0, c1) = (lit_code(&number, f0), lit_code(&number, f1));
            let (hi, lo) = if c0 >= c1 { (c0, c1) } else { (c1, c0) };
            debug_assert!(lhs > hi, "AIG must be topologically ordered");
            write_delta(&mut w, lhs - hi)?;
            write_delta(&mut w, hi - lo)?;
        }
    }
    w.flush()
}

/// Reads an AIGER file from a path (ASCII or binary).
///
/// # Errors
///
/// Returns [`ParseAigerError`] on I/O failure or malformed input.
pub fn read_aiger_file<P: AsRef<std::path::Path>>(path: P) -> Result<Aig, ParseAigerError> {
    read_aiger(std::fs::File::open(path)?)
}

/// Writes an AIGER file to a path; format chosen by extension (`.aag` is
/// ASCII, anything else binary).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_aiger_file<P: AsRef<std::path::Path>>(aig: &Aig, path: P) -> io::Result<()> {
    let path = path.as_ref();
    let file = std::fs::File::create(path)?;
    if path.extension().is_some_and(|e| e == "aag") {
        write_ascii(aig, file)
    } else {
        write_binary(aig, file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Var;

    fn sample() -> Aig {
        let mut aig = Aig::new();
        let xs = aig.add_inputs(3);
        let f = aig.xor(xs[0], xs[1]);
        let g = aig.mux(xs[2], f, !xs[0]);
        aig.add_po(g);
        aig.add_po(!f);
        aig
    }

    fn equivalent(a: &Aig, b: &Aig) -> bool {
        assert_eq!(a.num_pis(), b.num_pis());
        let n = a.num_pis();
        (0..1u32 << n).all(|v| {
            let bits: Vec<bool> = (0..n).map(|i| v >> i & 1 == 1).collect();
            a.eval(&bits) == b.eval(&bits)
        })
    }

    #[test]
    fn ascii_roundtrip() {
        let aig = sample();
        let mut buf = Vec::new();
        write_ascii(&aig, &mut buf).unwrap();
        let back = read_aiger(&buf[..]).unwrap();
        assert_eq!(back.num_pis(), aig.num_pis());
        assert_eq!(back.num_pos(), aig.num_pos());
        assert!(equivalent(&aig, &back));
    }

    #[test]
    fn binary_roundtrip() {
        let aig = sample();
        let mut buf = Vec::new();
        write_binary(&aig, &mut buf).unwrap();
        let back = read_aiger(&buf[..]).unwrap();
        assert_eq!(back.num_pis(), aig.num_pis());
        assert_eq!(back.num_ands(), aig.num_ands());
        assert!(equivalent(&aig, &back));
    }

    #[test]
    fn constant_pos_roundtrip() {
        let mut aig = Aig::new();
        aig.add_inputs(1);
        aig.add_po(Lit::FALSE);
        aig.add_po(Lit::TRUE);
        let mut buf = Vec::new();
        write_ascii(&aig, &mut buf).unwrap();
        let back = read_aiger(&buf[..]).unwrap();
        assert_eq!(back.pos(), &[Lit::FALSE, Lit::TRUE]);
    }

    #[test]
    fn rejects_latches() {
        let text = "aag 1 0 1 0 0\n2 3\n";
        assert!(matches!(
            read_aiger(text.as_bytes()),
            Err(ParseAigerError::HasLatches(1))
        ));
    }

    #[test]
    fn rejects_garbage_header() {
        assert!(matches!(
            read_aiger("bogus 1 2 3".as_bytes()),
            Err(ParseAigerError::BadHeader(_))
        ));
    }

    #[test]
    fn parses_reference_ascii_example() {
        // AND of two inputs, from the AIGER spec.
        let text = "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n";
        let aig = read_aiger(text.as_bytes()).unwrap();
        assert_eq!(aig.num_pis(), 2);
        assert_eq!(aig.num_ands(), 1);
        assert_eq!(aig.eval(&[true, true]), vec![true]);
        assert_eq!(aig.eval(&[true, false]), vec![false]);
    }

    #[test]
    fn inverted_output_preserved() {
        let text = "aag 3 2 0 1 1\n2\n4\n7\n6 2 4\n";
        let aig = read_aiger(text.as_bytes()).unwrap();
        assert_eq!(aig.eval(&[true, true]), vec![false]);
        assert_eq!(aig.eval(&[false, false]), vec![true]);
    }

    fn rejects(input: &[u8]) {
        let parsed = std::panic::catch_unwind(|| read_aiger(input));
        assert!(
            matches!(parsed, Ok(Err(_))),
            "{:?} must be an error",
            String::from_utf8_lossy(input)
        );
    }

    #[test]
    fn rejects_input_variable_above_m() {
        rejects(b"aag 1 1 0 0 0\n4\n");
    }

    #[test]
    fn rejects_m_below_input_count() {
        rejects(b"aag 0 1 0 0 0\n2\n");
    }

    #[test]
    fn rejects_and_lhs_above_m() {
        rejects(b"aag 1 1 0 1 1\n2\n4\n4 2 2\n");
    }

    #[test]
    fn rejects_binary_and_lhs_above_m() {
        // One AND defining variable 2 of a file whose M is 1.
        rejects(b"aig 1 1 0 1 1\n4\n\x02\x00");
    }

    #[test]
    fn rejects_header_counts_that_overflow() {
        rejects(b"aag 1 4294967295 0 1 0\n");
    }

    fn rejects_as_defined_twice(input: &[u8], var: u32) {
        rejects(input);
        let err = read_aiger(input).unwrap_err();
        assert!(matches!(err, ParseAigerError::DefinedTwice(v) if v == var));
        assert_eq!(err.to_string(), format!("variable {var} is defined twice"));
    }

    #[test]
    fn rejects_and_redefining_an_input() {
        rejects_as_defined_twice(b"aag 2 1 0 1 1\n2\n2\n2 2 2\n", 1);
    }

    #[test]
    fn rejects_input_declared_twice() {
        rejects(b"aag 1 2 0 1 0\n2\n2\n2\n");
        // Room in M for both: still one variable defined twice.
        rejects_as_defined_twice(b"aag 2 2 0 1 0\n2\n2\n2\n", 1);
        rejects_as_defined_twice(b"aag 9 2 0 1 0\n14\n14\n2\n", 7);
    }

    #[test]
    fn rejects_output_literal_above_m() {
        rejects(b"aag 3 2 0 1 1\n2\n4\n8\n6 2 4\n");
    }

    #[test]
    fn sparse_numbering_parses_without_an_m_sized_table() {
        // Variables 2, 4 and 6 of M = 10: legal in ASCII.
        let aig = read_aiger(&b"aag 10 2 0 1 1\n4\n8\n13\n12 4 8\n"[..]).unwrap();
        assert_eq!((aig.num_pis(), aig.num_ands()), (2, 1));
        assert_eq!(aig.eval(&[true, true]), vec![false]);
        assert_eq!(aig.eval(&[true, false]), vec![true]);
        // One input numbered near the top of the literal range: nothing
        // is sized from M.
        let aig = read_aiger(&b"aag 2147483647 1 0 1 0\n4294967294\n4294967295\n"[..]).unwrap();
        assert_eq!(aig.num_pis(), 1);
        assert_eq!(aig.eval(&[false]), vec![true]);
    }

    #[test]
    fn large_roundtrip_binary() {
        // A bigger random-ish structure to exercise delta encoding widths.
        let mut aig = Aig::new();
        let xs = aig.add_inputs(8);
        let mut acc = xs[0];
        for (i, &x) in xs.iter().enumerate().skip(1) {
            acc = if i % 2 == 0 {
                aig.xor(acc, x)
            } else {
                aig.mux(x, acc, !x)
            };
        }
        aig.add_po(acc);
        let mut buf = Vec::new();
        write_binary(&aig, &mut buf).unwrap();
        let back = read_aiger(&buf[..]).unwrap();
        assert!(equivalent(&aig, &back));
        let _ = Var::new(0);
    }
}
